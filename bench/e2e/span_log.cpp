#include "span_log.hpp"

#include <algorithm>
#include <cstdio>
#include <memory>
#include <stdexcept>

#include "sim/comm_stats.hpp"
#include "util/wall_clock.hpp"

namespace picpar::bench_e2e {

const char* layer_name(Layer l) {
  switch (l) {
    case Layer::kLoadout: return "particles.loadout";
    case Layer::kDomainBuild: return "setup.domain_build";
    case Layer::kSetupInit: return "setup.init";
    case Layer::kDistribute: return "core.partitioner.distribute";
    case Layer::kCollective: return "sim.collective";
    case Layer::kIteration: return "pic.iteration";
    case Layer::kInject: return "scenario.inject";
    case Layer::kDeposit: return "pic.deposit";
    case Layer::kFlushScatter: return "core.ghost.flush_scatter";
    case Layer::kFieldSolve: return "mesh.field_solve";
    case Layer::kFetchFields: return "core.ghost.fetch_fields";
    case Layer::kGatherKick: return "pic.gather_kick";
    case Layer::kPush: return "pic.push";
    case Layer::kRedistribute: return "core.partitioner.redistribute";
    case Layer::kFinalize: return "pic.finalize";
    case Layer::kAggregate: return "pic.aggregate";
    case Layer::kHandoff: return "sim.handoff";
    case Layer::kRunEdges: return "sim.run_edges";
    case Layer::kUnattributed: return "bench.unattributed";
    case Layer::kCount: break;
  }
  return "?";
}

SpanLog::SpanLog(std::size_t capacity) { events_.reserve(capacity); }

void SpanLog::push(int rank, Kind k, std::uint16_t id, std::int64_t arg) {
  events_.push_back(Event{util::wall_clock(), rank, k, id, arg});
}

void SpanLog::begin(int rank, Layer l, std::int64_t iter) {
  push(rank, Kind::kBegin, static_cast<std::uint16_t>(l), iter);
}

void SpanLog::end(int rank, Layer l) {
  push(rank, Kind::kEnd, static_cast<std::uint16_t>(l), 0);
}

void SpanLog::instant(int rank) { push(rank, Kind::kMark, 0, 0); }

void SpanLog::on_run_start(int) {}

void SpanLog::on_send(sim::Message&, const sim::SendEvent& e) {
  push(e.src, Kind::kSend, 0, static_cast<std::int64_t>(e.bytes));
}

void SpanLog::on_recv(const sim::Message&, const sim::RecvEvent& e,
                      const std::deque<sim::Message>&) {
  push(e.rank, Kind::kRecv, 0, 0);
}

void SpanLog::on_phase(const sim::PhaseEvent& e) {
  push(e.rank, Kind::kPhase, static_cast<std::uint16_t>(e.to), 0);
}

void SpanLog::on_mark(const sim::MarkEvent& e) {
  push(e.rank, Kind::kMark, 0, e.iter);
}

Breakdown attribute(const std::vector<SpanLog::Event>& events,
                    int iterations) {
  using Kind = SpanLog::Kind;
  if (events.size() < 2 || events.front().rank != SpanLog::kMain ||
      events.back().rank != SpanLog::kMain)
    throw std::logic_error(
        "attribute: the log must open and close on the main thread");
  int max_rank = 0;
  for (const auto& e : events) max_rank = std::max(max_rank, e.rank);
  // Index 0 is the main thread; rank r lives at r + 1.
  std::vector<std::vector<Layer>> stacks(static_cast<std::size_t>(max_rank) +
                                         2);
  const auto stack_of = [&](int rank) -> std::vector<Layer>& {
    return stacks[static_cast<std::size_t>(rank + 1)];
  };

  Breakdown b;
  std::vector<std::uint64_t> iter_start(static_cast<std::size_t>(iterations),
                                        0);
  std::uint64_t last_iter_end = 0;
  for (std::size_t k = 0; k < events.size(); ++k) {
    const auto& e = events[k];
    if (k > 0) {
      const auto& prev = events[k - 1];
      Layer bucket = Layer::kHandoff;
      if (prev.rank == e.rank) {
        const auto& st = stack_of(e.rank);
        bucket = st.empty() ? Layer::kUnattributed : st.back();
      } else if (prev.rank == SpanLog::kMain || e.rank == SpanLog::kMain) {
        bucket = Layer::kRunEdges;
      } else {
        ++b.handoffs;
      }
      b.self_s[static_cast<std::size_t>(bucket)] +=
          static_cast<double>(e.t_ns - prev.t_ns) * 1e-9;
    }
    auto& st = stack_of(e.rank);
    const auto layer = static_cast<Layer>(e.id);
    switch (e.kind) {
      case Kind::kBegin:
        st.push_back(layer);
        if (layer == Layer::kIteration && e.rank == 0 && e.arg >= 0 &&
            e.arg < iterations)
          iter_start[static_cast<std::size_t>(e.arg)] = e.t_ns;
        break;
      case Kind::kEnd:
        if (st.empty() || st.back() != layer)
          throw std::logic_error(std::string("attribute: unbalanced span ") +
                                 layer_name(layer));
        st.pop_back();
        if (layer == Layer::kIteration)
          last_iter_end = std::max(last_iter_end, e.t_ns);
        break;
      case Kind::kSend:
        if (!st.empty() && st.front() == Layer::kIteration) {
          ++b.iter_msgs;
          b.iter_bytes += static_cast<std::uint64_t>(e.arg);
        }
        break;
      case Kind::kRecv:
      case Kind::kPhase:
      case Kind::kMark:
        break;
    }
  }
  for (const auto& st : stacks)
    if (!st.empty())
      throw std::logic_error(std::string("attribute: span left open: ") +
                             layer_name(st.back()));
  for (int i = 0; i < iterations; ++i) {
    const std::uint64_t start = iter_start[static_cast<std::size_t>(i)];
    const std::uint64_t stop = i + 1 < iterations
                                   ? iter_start[static_cast<std::size_t>(i + 1)]
                                   : last_iter_end;
    b.iter_ms.push_back(static_cast<double>(stop - start) * 1e-6);
  }
  return b;
}

namespace {

struct FileCloser {
  void operator()(std::FILE* f) const {
    if (f) std::fclose(f);
  }
};

}  // namespace

void SpanLog::write_chrome_trace(const std::string& path, int nranks) const {
  std::unique_ptr<std::FILE, FileCloser> f(std::fopen(path.c_str(), "wb"));
  if (!f) throw std::runtime_error("trace-out: cannot open " + path);
  const std::uint64_t t0 = events_.empty() ? 0 : events_.front().t_ns;
  const auto us = [&](std::uint64_t t) {
    return static_cast<double>(t - t0) * 1e-3;
  };
  // The main thread is drawn as one extra track after the ranks.
  const auto tid = [&](int rank) {
    return rank == SpanLog::kMain ? nranks : rank;
  };

  std::fprintf(f.get(), "{\"displayTimeUnit\":\"ms\",\"traceEvents\":[\n");
  std::fprintf(f.get(),
               "{\"name\":\"thread_name\",\"ph\":\"M\",\"pid\":0,\"tid\":%d,"
               "\"args\":{\"name\":\"main\"}}",
               nranks);
  for (int r = 0; r < nranks; ++r)
    std::fprintf(f.get(),
                 ",\n{\"name\":\"thread_name\",\"ph\":\"M\",\"pid\":0,"
                 "\"tid\":%d,\"args\":{\"name\":\"rank %d\"}}",
                 r, r);

  struct Open {
    Layer layer;
    std::uint64_t t;
    std::int64_t iter;
    std::int64_t id;
    std::int64_t parent;
  };
  std::vector<std::vector<Open>> stacks(static_cast<std::size_t>(nranks) + 1);
  std::int64_t next_id = 0;
  for (const auto& e : events_) {
    auto& st = stacks[static_cast<std::size_t>(tid(e.rank))];
    switch (e.kind) {
      case Kind::kBegin:
        st.push_back({static_cast<Layer>(e.id), e.t_ns, e.arg, next_id++,
                      st.empty() ? -1 : st.back().id});
        break;
      case Kind::kEnd: {
        if (st.empty()) break;
        const Open o = st.back();
        st.pop_back();
        std::fprintf(f.get(),
                     ",\n{\"name\":\"%s\",\"ph\":\"X\",\"pid\":0,\"tid\":%d,"
                     "\"ts\":%.3f,\"dur\":%.3f,\"args\":{\"id\":%lld,"
                     "\"parent\":%lld,\"iter\":%lld}}",
                     layer_name(o.layer), tid(e.rank), us(o.t),
                     us(e.t_ns) - us(o.t), static_cast<long long>(o.id),
                     static_cast<long long>(o.parent),
                     static_cast<long long>(o.iter));
        break;
      }
      case Kind::kSend:
        std::fprintf(f.get(),
                     ",\n{\"name\":\"send\",\"ph\":\"i\",\"s\":\"t\",\"pid\":0,"
                     "\"tid\":%d,\"ts\":%.3f,\"args\":{\"bytes\":%lld}}",
                     tid(e.rank), us(e.t_ns), static_cast<long long>(e.arg));
        break;
      case Kind::kRecv:
        std::fprintf(f.get(),
                     ",\n{\"name\":\"recv\",\"ph\":\"i\",\"s\":\"t\",\"pid\":0,"
                     "\"tid\":%d,\"ts\":%.3f}",
                     tid(e.rank), us(e.t_ns));
        break;
      case Kind::kPhase:
        std::fprintf(f.get(),
                     ",\n{\"name\":\"phase\",\"ph\":\"i\",\"s\":\"t\",\"pid\":0,"
                     "\"tid\":%d,\"ts\":%.3f,\"args\":{\"to\":\"%s\"}}",
                     tid(e.rank), us(e.t_ns),
                     sim::phase_name(static_cast<sim::Phase>(e.id)));
        break;
      case Kind::kMark:
        std::fprintf(f.get(),
                     ",\n{\"name\":\"mark\",\"ph\":\"i\",\"s\":\"t\",\"pid\":0,"
                     "\"tid\":%d,\"ts\":%.3f}",
                     tid(e.rank), us(e.t_ns));
        break;
    }
  }
  std::fprintf(f.get(), "\n]}\n");
  if (std::ferror(f.get()) || std::fclose(f.release()) != 0)
    throw std::runtime_error("trace-out: write failed for " + path);
}

}  // namespace picpar::bench_e2e
