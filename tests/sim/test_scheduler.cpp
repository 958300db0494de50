// The scheduler: ranks as fibers, picked from a ready set in round-robin
// order; with one worker, all of them on the calling thread.
#include <dirent.h>
#include <gtest/gtest.h>
#include <stdlib.h>
#include <sys/resource.h>
#include <sys/wait.h>
#include <unistd.h>

#include <algorithm>
#include <cfenv>
#include <cstddef>
#include <cstdint>
#include <exception>
#include <fstream>
#include <optional>
#include <stdexcept>
#include <string>
#include <system_error>
#include <thread>
#include <vector>

#include "sim/comm.hpp"
#include "sim/faults.hpp"
#include "sim/held_set.hpp"
#include "util/rng.hpp"

namespace picpar::sim {
namespace {

// ---- schedule identity ----------------------------------------------------

/// Logs which rank raised each send, receive and phase callback, in the
/// order the scheduler ran them.
class RankLog : public MachineObserver {
public:
  void on_run_start(int) override { log.clear(); }
  void on_send(Message&, const SendEvent& e) override { add(0, e.src); }
  void on_recv(const Message&, const RecvEvent& e,
               const std::deque<Message>&) override {
    add(1, e.rank);
  }
  void on_phase(const PhaseEvent& e) override { add(2, e.rank); }

  std::uint64_t hash() const {
    return fnv1a(reinterpret_cast<const std::byte*>(log.data()),
                 log.size() * sizeof(std::int32_t));
  }

  std::vector<std::int32_t> log;

private:
  void add(int kind, int rank) { log.push_back(kind * 65536 + rank); }
};

/// Source-pinned receives, all_to_many's wildcard receives, an allreduce,
/// and a wildcard receive whose message waits in the mailbox while four
/// rounds of other flows' ring traffic pass it.
void mixed_program(Comm& c) {
  const int r = c.rank();
  const int p = c.size();
  c.set_phase(Phase::kScatter);
  c.send_value((r + 1) % p, 1, r);
  (void)c.recv_value<int>((r + p - 1) % p, 1);
  c.charge(1e-5 * ((r * 5) % 7));

  c.set_phase(Phase::kRedistribute);
  std::vector<std::vector<int>> out(static_cast<std::size_t>(p));
  for (int k = 1; k <= 2; ++k)
    out[static_cast<std::size_t>((r + 3 * k) % p)].assign(
        static_cast<std::size_t>(r + k), r);
  const auto in = c.all_to_many(std::move(out));
  std::size_t got = 0;
  for (const auto& b : in) got += b.size();
  (void)c.allreduce_sum(static_cast<long>(got));

  // Groups of three: the leader takes its members' messages through
  // wildcard receives that the lower-bound rule holds back until the other
  // ranks' clocks move past the candidate's arrival.
  c.set_phase(Phase::kGather);
  for (int round = 0; round < 3; ++round) {
    c.charge(1e-5 * ((r * 7 + round * 3) % 5));
    if (r % 3 == 0) {
      for (int k = 1; k < 3 && r + k < p; ++k)
        (void)c.recv_value<int>(kAnySource, 2);
    } else {
      c.send_value(r - r % 3, 2, r);
    }
  }

  c.set_phase(Phase::kPush);
  c.send_value((r + 3) % p, 9, r);
  for (int i = 0; i < 4; ++i) {
    c.charge(1e-6 * ((r + i) % 3));
    c.send_value((r + 1) % p, 10 + i, i);
    (void)c.recv_value<int>((r + p - 1) % p, 10 + i);
  }
  (void)c.recv_value<int>(kAnySource, 9);
  c.set_phase(Phase::kOther);
  c.barrier();
}

/// Ring rounds that survive a fail-stop crash: survivors catch
/// PeerFailedError, agree on membership and finish on the shrunken group.
void resilient_program(Comm& c) {
  int r = 0;
  for (;;) {
    try {
      while (r < 6) {
        const int p = c.size();
        c.set_phase(r % 2 == 0 ? Phase::kScatter : Phase::kGather);
        c.send_value((c.rank() + 1) % p, 5, r);
        (void)c.recv_value<int>((c.rank() + p - 1) % p, 5);
        (void)c.allreduce_sum(c.world_rank());
        ++r;
      }
      return;
    } catch (const PeerFailedError&) {
      (void)c.agree_on_membership();
      r = c.allreduce_min(r);
    }
  }
}

TEST(ScheduleIdentity, MixedTrafficAtP8) {
  // Pinned at W = 1 and reproduced by a scheduler that probes every rank
  // of the block at each handoff: the ready set must pick exactly the
  // ranks that one picks.
  Machine m(8, CostModel::cm5());
  RankLog log;
  m.set_observer(&log);
  m.run(mixed_program);
  EXPECT_EQ(log.log.size(), 302U);
  EXPECT_EQ(log.hash(), 4611295017367455679ULL);
}

TEST(ScheduleIdentity, CrashAndMembershipAtP6) {
  FaultConfig cfg;
  cfg.crash_schedule = {{2, 3e-4}};
  Machine m(6, CostModel::cm5(), cfg);
  RankLog log;
  m.set_observer(&log);
  const RunResult res = m.run(resilient_program);
  ASSERT_EQ(res.crashes.size(), 1U);
  EXPECT_EQ(res.epochs, 1);
  EXPECT_EQ(log.log.size(), 251U);
  EXPECT_EQ(log.hash(), 2079913854962087645ULL);
}

// ---- stall order ----------------------------------------------------------

struct HeldKey {
  double arrival = 0.0;
  int src = -1;
  std::uint64_t seq = 0;
  bool dup = false;
};

/// The stall pick before the held set: the first rank, in ascending order,
/// whose candidate has the minimal (arrival, src, seq, dup) key.
int linear_stall_pick(const std::vector<std::optional<HeldKey>>& held) {
  int best_rank = -1;
  HeldKey best;
  for (std::size_t r = 0; r < held.size(); ++r) {
    if (!held[r]) continue;
    const HeldKey& c = *held[r];
    const bool wins =
        best_rank < 0 || c.arrival < best.arrival ||
        (c.arrival == best.arrival &&
         (c.src < best.src ||
          (c.src == best.src &&
           (c.seq < best.seq ||
            (c.seq == best.seq && (c.dup ? 1 : 0) < (best.dup ? 1 : 0))))));
    if (wins) {
      best = c;
      best_rank = static_cast<int>(r);
    }
  }
  return best_rank;
}

TEST(StallOrder, HeldSetPicksWhatTheLinearScanPicked) {
  // Random holds, re-holds and releases over a handful of values per key
  // field, so partial and full ties are common (-0.0 and 0.0 compare
  // equal); after every step the set's minimum must be the scan's pick.
  const double arrivals[] = {0.0, -0.0, 1e-6, 2e-6};
  for (const int p : {1, 7, 64, 1024}) {
    SCOPED_TRACE("p=" + std::to_string(p));
    Rng rng(static_cast<std::uint64_t>(p));
    detail::HeldSet set(p);
    std::vector<std::optional<HeldKey>> ref(static_cast<std::size_t>(p));
    for (int step = 0; step < 20000; ++step) {
      const auto r = static_cast<int>(rng.below(static_cast<std::uint64_t>(p)));
      auto& slot = ref[static_cast<std::size_t>(r)];
      if (rng.below(3) == 0) {
        set.release(r);
        slot.reset();
      } else {
        HeldKey k;
        k.arrival = arrivals[rng.below(4)];
        k.src = static_cast<int>(rng.below(4));
        k.seq = rng.below(3);
        k.dup = rng.below(2) == 1;
        set.hold(r, k.arrival, k.src, k.seq, k.dup);
        slot = k;
      }
      ASSERT_EQ(set.min_rank(), linear_stall_pick(ref)) << "step " << step;
    }
  }
}

// ---- fiber safety ---------------------------------------------------------

TEST(FiberSafety, ExceptionsStayWithTheirRankAcrossHandoffs) {
  // Every rank is parked inside its own catch handler (the allreduce
  // cannot finish until all four have thrown and caught), so the handlers
  // interleave; each rethrow must still be the rank's own exception.
  const int p = 4;
  Machine m(p, CostModel::cm5());
  std::vector<std::string> caught(p);
  std::vector<int> uncaught(p, -1);
  m.run([&](Comm& c) {
    const int r = c.rank();
    try {
      try {
        throw std::runtime_error("rank " + std::to_string(r));
      } catch (const std::runtime_error&) {
        c.send_value((r + 1) % p, 3, r);
        EXPECT_EQ(c.allreduce_sum(1), p);
        (void)c.recv_value<int>((r + p - 1) % p, 3);
        throw;
      }
    } catch (const std::runtime_error& e) {
      caught[static_cast<std::size_t>(r)] = e.what();
    }
    c.barrier();
    uncaught[static_cast<std::size_t>(r)] = std::uncaught_exceptions();
  });
  for (int r = 0; r < p; ++r) {
    EXPECT_EQ(caught[static_cast<std::size_t>(r)], "rank " + std::to_string(r));
    EXPECT_EQ(uncaught[static_cast<std::size_t>(r)], 0);
  }
  EXPECT_EQ(std::uncaught_exceptions(), 0);
}

/// The rounding mode the SSE unit applies, found from a division: the
/// MXCSR holds it, while fegetround reads the x87 control word. A switch
/// must carry both with the rank.
int sse_rounding() {
  volatile double one = 1.0;
  volatile double three = 3.0;
  const double third = one / three;
  const double minus_third = -one / three;
  // To nearest, 1/3 rounds toward zero: 0x1.5555555555555p-2.
  if (third > 0x1.5555555555555p-2) return FE_UPWARD;
  if (minus_third < -0x1.5555555555555p-2) return FE_DOWNWARD;
  return FE_TONEAREST;
}

TEST(FiberSafety, FloatingPointControlStaysWithItsRank) {
  // Rank 0 parks in a receive with upward rounding; rank 1 must start with
  // the default mode, and each rank's own mode must survive the handoffs.
  const int caller_mode = std::fegetround();
  Machine m(2, CostModel::cm5());
  m.run([](Comm& c) {
    const auto expect_mode = [](int mode, const char* where) {
      EXPECT_EQ(std::fegetround(), mode) << where;
      EXPECT_EQ(sse_rounding(), mode) << where;
    };
    if (c.rank() == 0) {
      std::fesetround(FE_UPWARD);
      (void)c.recv_value<int>(1, 0);
      expect_mode(FE_UPWARD, "rank 0 after its receive");
    } else {
      expect_mode(FE_TONEAREST, "rank 1 at start");
      std::fesetround(FE_DOWNWARD);
      c.send_value(0, 0, 1);
    }
    c.barrier();
    expect_mode(c.rank() == 0 ? FE_UPWARD : FE_DOWNWARD, "after the barrier");
  });
  EXPECT_EQ(std::fegetround(), caller_mode);
  EXPECT_EQ(sse_rounding(), caller_mode);
}

TEST(FiberSafety, DeadlockUnwindsEveryParkedRank) {
  struct Counted {
    int* destroyed;
    explicit Counted(int* d) : destroyed(d) {}
    ~Counted() { ++*destroyed; }
    Counted(const Counted&) = delete;
    Counted& operator=(const Counted&) = delete;
  };
  const int p = 16;
  Machine m(p, CostModel::cm5());
  int destroyed = 0;
  int destroyed_at_throw = -1;
  try {
    m.run([&](Comm& c) {
      Counted guard(&destroyed);
      // Everyone waits on its right neighbour, who never sends.
      (void)c.recv_value<int>((c.rank() + 1) % c.size(), 7);
    });
  } catch (const DeadlockError& e) {
    destroyed_at_throw = destroyed;
    EXPECT_EQ(e.blocked().size(), static_cast<std::size_t>(p));
  }
  EXPECT_EQ(destroyed_at_throw, p);
  // The same machine runs a clean program afterwards.
  const RunResult res = m.run([](Comm& c) {
    EXPECT_EQ(c.allreduce_sum(1), c.size());
  });
  EXPECT_EQ(res.ranks.size(), static_cast<std::size_t>(p));
}

TEST(FiberSafety, RankStackHoldsAMebibyte) {
  Machine m(64, CostModel::cm5());
  std::vector<int> sums(64, 0);
  m.run([&](Comm& c) {
    volatile unsigned char buf[1 << 20];
    for (std::size_t i = 0; i < sizeof(buf); i += 4096)
      buf[i] = static_cast<unsigned char>(c.rank());
    c.barrier();  // every rank's buffer is live across the handoffs
    int sum = 0;
    for (std::size_t i = 0; i < sizeof(buf); i += 4096) sum += buf[i];
    sums[static_cast<std::size_t>(c.rank())] = sum;
  });
  for (int r = 0; r < 64; ++r)
    EXPECT_EQ(sums[static_cast<std::size_t>(r)], r * 256);
}

TEST(FiberSafety, RingAt4096RanksRunsOnTheCallingThread) {
  const std::thread::id caller = std::this_thread::get_id();
  const int p = 4096;
  Machine m(p, CostModel::cm5());
  int on_caller = 0;
  int sum = 0;
  const RunResult res = m.run([&](Comm& c) {
    if (std::this_thread::get_id() == caller) ++on_caller;
    c.send_value((c.rank() + 1) % c.size(), 0, c.rank());
    sum += c.recv_value<int>((c.rank() + c.size() - 1) % c.size(), 0);
  });
  EXPECT_EQ(on_caller, p);
  EXPECT_EQ(sum, p * (p - 1) / 2);
  EXPECT_EQ(res.ranks.size(), static_cast<std::size_t>(p));
}

TEST(FiberSafety, MachineRunsInsideARank) {
  Machine outer(2, CostModel::cm5());
  double inner_makespan = 0.0;
  outer.run([&](Comm& c) {
    if (c.rank() == 0) c.send_value(1, 0, 41);
    if (c.rank() == 1) {
      const int v = c.recv_value<int>(0, 0);
      Machine inner(3, CostModel::cm5());
      inner_makespan = inner
                           .run([&](Comm& ic) {
                             EXPECT_EQ(ic.allreduce_sum(v + 1), 126);
                           })
                           .makespan();
    }
    c.barrier();
  });
  EXPECT_GT(inner_makespan, 0.0);
}

TEST(FiberSafety, MachinesOnSeparateThreadsAreIndependent) {
  auto program = [](Comm& c) {
    for (int i = 0; i < 20; ++i) {
      c.send_value((c.rank() + 1) % c.size(), i, c.rank());
      (void)c.recv_value<int>(kAnySource, i);
    }
    (void)c.allreduce_max(c.clock());
  };
  double makespans[2] = {0.0, 0.0};
  std::thread a([&] {
    Machine m(64, CostModel::cm5());
    makespans[0] = m.run(program).makespan();
  });
  std::thread b([&] {
    Machine m(64, CostModel::cm5());
    makespans[1] = m.run(program).makespan();
  });
  a.join();
  b.join();
  EXPECT_GT(makespans[0], 0.0);
  EXPECT_EQ(makespans[0], makespans[1]);
}

/// Thread ids of this process, read from /proc/self/task.
std::vector<std::string> thread_ids() {
  std::vector<std::string> ids;
  DIR* dir = opendir("/proc/self/task");
  if (dir == nullptr) return ids;
  while (const dirent* e = readdir(dir))
    if (e->d_name[0] != '.') ids.emplace_back(e->d_name);
  closedir(dir);
  std::sort(ids.begin(), ids.end());
  return ids;
}

TEST(FiberSafety, OneWorkerStartsNoThread) {
  // A thread that an earlier test joined can still be listed for a moment
  // and then vanish, so compare ids: the run must show no new one.
  const std::vector<std::string> before = thread_ids();
  ASSERT_FALSE(before.empty());
  Machine m(64, CostModel::cm5());
  std::vector<std::string> started;
  auto look = [&] {
    for (const std::string& id : thread_ids())
      if (!std::binary_search(before.begin(), before.end(), id))
        started.push_back(id);
  };
  m.run([&](Comm& c) {
    look();
    EXPECT_EQ(c.allreduce_sum(1), c.size());
    look();
  });
  EXPECT_TRUE(started.empty()) << started.size() << " thread(s) started";
}

// ---- worker count from the environment ------------------------------------

TEST(ParallelEngineConfig, EnvSelection) {
  ASSERT_EQ(unsetenv("PICPAR_PARALLEL"), 0);
  EXPECT_FALSE(parallel_env_enabled());
  ASSERT_EQ(setenv("PICPAR_PARALLEL", "0", 1), 0);
  EXPECT_FALSE(parallel_env_enabled());
  ASSERT_EQ(setenv("PICPAR_PARALLEL", "1", 1), 0);
  EXPECT_TRUE(parallel_env_enabled());
  ASSERT_EQ(unsetenv("PICPAR_PARALLEL"), 0);

  Machine m(2, CostModel::zero());
  EXPECT_EQ(m.workers(), 1);
  m.set_workers(0);
  EXPECT_EQ(m.workers(), 1);
  m.set_workers(5);
  EXPECT_EQ(m.workers(), 5);
}

TEST(ParallelEngineConfig, WorkerResolution) {
  ASSERT_EQ(unsetenv("PICPAR_WORKERS"), 0);
  EXPECT_EQ(resolve_workers(3), 3);
  EXPECT_GE(resolve_workers(0), 1);
  ASSERT_EQ(setenv("PICPAR_WORKERS", "7", 1), 0);
  EXPECT_EQ(resolve_workers(3), 7);
  ASSERT_EQ(unsetenv("PICPAR_WORKERS"), 0);
}

// ---- start-up failure -----------------------------------------------------

#if defined(__SANITIZE_ADDRESS__) || defined(__SANITIZE_THREAD__)
#define PICPAR_SANITIZED 1
#elif defined(__has_feature)
#if __has_feature(address_sanitizer) || __has_feature(thread_sanitizer)
#define PICPAR_SANITIZED 1
#endif
#endif

#ifndef PICPAR_SANITIZED
/// Mapped address space of this process, in bytes.
std::size_t mapped_bytes() {
  std::ifstream statm("/proc/self/statm");
  std::size_t pages = 0;
  statm >> pages;
  return pages * static_cast<std::size_t>(sysconf(_SC_PAGESIZE));
}
#endif

TEST(StartUp, StackExhaustionThrowsAndReleasesTheStacksMadeSoFar) {
#ifdef PICPAR_SANITIZED
  GTEST_SKIP() << "sanitizer runtimes reserve address space of their own";
#else
  const pid_t pid = fork();
  ASSERT_GE(pid, 0);
  if (pid == 0) {
    // Room for about four rank stacks, not sixty-four.
    const std::size_t limit = mapped_bytes() + (std::size_t{36} << 20);
    const rlimit lim{limit, limit};
    if (setrlimit(RLIMIT_AS, &lim) != 0) _exit(10);
    int code = 11;  // no exception
    try {
      Machine m(64, CostModel::cm5());
      m.run([](Comm& c) { c.barrier(); });
    } catch (const std::system_error& e) {
      const std::string what = e.what();
      code = what.find("p=64") != std::string::npos &&
                     what.find("8 MiB") != std::string::npos
                 ? 0
                 : 12;
    } catch (...) {
      code = 13;
    }
    // Leaked stacks would leave no room for this smaller run.
    if (code == 0) {
      try {
        Machine m(3, CostModel::cm5());
        if (m.run([](Comm& c) { c.barrier(); }).ranks.size() != 3) code = 14;
      } catch (...) {
        code = 15;
      }
    }
    _exit(code);
  }
  int status = 0;
  ASSERT_EQ(waitpid(pid, &status, 0), pid);
  ASSERT_TRUE(WIFEXITED(status));
  EXPECT_EQ(WEXITSTATUS(status), 0);
#endif
}

}  // namespace
}  // namespace picpar::sim
