// Robustness sweep beyond the paper: how the adaptive machinery behaves on
// an unreliable machine. Part 1 sweeps wire-fault intensity (corruption +
// duplication + jitter) and memory-fault rate across decision rules,
// reporting makespan, overhead, transport recovery traffic and
// checkpoint rollbacks. The zero-fault row doubles as the baseline: with
// the model disabled the run is bit-identical to a build without the
// fault subsystem. Part 2 injects fail-stop rank crashes (single, cascade
// of two, and mid-redistribution) per curve and policy, reporting MTTR,
// the recovered-particle fraction and post-recovery imbalance of the
// shrink-to-survivors path; --csv additionally writes the crash rows as a
// machine-readable artifact.
#include <fstream>
#include <sstream>

#include "common.hpp"
#include "pic/simulation.hpp"

using namespace picpar;

namespace {

/// End-of-iteration virtual times reconstructed from the per-iteration
/// records (exec_seconds chain from the post-init clock, which is the
/// makespan minus their sum when the run is crash-free).
std::vector<double> iter_end_times(const pic::PicResult& r) {
  double sum = 0.0;
  for (const auto& it : r.iters) sum += it.exec_seconds;
  std::vector<double> ends;
  ends.reserve(r.iters.size());
  double t = r.total_seconds - sum;
  for (const auto& it : r.iters) {
    t += it.exec_seconds;
    ends.push_back(t);
  }
  return ends;
}

/// Virtual time inside the redistribution phase of the first redistributing
/// iteration past the run's midpoint (falls back to 45% of the makespan).
double mid_redistribution_time(const pic::PicResult& r) {
  const auto ends = iter_end_times(r);
  for (std::size_t i = r.iters.size() / 2; i < r.iters.size(); ++i)
    if (r.iters[i].redistributed && r.iters[i].redist_seconds > 0.0)
      return ends[i] - 0.5 * r.iters[i].redist_seconds;
  return 0.45 * r.total_seconds;
}

}  // namespace

int main(int argc, char** argv) {
  Cli cli("bench_faults_recovery",
          "Fault injection and recovery across decision rules");
  auto ranks = cli.flag<int>("ranks", 32, "simulated processors");
  auto csv_path = cli.flag<std::string>(
      "csv", "", "write crash-scenario rows to this CSV file");
  const auto sf = bench::sweep_flags(cli);
  const auto scale = bench::parse_scale(cli, argc, argv);
  const int iters = scale.full ? 400 : 100;
  const std::uint64_t n = scale.particles(32768);

  bench::print_header(
      "Robustness — fault injection and recovery",
      std::to_string(iters) + " iterations, irregular blob, " +
          std::to_string(*ranks) + " ranks; wire faults recovered by the "
          "transport, memory faults by checkpoint rollback");

  struct FaultLevel {
    const char* label;
    double wire;    // corrupt/duplicate probability per message
    double memory;  // bit-flip probability per rank per iteration
  };
  const FaultLevel levels[] = {
      {"none", 0.0, 0.0},
      {"wire:1%", 0.01, 0.0},
      {"wire:5%", 0.05, 0.0},
      {"wire:5%+mem", 0.05, 0.02},
  };
  const std::vector<std::string> policies = {"static", "periodic:25", "sar"};

  Table table({"faults", "policy", "total (s)", "overhead (s)", "retries",
               "dup drops", "rollbacks", "particles ok"});
  table.set_title("Makespan and recovery work by fault level and policy");

  std::vector<sweep::Job> fault_jobs;
  for (const auto& level : levels) {
    for (const auto& policy : policies) {
      auto params = bench::paper_params("irregular_beam", 128, 64, n, *ranks);
      params.iterations = iters;
      params.policy = policy;
      params.init.drift_ux = 0.12;
      params.init.drift_uy = 0.07;
      params.faults.corrupt_prob = level.wire;
      params.faults.duplicate_prob = level.wire;
      params.faults.latency_jitter_prob = level.wire;
      params.faults.latency_jitter_max_seconds = 1e-4;
      params.faults.max_retries = 20;
      params.faults.memory_fault_prob = level.memory;
      if (level.memory > 0.0) {
        params.validate.check_every = 1;
        params.validate.checkpoint_every = 1;
      }
      fault_jobs.push_back(
          {std::string(level.label) + "/" + policy, params});
    }
  }
  const auto fault_report = bench::run_sweep_jobs(fault_jobs, sf);

  std::size_t row = 0;
  for (const auto& level : levels) {
    for (const auto& policy : policies) {
      const auto& r = fault_report.outcomes[row++].result;
      const auto t = r.machine.transport_total();
      table.row()
          .add(level.label)
          .add(policy)
          .add(r.total_seconds, 2)
          .add(r.overhead_seconds(), 2)
          .add(t.retries)
          .add(t.dup_discards)
          .add(r.recoveries)
          .add(r.final_particles == r.initial_particles ? "yes" : "NO");
      std::cout << "." << std::flush;
    }
  }
  std::cout << '\n';
  table.print(std::cout);
  std::cout << "\nExpected: recovery work grows with the fault rate while "
               "'particles ok' stays yes everywhere; sar keeps its edge over "
               "static under faults, paying only virtual-time overhead for "
               "retransmits and rollbacks.\n";

  // ---- Part 2: fail-stop crashes and shrink-to-survivors recovery ----
  struct CrashScenario {
    const char* label;
    int ncrashes;
    bool mid_redist;  // place the (single) crash inside a redistribution
  };
  const CrashScenario scenarios[] = {
      {"crash:1", 1, false},
      {"crash:2", 2, false},
      {"crash:redist", 1, true},
  };
  const std::vector<sfc::CurveKind> curves = {sfc::CurveKind::kHilbert,
                                              sfc::CurveKind::kMorton};
  const std::vector<std::string> crash_policies = {"periodic:25", "sar"};

  Table ctable({"scenario", "curve", "policy", "crashes", "recoveries",
                "MTTR (s)", "recovered", "imbalance", "total (s)",
                "clean (s)"});
  ctable.set_title(
      "Fail-stop crashes — shrink-to-survivors recovery by curve and policy");
  std::ostringstream csv;
  csv << "scenario,curve,policy,ranks,crashes,recoveries,mttr_seconds,"
         "lost_particles,restored_particles,recovered_fraction,"
         "final_particles,initial_particles,final_imbalance,final_ranks,"
         "total_seconds,clean_seconds\n";

  // Clean (crash-free) baselines first — their makespans and timelines
  // place the scheduled crashes — then the crash scenarios as a second
  // sweep. Both go through the cached driver: the baselines are exactly
  // the kind of run a shared cache directory amortizes across benches.
  std::vector<sweep::Job> clean_jobs;
  for (const auto curve : curves) {
    for (const auto& policy : crash_policies) {
      auto params = bench::paper_params("irregular_beam", 128, 64, n, *ranks);
      params.iterations = iters;
      params.policy = policy;
      params.curve = curve;
      params.init.drift_ux = 0.12;
      params.init.drift_uy = 0.07;
      params.validate.checkpoint_every = 10;
      clean_jobs.push_back(
          {std::string("clean/") + sfc::curve_kind_name(curve) + "/" + policy,
           params});
    }
  }
  const auto clean_report = bench::run_sweep_jobs(clean_jobs, sf);

  std::vector<sweep::Job> crash_jobs;
  for (std::size_t c = 0; c < clean_jobs.size(); ++c) {
    const auto& params = clean_jobs[c].params;
    const auto& clean = clean_report.outcomes[c].result;
    const double T = clean.total_seconds;
    for (const auto& sc : scenarios) {
      auto p = params;
      if (sc.mid_redist) {
        p.faults.crash_schedule = {
            {*ranks / 2, mid_redistribution_time(clean)}};
      } else if (sc.ncrashes == 1) {
        p.faults.crash_schedule = {{*ranks / 3, 0.45 * T}};
      } else {
        p.faults.crash_schedule = {{*ranks / 3, 0.3 * T},
                                   {2 * *ranks / 3, 0.6 * T}};
      }
      crash_jobs.push_back(
          {std::string(sc.label) + "/" + sfc::curve_kind_name(p.curve) +
               "/" + p.policy,
           p});
    }
  }
  const auto crash_report = bench::run_sweep_jobs(crash_jobs, sf);

  std::size_t crash_row = 0;
  for (std::size_t c = 0; c < clean_jobs.size(); ++c) {
    const auto curve = clean_jobs[c].params.curve;
    const auto& policy = clean_jobs[c].params.policy;
    const double T = clean_report.outcomes[c].result.total_seconds;
    for (const auto& sc : scenarios) {
      const auto& r = crash_report.outcomes[crash_row++].result;
      const double recovered_frac =
          r.crash_lost_particles
              ? static_cast<double>(r.crash_restored_particles) /
                    static_cast<double>(r.crash_lost_particles)
              : 1.0;
      ctable.row()
          .add(sc.label)
          .add(sfc::curve_kind_name(curve))
          .add(policy)
          .add(r.crash_count)
          .add(r.crash_recoveries)
          .add(r.mttr_seconds_total, 3)
          .add(recovered_frac, 3)
          .add(r.final_imbalance, 2)
          .add(r.total_seconds, 2)
          .add(T, 2);
      csv << sc.label << ',' << sfc::curve_kind_name(curve) << ','
          << policy << ',' << *ranks << ',' << r.crash_count << ','
          << r.crash_recoveries << ',' << r.mttr_seconds_total << ','
          << r.crash_lost_particles << ',' << r.crash_restored_particles
          << ',' << recovered_frac << ',' << r.final_particles << ','
          << r.initial_particles << ',' << r.final_imbalance << ','
          << r.final_ranks << ',' << r.total_seconds << ',' << T << '\n';
      std::cout << "." << std::flush;
    }
  }
  std::cout << '\n';
  ctable.print(std::cout);
  std::cout << "\nExpected: every scenario completes on the survivor group "
               "with recovered = 1.000 (all checkpointed particles restored), "
               "MTTR dominated by the detection lease plus one restore-and-"
               "redistribute, and post-recovery imbalance pulled back toward "
               "1 by the next redistribution.\n";

  if (!csv_path->empty()) {
    std::ofstream f(*csv_path, std::ios::trunc);
    if (!f) {
      std::cerr << "cannot write " << *csv_path << '\n';
      return 1;
    }
    f << csv.str();
    std::cout << "\ncrash-scenario CSV written to " << *csv_path << '\n';
  }
  return 0;
}
