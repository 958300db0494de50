// Section 4 validation: compare the paper's closed-form per-iteration
// bounds against the simulated machine's measured iteration times.
//
// Expected: measured aligned iterations (right after a redistribution)
// land between the aligned estimate and the worst-case upper bound; the
// static policy's late iterations approach (but never exceed) the bound.
#include "common.hpp"

#include "pic/model.hpp"
#include "pic/simulation.hpp"

using namespace picpar;

int main(int argc, char** argv) {
  Cli cli("bench_section4_model",
          "Section 4: analytic phase bounds vs simulation");
  auto ranks = cli.flag<int>("ranks", 32, "simulated processors");
  const auto scale = bench::parse_scale(cli, argc, argv);
  const int iters = scale.full ? 600 : 200;

  bench::print_header("Section 4 — analytic model vs simulated machine",
                      "irregular, mesh=128x64, particles=32768, p=" +
                          std::to_string(*ranks));

  auto params = bench::paper_params("irregular_beam", 128, 64,
                                    scale.particles(32768), *ranks);
  params.iterations = iters;

  const auto in = pic::model_inputs(params);
  const auto bound = pic::phase_bounds(in);
  const auto aligned = pic::aligned_phase_estimate(in);

  Table model({"phase", "aligned estimate (s)", "worst-case bound (s)"});
  model.set_title("Analytic per-iteration model");
  model.row().add("scatter").add(aligned.scatter, 4).add(bound.scatter, 4);
  model.row().add("field solve").add(aligned.field_solve, 4).add(bound.field_solve, 4);
  model.row().add("gather").add(aligned.gather, 4).add(bound.gather, 4);
  model.row().add("push").add(aligned.push, 4).add(bound.push, 4);
  model.row().add("iteration").add(aligned.iteration(), 4).add(bound.iteration(), 4);
  model.print(std::cout);

  Table meas({"policy", "first iter (s)", "median iter (s)", "last iter (s)",
              "within bound"});
  meas.set_title("Measured per-iteration times");
  for (const std::string& policy : {std::string("sar"), std::string("static")}) {
    auto p = params;
    p.policy = policy;
    const auto r = pic::run_pic(p);
    std::vector<double> times;
    for (const auto& it : r.iters)
      if (!it.redistributed) times.push_back(it.exec_seconds);
    std::sort(times.begin(), times.end());
    const double first = r.iters.front().exec_seconds;
    const double median = times[times.size() / 2];
    const double last = times.back();
    meas.row()
        .add(policy)
        .add(first, 4)
        .add(median, 4)
        .add(last, 4)
        .add(last <= bound.iteration() * 1.05 ? "yes" : "NO");
    std::cout << "." << std::flush;
  }
  std::cout << '\n';
  meas.print(std::cout);
  std::cout << "\nExpected: aligned estimate <= measured <= worst-case bound "
               "(the bound assumes every rank talks to all p-1 others).\n";
  return 0;
}
