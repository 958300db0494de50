// Figure 18: maximum amount of data sent and received by any processor in
// the scatter phase, per iteration (irregular, 128x64, 32768 particles,
// 32 processors).
//
// Expected shape: static grows steadily; redistribution policies keep the
// maxima bounded with saw-tooth resets.
#include "common.hpp"
#include "pic/simulation.hpp"

using namespace picpar;

int main(int argc, char** argv) {
  Cli cli("bench_fig18_scatter_volume",
          "Figure 18: max scatter-phase bytes sent/received per iteration");
  auto ranks = cli.flag<int>("ranks", 32, "simulated processors");
  auto stride = cli.flag<int>("stride", 10, "print every k-th iteration");
  const auto scale = bench::parse_scale(cli, argc, argv);
  const int iters = scale.iters(2000);

  bench::print_header("Figure 18 — max scatter data volume",
                      "irregular, mesh=128x64, particles=32768, p=" +
                          std::to_string(*ranks));

  const std::uint64_t n = scale.particles(32768);
  for (const std::string& policy :
       {std::string("static"),
        "periodic:" + std::to_string(scale.full ? 50 : 10)}) {
    auto params = bench::paper_params("irregular_beam", 128, 64, n, *ranks);
    params.iterations = iters;
    params.policy = policy;
    const auto r = pic::run_pic(params);

    std::vector<double> x, sent, recv;
    for (int i = 0; i < iters; i += *stride) {
      const auto& it = r.iters[static_cast<std::size_t>(i)];
      x.push_back(i);
      sent.push_back(static_cast<double>(it.scatter_max_sent_bytes));
      recv.push_back(static_cast<double>(it.scatter_max_recv_bytes));
    }
    print_series(std::cout, "max_sent_bytes[" + policy + "]", x, sent);
    print_series(std::cout, "max_recv_bytes[" + policy + "]", x, recv);
    std::cout << '\n';
  }
  std::cout << "Expected: static volumes grow; periodic stays bounded.\n";
  return 0;
}
