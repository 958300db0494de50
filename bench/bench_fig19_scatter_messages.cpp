// Figure 19: maximum number of messages sent and received by any processor
// in the scatter phase, per iteration (irregular, 128x64, 32768 particles,
// 32 processors).
//
// Expected shape: without redistribution a processor's particle subdomain
// eventually overlaps many mesh subdomains, so its scatter message count
// climbs toward p-1; redistribution keeps it near the neighbor count.
#include "common.hpp"
#include "pic/simulation.hpp"

using namespace picpar;

int main(int argc, char** argv) {
  Cli cli("bench_fig19_scatter_messages",
          "Figure 19: max scatter-phase messages sent/received per iteration");
  auto ranks = cli.flag<int>("ranks", 32, "simulated processors");
  auto stride = cli.flag<int>("stride", 10, "print every k-th iteration");
  const auto scale = bench::parse_scale(cli, argc, argv);
  const int iters = scale.iters(2000);

  bench::print_header("Figure 19 — max scatter message count",
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
      sent.push_back(static_cast<double>(it.scatter_max_sent_msgs));
      recv.push_back(static_cast<double>(it.scatter_max_recv_msgs));
    }
    print_series(std::cout, "max_sent_msgs[" + policy + "]", x, sent);
    print_series(std::cout, "max_recv_msgs[" + policy + "]", x, recv);
    std::cout << '\n';
  }
  std::cout << "Expected: static message counts climb; periodic stays flat.\n";
  return 0;
}
