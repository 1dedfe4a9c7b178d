// Reproduction for the multi-epoch defects recorded in
// perfbench/NOTES.md: runs several benign epochs back to back on ONE
// Network (constant paper density) and prints, per epoch, the events
// it executed, the events still pending when it returned, and the
// aggregated count against the live sensors.
//
//   perfbench_repro --nodes N [--epochs E] [--seed X]
//
// The benchmark itself never does this: every measured epoch runs on a
// freshly built Network.
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>

#include "bench/bench_util.h"
#include "core/icpda.h"
#include "net/network.h"

int main(int argc, char** argv) {
  using namespace icpda;
  unsigned long long nodes = 1000, epochs = 2, seed = 1;
  for (int i = 1; i + 1 < argc; i += 2) {
    const unsigned long long v = std::strtoull(argv[i + 1], nullptr, 10);
    if (std::strcmp(argv[i], "--nodes") == 0) {
      nodes = v;
    } else if (std::strcmp(argv[i], "--epochs") == 0) {
      epochs = v;
    } else if (std::strcmp(argv[i], "--seed") == 0) {
      seed = v;
    } else {
      std::fprintf(stderr, "usage: %s --nodes N [--epochs E] [--seed X]\n",
                   argv[0]);
      return 2;
    }
  }
  if (nodes < 2) return 2;

  net::NetworkConfig cfg;
  cfg.node_count = nodes;
  const double side = 20.0 * std::sqrt(static_cast<double>(nodes));
  cfg.field_width_m = side;
  cfg.field_height_m = side;
  cfg.seed = seed;
  net::Network network(cfg);
  const auto keys = bench::default_keys();

  for (unsigned long long e = 1; e <= epochs; ++e) {
    const std::uint64_t before = network.executed_events();
    const core::IcpdaOutcome out = core::run_icpda_epoch(
        network, core::IcpdaConfig{}, proto::constant_reading(1.0), keys);
    const std::size_t pending = network.scheduler().pending();
    std::printf(
        "{\"epoch\": %llu, \"events\": %llu, \"pending_after\": %zu, "
        "\"count\": %.17g, \"live_sensors\": %zu, \"coverage\": %.17g, "
        "\"accepted\": %s}\n",
        e, static_cast<unsigned long long>(network.executed_events() - before),
        pending, out.result ? out.result->count : 0.0, network.live_count() - 1,
        out.coverage, out.accepted() ? "true" : "false");
    std::fflush(stdout);
  }
  return 0;
}
