// F6 [reconstructed] — capacity of detecting data pollution:
// (a) detection rate vs pollution magnitude (one compromised
//     aggregator grabbing a head role per epoch),
// (b) honest-run false-rejection rate (the Th trade-off),
// at N = 400, across Monte-Carlo epochs.
#include <cstdio>

#include "bench/bench_util.h"
#include "core/icpda.h"
#include "sim/metrics.h"

int main() {
  using namespace icpda;
  const auto keys = bench::default_keys();
  const int trials = 3 * bench::trials();

  bench::print_header(
      "F6a: pollution detection vs injected delta (N=400, single polluter-head)",
      "delta\tepochs\tpolluted\tdetected\tdetection_rate\tdrop_suspicions");
  const double deltas[] = {2.0, 10.0, 50.0, 200.0, 1000.0};
  std::size_t row = 0;
  for (const double delta : deltas) {
    int polluted = 0;
    int detected = 0;
    sim::RunningStats drops;
    for (int t = 0; t < trials; ++t) {
      net::Network network(bench::paper_network(
          400, bench::run_seed(bench::Experiment::kIntegrityDetection, row, static_cast<std::uint64_t>(t))));
      core::IcpdaConfig cfg;
      core::AdversaryPlan attack;
      attack.attack = core::AttackClass::kTamper;
      attack.compromised.insert(50 + static_cast<net::NodeId>(t * 13 % 300));
      attack.pollution_delta = delta;
      core::AdversaryState adv;
      const auto out = core::run_icpda_epoch(network, cfg, proto::constant_reading(1.0),
                                             keys, attack, adv);
      if (out.pollution_events > 0) {
        ++polluted;
        if (!out.accepted()) ++detected;
      }
      drops.add(out.drop_suspicions);
    }
    std::printf("%.0f\t%d\t%d\t%d\t%.2f\t%.2f\n", delta, trials, polluted, detected,
                polluted ? static_cast<double>(detected) / polluted : 0.0, drops.mean());
    ++row;
  }

  bench::print_header("F6b: honest-run epoch outcomes (false-rejection rate)",
                      "N\tepochs\trejected\tfalse_rejection_rate\tdrop_suspicions");
  for (const std::size_t n : {300u, 400u, 500u}) {
    int rejected = 0;
    sim::RunningStats drops;
    for (int t = 0; t < trials; ++t) {
      net::Network network(bench::paper_network(
          n, bench::run_seed(bench::Experiment::kIntegrityFalseAlarm, n, static_cast<std::uint64_t>(t))));
      core::IcpdaConfig cfg;
      const auto out =
          core::run_icpda_epoch(network, cfg, proto::constant_reading(1.0), keys);
      if (!out.accepted()) ++rejected;
      drops.add(out.drop_suspicions);
    }
    std::printf("%zu\t%d\t%d\t%.3f\t%.2f\n", n, trials, rejected,
                static_cast<double>(rejected) / trials, drops.mean());
  }
  return 0;
}
