// F7 [reconstructed] — polluter localization: rounds needed to isolate
// a DoS-ing polluter by participation bisection, vs network size.
// Oracle = full simulated epochs (accept/reject at the base station).
// Expectation: rounds ~ 1.5*log2(N) (accepts are double-checked) +
// confirmation overhead.
#include <cmath>
#include <cstdio>

#include "bench/bench_util.h"
#include "core/icpda.h"
#include "core/localization.h"
#include "sim/metrics.h"

int main() {
  using namespace icpda;
  bench::print_header("F7: polluter localization rounds vs N (simulated epochs)",
                      "N\ttrials\tisolated\trounds_mean\t1.5*log2N+8");
  const auto keys = bench::default_keys();
  const int trials = std::max(2, bench::trials() / 2);
  std::size_t row = 0;
  for (const std::size_t n : {200u, 400u}) {
    int isolated = 0;
    sim::RunningStats rounds;
    for (int t = 0; t < trials; ++t) {
      const net::NodeId polluter = static_cast<net::NodeId>(1 + (t * 97) % (n - 1));
      std::uint64_t epoch_counter = 0;
      const core::EpochRunner oracle = [&](const net::Bytes& mask) {
        net::Network network(bench::paper_network(
            n, bench::run_seed(bench::Experiment::kLocalization, row, static_cast<std::uint64_t>(t) * 1000 +
                                           epoch_counter++)));
        core::IcpdaConfig cfg;
        cfg.allowed_mask = mask;
        core::AdversaryPlan attack;
        attack.attack = core::AttackClass::kTamper;
        attack.compromised.insert(polluter);
        attack.pollution_delta = 400.0;
        core::AdversaryState adv;
        const auto out = core::run_icpda_epoch(
            network, cfg, proto::constant_reading(1.0), keys, attack, adv);
        return out.accepted();
      };
      const auto result = core::localize_polluter(n, oracle, 80);
      if (result.isolated && *result.isolated == polluter) ++isolated;
      rounds.add(result.rounds);
    }
    std::printf("%zu\t%d\t%d\t%.1f\t%.1f\n", n, trials, isolated, rounds.mean(),
                1.5 * std::log2(static_cast<double>(n)) + 8.0);
    ++row;
  }
  return 0;
}
