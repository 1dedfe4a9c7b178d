// Fault tolerance end to end: an epoch where a tenth of the network
// crashes mid-protocol. Cluster heads die and their members fail over
// or recover with a fresh share round; reporters whose tree parent
// went silent reroute to a backup; the base station closes the epoch
// with whatever survived — and, crucially, never mistakes the churn
// for tampering (zero value-tamper rejections).
#include <cstdio>

#include "core/icpda.h"
#include "crypto/keyring.h"
#include "net/network.h"

int main() {
  using namespace icpda;

  constexpr std::size_t kNodes = 400;
  const crypto::MasterPairwiseScheme keys{crypto::Key::from_seed(0xFA117)};

  core::FaultPlan faults;
  faults.crash_probability = 0.10;       // each sensor dies with p = 0.1 ...
  faults.crash_window_s = 5.0;           // ... somewhere in the epoch's hot window
  faults.crash_at_s[217] = 1.2;          // plus one hand-picked mid-Phase-II death
  faults.outages[42] = {{0.3, 2.8}};     // and one reboot (down at 0.3 s, up at 2.8 s)

  net::NetworkConfig net_cfg;
  net_cfg.node_count = kNodes;
  net_cfg.seed = 41;
  net::Network network(net_cfg);

  core::IcpdaConfig cfg;
  // Healing costs time: an exhausted MAC retry ladder (~0.8 s) is how a
  // reporter learns its parent died, then reroute backoff and watchdog
  // rehands follow. Budget extra close slack so healed reports land.
  cfg.timing.close_slack_s = 2.5;

  std::printf("== epoch with 10%% random crashes (N = %zu) ==\n", kNodes);
  const auto out = core::run_icpda_epoch(network, cfg, proto::constant_reading(1.0),
                                         keys, faults);

  std::printf("nodes crashed:        %u (base station exempt)\n", out.nodes_crashed);
  std::printf("epoch %s (%u significant alarms)\n",
              out.accepted() ? "ACCEPTED" : "REJECTED — crash mistaken for attack!",
              out.significant_alarms);
  if (out.result) {
    std::printf("aggregate:            count %.0f, mean %.3f (true mean 1.000)\n",
                out.result->count, out.result->sum / out.result->count);
  }
  std::printf("coverage:             %.1f%% of surviving sensors\n", out.coverage * 100.0);
  std::printf("values lost:          %u\n", out.values_lost);
  std::printf("parent reroutes:      %u\n", out.reroutes);

  const auto& m = network.metrics();
  std::printf("\n-- degradation machinery --\n");
  std::printf("head failovers:       %llu (silent head -> member became lone head)\n",
              static_cast<unsigned long long>(m.counter("icpda.head_failover")));
  std::printf("phase II recoveries:  %llu rounds, %llu clusters re-solved\n",
              static_cast<unsigned long long>(m.counter("icpda.phase2_recovery")),
              static_cast<unsigned long long>(m.counter("icpda.cluster_recovered")));
  std::printf("backup reports:       %llu (witness reported for a dead head)\n",
              static_cast<unsigned long long>(m.counter("icpda.backup_report")));
  std::printf("digests missed:       %llu members unclustered by a dead head\n",
              static_cast<unsigned long long>(m.counter("icpda.digest_missed")));
  std::printf("doomed frames purged: %llu (queued to a dead neighbour)\n",
              static_cast<unsigned long long>(m.counter("mac.purged")));
  return 0;
}
