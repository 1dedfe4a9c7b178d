// Attack detection end to end: a compromised aggregator inflates the
// total; the cluster witnesses catch it; the base station rejects the
// epoch; group testing then isolates the compromised node so it can be
// excluded (the paper's O(log N) DoS countermeasure).
#include <cstdio>

#include "core/icpda.h"
#include "core/localization.h"
#include "crypto/keyring.h"
#include "net/network.h"

int main() {
  using namespace icpda;

  constexpr std::size_t kNodes = 400;
  constexpr net::NodeId kCompromised = 217;
  const crypto::MasterPairwiseScheme keys{crypto::Key::from_seed(0xBADBEEF)};

  core::AdversaryPlan attack;
  attack.attack = core::AttackClass::kTamper;
  attack.compromised.insert(kCompromised);
  attack.pollution_delta = 300.0;  // inflate the reported total

  std::printf("== epoch with a compromised aggregator (node %u) ==\n", kCompromised);
  std::uint64_t seed = 9001;
  {
    net::NetworkConfig cfg;
    cfg.node_count = kNodes;
    cfg.seed = seed;
    net::Network network(cfg);
    core::IcpdaConfig proto_cfg;
    core::AdversaryState adv;
    const auto out = core::run_icpda_epoch(network, proto_cfg,
                                           proto::constant_reading(1.0), keys, attack, adv);
    std::printf("pollution events: %u\n", out.pollution_events);
    std::printf("epoch %s (%u significant alarms, %zu total)\n",
                out.accepted() ? "ACCEPTED — attack missed!" : "REJECTED",
                out.significant_alarms, out.alarms.size());
    for (const auto& alarm : out.alarms) {
      if (alarm.kind != proto::AlarmMsg::kValueTamper) continue;
      std::printf("  witness %u accuses %u: expected %.1f, observed %.1f\n",
                  alarm.witness, alarm.accused, alarm.expected_sum, alarm.observed_sum);
    }
  }

  std::printf("\n== isolating the polluter by participation bisection ==\n");
  std::uint64_t epoch_no = 0;
  const core::EpochRunner oracle = [&](const net::Bytes& mask) {
    net::NetworkConfig cfg;
    cfg.node_count = kNodes;
    cfg.seed = seed + (++epoch_no);
    net::Network network(cfg);
    core::IcpdaConfig proto_cfg;
    proto_cfg.allowed_mask = mask;
    core::AdversaryState adv;
    const auto out = core::run_icpda_epoch(network, proto_cfg,
                                           proto::constant_reading(1.0), keys, attack, adv);
    std::printf("  round %llu: %s\n", static_cast<unsigned long long>(epoch_no),
                out.accepted() ? "clean" : "rejected");
    return out.accepted();
  };
  const auto result = core::localize_polluter(kNodes, oracle, 120);
  if (result.isolated) {
    std::printf("isolated node %u after %u rounds (%s)\n", *result.isolated,
                result.rounds,
                *result.isolated == kCompromised ? "correct" : "WRONG");
  } else {
    std::printf("no polluter isolated after %u rounds\n", result.rounds);
  }
  return 0;
}
