#include "core/adversary.h"

namespace icpda::core {

const char* attack_class_name(AttackClass c) {
  switch (c) {
    case AttackClass::kNone:
      return "none";
    case AttackClass::kDisclosure:
      return "disclosure";
    case AttackClass::kPollution:
      return "pollution";
    case AttackClass::kReplay:
      return "replay";
    case AttackClass::kWithhold:
      return "withhold";
    case AttackClass::kTamper:
      return "tamper";
  }
  return "?";
}

std::uint32_t resolve_compromised(const net::Network& net, const AdversaryPlan& plan,
                                  const std::vector<net::NodeId>& crashed,
                                  sim::Rng rng, AdversaryState& state) {
  state.nodes.clear();
  if (!plan.active()) return 0;
  for (net::NodeId id = 1; id < net.size(); ++id) {
    // Draw the Bernoulli unconditionally so the stream never depends on
    // the explicit set (same fraction + seed -> same random cohort).
    const bool drawn = plan.compromise_fraction > 0.0 &&
                       rng.bernoulli(plan.compromise_fraction);
    if (plan.marks(id) || drawn) state.nodes.insert(id);
  }
  // Crashed-first: a node that is both crashed and compromised resolves
  // to crashed — dead nodes run no attack code.
  for (const net::NodeId id : crashed) state.nodes.erase(id);
  return static_cast<std::uint32_t>(state.nodes.size());
}

}  // namespace icpda::core
