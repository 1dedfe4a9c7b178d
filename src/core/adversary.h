// Active-adversary modelling: compromised nodes running behavioural
// attacks THROUGH the real protocol (contrast FaultPlan, which is
// benign).
//
// An AdversaryPlan marks a subset of nodes compromised and picks one
// attack class; the compromised nodes keep executing IcpdaApp but
// deviate at specific protocol actions:
//
//   kDisclosure — the Sen–Maitra algebraic attack on CPDA share
//     exchange (arXiv 1201.4532): compromised nodes grab the head
//     role, engineer rosters that isolate a single honest member, and
//     pool every share, roster and digest they see into a coalition
//     ledger. attacks::recover() then solves the pooled linear system;
//     the victim's value is disclosed exactly when at most one honest
//     member shares the cluster with the coalition.
//   kPollution — a Byzantine cluster head forges its OWN entry of the
//     digest F vector (the one slot no member endorses), calibrated
//     through the Lagrange weights so the interpolated cluster sum
//     shifts by exactly pollution_delta. The head then reports the
//     biased sum coherently: witnesses, watchdogs and the naive
//     endorsement checks all pass.
//   kReplay — compromised nodes capture Phase II/III frames
//     (F announcements, cluster reports) and re-inject them verbatim
//     in later epochs. The query id is constant across epochs, so an
//     unhardened receiver accepts the stale frame: a stale F corrupts
//     the head's solve, a stale report races the reporter dedupe at
//     the base station.
//   kWithhold — a compromised member sends NO shares but still
//     announces its assembled F (proof of life), so the m×m
//     Vandermonde solve starves: contributor lists diverge, and the
//     unhardened Phase II recovery re-admits the starver — a
//     repeatable cluster DoS.
//   kTamper — the paper's naive polluter: a compromised aggregator
//     adds pollution_delta to the Phase III reports it originates
//     (inflating one concrete item and the total) or relays. Nothing
//     is forged upstream of the report, so cluster witnesses and the
//     parent watchdog catch it with the baseline protocol.
//
// The protocol-side countermeasures live in core::HardeningConfig
// (config.h) and are all off by default: the benign path is
// byte-identical with the adversary layer absent (golden trace).
#pragma once

#include <cstdint>
#include <map>
#include <unordered_set>
#include <utility>
#include <vector>

#include "net/network.h"
#include "net/packet.h"
#include "proto/aggregate.h"
#include "sim/rng.h"

namespace icpda::core {

enum class AttackClass : std::uint8_t {
  kNone = 0,
  kDisclosure,  ///< Sen–Maitra algebraic disclosure on share exchange
  kPollution,   ///< colluding-CH biased digest entry
  kReplay,      ///< cross-epoch replay of captured Phase II/III frames
  kWithhold,    ///< share withholding (Vandermonde-solve DoS)
  kTamper,      ///< Phase III report tamper (originated or relayed)
};

[[nodiscard]] const char* attack_class_name(AttackClass c);

/// Which nodes are compromised and how they behave. Mirrors FaultPlan:
/// an explicit set plus a Bernoulli fraction, materialized per epoch by
/// resolve_compromised(). The base station is never compromised.
struct AdversaryPlan {
  AttackClass attack = AttackClass::kNone;

  /// Explicitly compromised nodes (tests, pinned scenarios).
  std::unordered_set<net::NodeId> compromised;
  /// Per-node Bernoulli compromise probability (benchmark sweeps).
  double compromise_fraction = 0.0;

  /// Disclosure, pollution and tamper nodes grab the aggregator role
  /// instead of drawing pc (a compromised node is not bound by honest
  /// coin flips); withholders avoid it (they starve clusters as
  /// members).
  bool force_head = true;
  /// Disclosure heads truncate their roster to the coalition plus at
  /// most one honest victim — the full-rank configuration.
  bool engineer_roster = true;
  /// Bias added to each polluting head's cluster sum (kPollution) or
  /// to each report a tamperer originates or relays (kTamper).
  double pollution_delta = 25.0;
  /// Captured frames a replaying node re-injects per epoch.
  std::size_t replay_budget = 12;

  [[nodiscard]] bool marks(net::NodeId id) const { return compromised.contains(id); }
  [[nodiscard]] bool active() const {
    return attack != AttackClass::kNone &&
           (!compromised.empty() || compromise_fraction > 0.0);
  }
};

/// Mutable cross-epoch adversary state, owned by the epoch driver (one
/// per scenario, shared by all compromised apps of one Network — the
/// simulation is single-threaded per cell). Holds the resolved
/// compromised set, the disclosure coalition's pooled observations and
/// the replay capture store.
struct AdversaryState {
  /// Compromised set after crashed-first resolution (see
  /// resolve_compromised); re-materialized every epoch.
  std::unordered_set<net::NodeId> nodes;
  [[nodiscard]] bool is_compromised(net::NodeId id) const {
    return nodes.contains(id);
  }

  /// Epoch index, bumped by run_icpda_epoch before apps attach (first
  /// epoch = 1). Keys the coalition ledger and the capture store.
  std::uint32_t epoch = 0;

  // ---- Coalition ledger (kDisclosure) -------------------------------
  /// Everything the coalition observed about one cluster: the public
  /// roster/seeds, the shares its members received, and the head's
  /// published digest. attacks::view_from_observation() adapts this to
  /// the Sen–Maitra linear system.
  struct ClusterObservation {
    std::vector<std::uint32_t> members;  ///< roster order
    std::vector<std::uint32_t> seeds;    ///< roster order
    /// share p_sender(x_recipient) received by a compromised member,
    /// keyed (recipient, sender).
    std::map<std::pair<net::NodeId, net::NodeId>, proto::Aggregate> shares;
    std::vector<proto::Aggregate> f_values;  ///< digest, roster order
    bool digest_seen = false;
  };
  /// Keyed (epoch, head): recovery rosters overwrite their epoch's
  /// entry, epochs never collide.
  std::map<std::pair<std::uint32_t, net::NodeId>, ClusterObservation> clusters;

  // ---- Replay capture store (kReplay) -------------------------------
  struct CapturedFrame {
    net::NodeId capturer = net::kNoNode;
    std::uint32_t epoch = 0;  ///< epoch the frame was captured in
    net::FrameType type = 0;
    net::NodeId dst = net::kNoNode;  ///< kBroadcast for broadcasts
    net::Bytes payload;
  };
  std::vector<CapturedFrame> captured;
  /// Global cap on stored frames, plus a per-node per-epoch cap so one
  /// chatty neighbourhood cannot evict everyone else's captures.
  static constexpr std::size_t kCaptureCap = 4096;
  static constexpr std::uint32_t kCapturePerNode = 32;
  std::map<std::pair<std::uint32_t, net::NodeId>, std::uint32_t> capture_counts;

  // ---- Attack-side tallies (what the adversary actually did) --------
  std::uint32_t replays_injected = 0;
  std::uint32_t shares_withheld = 0;
  std::uint32_t digests_forged = 0;
  std::uint32_t rosters_engineered = 0;
};

/// Materialize `plan` for one epoch: the explicit set union a Bernoulli
/// draw per non-BS node, MINUS every node in `crashed` — the
/// crashed-first rule: a node that is both crashed and compromised is
/// crashed (dead nodes run no attack code), deterministically.
/// Returns the resolved compromised count.
std::uint32_t resolve_compromised(const net::Network& net, const AdversaryPlan& plan,
                                  const std::vector<net::NodeId>& crashed,
                                  sim::Rng rng, AdversaryState& state);

}  // namespace icpda::core
