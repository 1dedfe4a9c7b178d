// Fault injection: scheduled node crashes and transient outages.
//
// A FaultPlan is the benign-failure sibling of AdversaryPlan: it describes
// which nodes die (or blink) during an epoch and when, without any
// malice. The distinction matters for the paper's integrity argument —
// the base station must reject tampered epochs while tolerating crashed
// cluster heads and tree parents, so benign churn must never convert
// into value-tamper alarms.
//
// Three fault sources compose (a node crashes at the earliest one that
// applies to it):
//   * `crash_at_s`      — explicit per-node crash times (tests, demos),
//   * `crash_probability` — per-epoch Bernoulli crash per node, with
//     the crash instant uniform in [0, crash_window_s),
//   * `outages`         — transient down/up intervals (reboots).
// The base station (node 0) is exempt from all of them.
#pragma once

#include <cstdint>
#include <map>
#include <vector>

#include "net/network.h"
#include "sim/rng.h"

namespace icpda::core {

struct FaultPlan {
  struct Outage {
    double down_at_s = 0.0;
    double up_at_s = 0.0;  ///< must be > down_at_s to have any effect
  };

  /// Explicit permanent crashes: node -> crash time (seconds).
  std::map<net::NodeId, double> crash_at_s;

  /// Per-epoch Bernoulli crash probability per (non-BS) node.
  double crash_probability = 0.0;
  /// Random crash times are drawn uniform in [0, crash_window_s). The
  /// default covers query flood, both cluster phases and the start of
  /// the report schedule — the window where a death actually hurts.
  double crash_window_s = 5.0;

  /// Transient outages: node -> down/up intervals (seconds).
  std::map<net::NodeId, std::vector<Outage>> outages;

  [[nodiscard]] bool active() const {
    return crash_probability > 0.0 || !crash_at_s.empty() || !outages.empty();
  }
};

/// Materialize `plan` onto `net`: draws the Bernoulli crashes from
/// `rng` and schedules every down/up transition on the network's
/// scheduler (must be called before the scheduler runs the epoch).
/// Returns the number of permanent crashes scheduled. Node 0 is
/// skipped entirely. When `crashed_out` is given, the permanently
/// crashed node ids are appended to it — resolve_compromised()
/// subtracts them so crashed-and-compromised resolves to crashed.
std::uint32_t schedule_fault_plan(net::Network& net, const FaultPlan& plan,
                                  sim::Rng rng,
                                  std::vector<net::NodeId>* crashed_out = nullptr);

}  // namespace icpda::core
