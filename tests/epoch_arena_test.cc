// Epoch-arena reuse invariants for the SoA ClusterContext and the
// protocol on top of it.
//
// set_roster() resets per-epoch arenas in place (capacity preserved)
// instead of handing out a fresh heap object per epoch/recovery round.
// These tests pin the contract that reuse is invisible: a warm context
// must be observably identical to a freshly constructed one after any
// roster install, including the recovery-narrowing path, and a network
// driven through consecutive epochs (with a mid-epoch member outage
// forcing a Phase II recovery reset) must produce results, counters and
// a balanced trace-span stream identical to an independent fresh run.
#include <gtest/gtest.h>

#include <cstdint>
#include <functional>
#include <map>
#include <string>
#include <utility>
#include <vector>

#include "analysis/trace_report.h"
#include "core/cluster.h"
#include "core/faults.h"
#include "core/icpda.h"
#include "crypto/keyring.h"
#include "net/network.h"
#include "sim/rng.h"
#include "sim/trace.h"

namespace icpda::core {
namespace {

proto::Aggregate triple(double c, double s, double q) {
  proto::Aggregate a;
  a.count = c;
  a.sum = s;
  a.sum_sq = q;
  return a;
}

/// Every observable the protocol reads off a ClusterContext.
void expect_same_observables(const ClusterContext& a, const ClusterContext& b) {
  ASSERT_EQ(a.has_roster(), b.has_roster());
  EXPECT_EQ(a.head(), b.head());
  ASSERT_EQ(a.members(), b.members());
  EXPECT_EQ(a.seed_ints(), b.seed_ints());
  EXPECT_EQ(a.seed_values(), b.seed_values());
  EXPECT_EQ(a.my_index(), b.my_index());
  EXPECT_EQ(a.shares_received(), b.shares_received());
  EXPECT_EQ(a.announces_received(), b.announces_received());
  EXPECT_EQ(a.complete(), b.complete());
  EXPECT_EQ(a.consistent(), b.consistent());
  EXPECT_EQ(a.contributor_set(), b.contributor_set());
  EXPECT_EQ(a.announced_f_values(), b.announced_f_values());

  std::vector<std::uint32_t> contribs_a;
  std::vector<std::uint32_t> contribs_b;
  const auto f_a = a.assemble(contribs_a);
  const auto f_b = b.assemble(contribs_b);
  EXPECT_EQ(contribs_a, contribs_b);
  EXPECT_EQ(f_a, f_b);

  const auto v_a = a.solve();
  const auto v_b = b.solve();
  ASSERT_EQ(v_a.has_value(), v_b.has_value());
  if (v_a) {
    EXPECT_EQ(*v_a, *v_b);
  }

  for (const std::uint32_t member : a.members()) {
    EXPECT_EQ(a.in_roster(member), b.in_roster(member));
    EXPECT_EQ(a.seed_of(member), b.seed_of(member));
    EXPECT_EQ(a.announced(member), b.announced(member));
    EXPECT_EQ(a.included_by(member), b.included_by(member));
  }
}

/// One randomized epoch's worth of context traffic, derived entirely
/// from `rng` so the identical script can be replayed into a warm and
/// a fresh context.
void run_random_epoch(ClusterContext& ctx, sim::Rng rng) {
  const std::size_t m = 3 + rng() % 5;
  std::vector<std::uint32_t> members(m);
  std::vector<std::uint32_t> seeds(m);
  for (std::size_t i = 0; i < m; ++i) {
    members[i] = 10 + static_cast<std::uint32_t>(i) * 7;
    seeds[i] = static_cast<std::uint32_t>(i) + 1;
  }
  const std::uint32_t self = members[rng() % m];
  ASSERT_TRUE(ctx.set_roster(members[0], members, seeds, self));

  if (rng() % 4 != 0) {
    ctx.set_kept_share(triple(1.0, rng.uniform(-9.0, 9.0), rng.uniform(0.0, 9.0)));
  }
  const std::size_t share_events = rng() % (2 * m);
  for (std::size_t i = 0; i < share_events; ++i) {
    // Mostly roster members (repeats overwrite), occasionally an
    // out-of-roster sender that must be ignored.
    const std::uint32_t sender = rng() % 8 == 0 ? 999 : members[rng() % m];
    ctx.record_share(sender, triple(1.0, rng.uniform(-5.0, 5.0), 1.0));
  }
  const std::size_t announce_events = rng() % (m + 2);
  for (std::size_t i = 0; i < announce_events; ++i) {
    const std::uint32_t who = rng() % 8 == 0 ? 999 : members[rng() % m];
    std::vector<std::uint32_t> contribs;
    for (const std::uint32_t member : members) {
      if (rng() % 3 != 0) contribs.push_back(member);
    }
    ctx.record_announce(who, triple(1.0, rng.uniform(-5.0, 5.0), 1.0), contribs);
  }
}

// ---------------------------------------------------------------------
// A context reused across many randomized epochs must stay observably
// identical to a context constructed fresh for the same script.

TEST(EpochArenaTest, ReusedContextMatchesFreshAcrossRandomEpochs) {
  sim::Rng seeder(0xA12E7A);
  ClusterContext warm;
  for (int epoch = 0; epoch < 60; ++epoch) {
    const std::uint64_t script_seed = seeder();
    run_random_epoch(warm, sim::Rng(script_seed));
    ClusterContext fresh;
    run_random_epoch(fresh, sim::Rng(script_seed));
    expect_same_observables(warm, fresh);
  }
}

// ---------------------------------------------------------------------
// The recovery path installs a *narrower* roster into the same context
// (smaller arenas than the round-0 ones it overwrites) — nothing from
// round 0 may survive: no share/announce counts, no kept share, no
// evicted member's state.

TEST(EpochArenaTest, RecoveryNarrowingLeavesNoRoundZeroState) {
  ClusterContext ctx;
  const std::vector<std::uint32_t> members{10, 20, 30, 40, 50, 60};
  const std::vector<std::uint32_t> seeds{1, 2, 3, 4, 5, 6};
  ASSERT_TRUE(ctx.set_roster(10, members, seeds, 20));
  ctx.set_kept_share(triple(1, 2, 3));
  for (const std::uint32_t sender : members) ctx.record_share(sender, triple(1, 1, 1));
  for (const std::uint32_t who : members) {
    ctx.record_announce(who, triple(1, 1, 1), members);
  }
  ASSERT_TRUE(ctx.complete());

  // Survivors {10, 20, 30} keep their original seeds (recovery rule).
  ASSERT_TRUE(ctx.set_roster(10, {10, 20, 30}, {1, 2, 3}, 20));
  EXPECT_EQ(ctx.shares_received(), 0u);
  EXPECT_EQ(ctx.announces_received(), 0u);
  EXPECT_FALSE(ctx.complete());
  EXPECT_FALSE(ctx.consistent());
  EXPECT_TRUE(ctx.contributor_set().empty());
  for (const std::uint32_t member : {10u, 20u, 30u}) {
    EXPECT_FALSE(ctx.announced(member));
    EXPECT_EQ(ctx.included_by(member), 0u);
  }
  std::vector<std::uint32_t> contribs;
  const auto f = ctx.assemble(contribs);  // kept share must not survive either
  EXPECT_TRUE(contribs.empty());
  EXPECT_EQ(f, proto::Aggregate{});
  // Evicted members' traffic is now out-of-roster and ignored.
  ctx.record_share(40, triple(9, 9, 9));
  ctx.record_announce(50, triple(9, 9, 9), {10, 20, 30});
  EXPECT_EQ(ctx.shares_received(), 0u);
  EXPECT_EQ(ctx.announces_received(), 0u);

  // And the narrowed warm context matches a fresh one fed identically.
  ClusterContext fresh;
  ASSERT_TRUE(fresh.set_roster(10, {10, 20, 30}, {1, 2, 3}, 20));
  expect_same_observables(ctx, fresh);

  // A failed roster install must leave the installed state untouched.
  ASSERT_FALSE(ctx.set_roster(10, {10, 20, 30}, {1, 2, 2}, 20));  // dup seeds
  ASSERT_FALSE(ctx.set_roster(10, {10, 30}, {1, 3}, 20));         // self missing
  expect_same_observables(ctx, fresh);
}

// ---------------------------------------------------------------------
// Protocol level: three consecutive epochs on one network — the middle
// one with a member outage long enough to force the head's Phase II
// recovery reset (the in-place re-roster) — must be byte-identical to
// an independent fresh network driven through the same sequence, and
// the trace span stream must stay balanced throughout.

TEST(EpochArenaTest, ThreeEpochsWithRecoveryMatchFreshRunExactly) {
  const crypto::MasterPairwiseScheme keys{crypto::Key::from_seed(0x7357)};
  // Star around head 1: members 2..4 in range of the head (node 3 out
  // of the base station's range), pinned by pc = 0 + force_head.
  const net::Topology topo{{{0, 0}, {30, 0}, {30, 30}, {60, 0}, {30, -30}}, 50.0};
  AdversaryPlan pin_head;
  pin_head.attack = AttackClass::kTamper;
  pin_head.compromised.insert(1);
  pin_head.pollution_delta = 1e-4;
  pin_head.force_head = true;

  struct EpochResult {
    IcpdaOutcome outcome;
    std::map<std::string, std::uint64_t, std::less<>> counters;
  };
  const auto drive = [&](net::Network& network) {
    std::vector<EpochResult> out;
    AdversaryState adv;
    for (int epoch = 0; epoch < 3; ++epoch) {
      IcpdaConfig cfg;
      cfg.pc = 0.0;
      FaultPlan faults;
      if (epoch == 1) {
        // Node 4 goes dark after the roster but before its F unicast
        // and stays down past the recovery round, then comes back.
        faults.outages[4].push_back({1.0, 8.0});
      }
      EpochResult r;
      r.outcome = run_icpda_epoch(network, cfg, proto::constant_reading(1.0),
                                  keys, pin_head, adv, faults);
      r.counters = network.metrics().counters();
      out.push_back(std::move(r));
    }
    return out;
  };

  net::NetworkConfig net_cfg;
  net_cfg.node_count = 5;
  net_cfg.seed = 33;
  // Transmit-side spans only, as in TraceConservationTest: they wrap
  // every epoch boundary and cannot overflow the ring.
  sim::Tracer::Config trace_cfg;
  trace_cfg.rx_events = false;
  trace_cfg.mac_events = false;

  net::Network warm_net(topo, net_cfg);
  warm_net.enable_trace(trace_cfg);
  const auto warm = drive(warm_net);

  net::Network fresh_net(topo, net_cfg);
  fresh_net.enable_trace(trace_cfg);
  const auto fresh = drive(fresh_net);

  // The outage epoch actually exercised the recovery reset.
  EXPECT_GE(warm_net.metrics().counter("icpda.phase2_recovery"), 1u);
  EXPECT_GE(warm_net.metrics().counter("icpda.recovery_roster"), 1u);

  ASSERT_EQ(warm.size(), fresh.size());
  for (std::size_t e = 0; e < warm.size(); ++e) {
    const auto& a = warm[e].outcome;
    const auto& b = fresh[e].outcome;
    ASSERT_EQ(a.result.has_value(), b.result.has_value()) << "epoch " << e;
    if (a.result) {
      EXPECT_EQ(*a.result, *b.result) << "epoch " << e;
    }
    EXPECT_EQ(a.significant_alarms, b.significant_alarms) << "epoch " << e;
    EXPECT_EQ(a.clusters_failed, b.clusters_failed) << "epoch " << e;
    EXPECT_EQ(a.reporters, b.reporters) << "epoch " << e;
    // Cumulative counter maps (every name, every value) must agree.
    EXPECT_EQ(warm[e].counters, fresh[e].counters) << "epoch " << e;
    // Benign churn never converts into a rejection.
    EXPECT_TRUE(a.accepted()) << "epoch " << e;
  }

  // Span stream balanced and identical between the two runs.
  for (net::Network* network : {&warm_net, &fresh_net}) {
    ASSERT_EQ(network->tracer().dropped(), 0u);
    std::uint64_t begins = 0;
    std::uint64_t ends = 0;
    for (const sim::TraceEvent& ev : network->tracer().merged()) {
      if (ev.kind == sim::TraceEvent::Kind::kBegin) ++begins;
      if (ev.kind == sim::TraceEvent::Kind::kEnd) ++ends;
    }
    EXPECT_GT(begins, 0u);
    EXPECT_EQ(begins, ends);
    EXPECT_EQ(analysis::fold_trace(network->tracer().merged()).unmatched_ends, 0u);
  }
}

}  // namespace
}  // namespace icpda::core
