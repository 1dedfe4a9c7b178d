// Trace-driven conservation invariants: the tracer's per-phase byte
// accounting must reconcile *exactly* with the MetricRegistry, and the
// span stream must stay balanced — including across epochs and on
// fault-injection crash paths.
//
// kTxBytes events are recorded at the same call site, with the same
// value, as the channel.tx_bytes metric, so the per-epoch sums equal
// the registry total by construction; this test is the tripwire that
// keeps future instrumentation honest.
#include <gtest/gtest.h>

#include <cstdint>
#include <vector>

#include "analysis/trace_report.h"
#include "core/faults.h"
#include "core/icpda.h"
#include "crypto/keyring.h"
#include "net/network.h"
#include "sim/trace.h"

namespace icpda::core {
namespace {

crypto::MasterPairwiseScheme master_keys() {
  return crypto::MasterPairwiseScheme{crypto::Key::from_seed(0x7357)};
}

/// A connected mid-size deployment: default field shrunk so 60 nodes
/// at 50 m range form one component.
net::NetworkConfig dense_network(std::size_t n, std::uint64_t seed) {
  net::NetworkConfig cfg;
  cfg.node_count = n;
  cfg.field_width_m = 150.0;
  cfg.field_height_m = 150.0;
  cfg.seed = seed;
  return cfg;
}

/// Sender-side accounting only: every kTxBytes event must survive ring
/// wrap for exact reconciliation (receiver-side events dominate volume
/// and would evict them).
sim::Tracer::Config tx_only_trace() {
  sim::Tracer::Config cfg;
  cfg.rx_events = false;
  cfg.mac_events = false;
  return cfg;
}

struct SpanBalance {
  std::uint64_t begins = 0;
  std::uint64_t ends = 0;
  std::uint64_t interrupted = 0;
  std::uint64_t finalized = 0;
};

SpanBalance balance_of(const std::vector<sim::TraceEvent>& events) {
  SpanBalance b;
  for (const sim::TraceEvent& ev : events) {
    if (ev.kind == sim::TraceEvent::Kind::kBegin) ++b.begins;
    if (ev.kind == sim::TraceEvent::Kind::kEnd) {
      ++b.ends;
      if (ev.value == sim::kSpanEndInterrupted) ++b.interrupted;
      if (ev.value == sim::kSpanEndFinalized) ++b.finalized;
    }
  }
  return b;
}

// ---------------------------------------------------------------------
// Clean run, two epochs on one network: per-epoch traced tx bytes must
// sum to the registry's cumulative channel.tx_bytes, exactly.

TEST(TraceConservationTest, TwoEpochTxBytesMatchRegistryExactly) {
  net::Network network(dense_network(60, 42));
  ASSERT_TRUE(network.topology().connected());
  network.enable_trace(tx_only_trace());
  const auto keys = master_keys();
  const IcpdaConfig cfg;

  run_icpda_epoch(network, cfg, proto::constant_reading(1.0), keys);
  const std::uint64_t after_epoch0 = network.metrics().counter("channel.tx_bytes");
  run_icpda_epoch(network, cfg, proto::constant_reading(1.0), keys);
  const std::uint64_t total = network.metrics().counter("channel.tx_bytes");
  ASSERT_GT(after_epoch0, 0u);
  ASSERT_GT(total, after_epoch0);

  ASSERT_EQ(network.tracer().dropped(), 0u)
      << "ring overflow would make the reconciliation meaningless";
  ASSERT_EQ(network.tracer().epoch(), 2u);

  const auto report = analysis::fold_trace(network.tracer().merged());
  EXPECT_EQ(report.epoch_tx_bytes(0), after_epoch0);
  EXPECT_EQ(report.epoch_tx_bytes(1), total - after_epoch0);
  EXPECT_EQ(report.epoch_tx_bytes(0) + report.epoch_tx_bytes(1), total);
  EXPECT_EQ(report.unmatched_ends, 0u);
}

TEST(TraceConservationTest, SpansBalanceOnCleanRun) {
  net::Network network(dense_network(60, 43));
  ASSERT_TRUE(network.topology().connected());
  network.enable_trace(tx_only_trace());
  const auto keys = master_keys();
  run_icpda_epoch(network, IcpdaConfig{}, proto::constant_reading(1.0), keys);

  ASSERT_EQ(network.tracer().dropped(), 0u);
  const auto events = network.tracer().merged();
  const SpanBalance b = balance_of(events);
  EXPECT_GT(b.begins, 0u);
  EXPECT_EQ(b.begins, b.ends);
  EXPECT_EQ(analysis::fold_trace(events).unmatched_ends, 0u);
}

// ---------------------------------------------------------------------
// Fault injection: crashes mid-phase must not break either invariant.
// The crash path closes the victim's spans with kSpanEndInterrupted
// (Network::set_node_down -> Tracer::interrupt), and a down node's
// purged MAC traffic was already on-air-accounted or never counted —
// the registry and the trace move in lockstep either way.

TEST(TraceConservationTest, SpansBalanceAndBytesConserveUnderCrashes) {
  net::Network network(dense_network(60, 44));
  ASSERT_TRUE(network.topology().connected());
  network.enable_trace(tx_only_trace());
  const auto keys = master_keys();
  const IcpdaConfig cfg;

  // Crash a swath of nodes at staggered times: some die during cluster
  // formation, some mid share exchange, some during the report phase.
  FaultPlan faults;
  faults.crash_at_s = {{3, 0.5}, {7, 1.5}, {11, 2.5}, {13, 4.0},
                       {17, 6.0}, {19, 8.0}, {23, 10.0}};
  run_icpda_epoch(network, cfg, proto::constant_reading(1.0), keys, faults);

  ASSERT_EQ(network.tracer().dropped(), 0u);
  const auto events = network.tracer().merged();
  const SpanBalance b = balance_of(events);
  EXPECT_EQ(b.begins, b.ends) << "crash paths must close every open span";
  EXPECT_GT(b.interrupted + b.finalized, 0u);

  const auto report = analysis::fold_trace(events);
  EXPECT_EQ(report.unmatched_ends, 0u);
  EXPECT_EQ(report.epoch_tx_bytes(0),
            network.metrics().counter("channel.tx_bytes"));
}

TEST(TraceConservationTest, RandomCrashSweepKeepsInvariants) {
  const auto keys = master_keys();
  for (std::uint64_t seed = 100; seed < 104; ++seed) {
    net::Network network(dense_network(50, seed));
    if (!network.topology().connected()) continue;
    network.enable_trace(tx_only_trace());
    FaultPlan faults;
    faults.crash_probability = 0.15;  // Bernoulli per node, random times
    run_icpda_epoch(network, IcpdaConfig{}, proto::constant_reading(1.0), keys, faults);

    ASSERT_EQ(network.tracer().dropped(), 0u) << "seed " << seed;
    const auto events = network.tracer().merged();
    const SpanBalance b = balance_of(events);
    EXPECT_EQ(b.begins, b.ends) << "seed " << seed;
    const auto report = analysis::fold_trace(events);
    EXPECT_EQ(report.unmatched_ends, 0u) << "seed " << seed;
    EXPECT_EQ(report.epoch_tx_bytes(0),
              network.metrics().counter("channel.tx_bytes"))
        << "seed " << seed;
  }
}

}  // namespace
}  // namespace icpda::core
