// Network substrate: geometry, topology, wire format.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdlib>
#include <string>

#include "net/geometry.h"
#include "net/network.h"
#include "net/topology.h"
#include "net/wire.h"
#include "sim/rng.h"

namespace icpda::net {
namespace {

// ---- geometry -------------------------------------------------------

TEST(GeometryTest, DistanceBasics) {
  EXPECT_DOUBLE_EQ(distance({0, 0}, {3, 4}), 5.0);
  EXPECT_DOUBLE_EQ(distance_sq({1, 1}, {1, 1}), 0.0);
}

TEST(FieldTest, SamplingStaysInside) {
  const Field field(400, 400);
  sim::Rng rng(1);
  for (const auto& p : field.sample_n(rng, 1000)) {
    EXPECT_TRUE(field.contains(p));
  }
  EXPECT_EQ(field.center().x, 200);
  EXPECT_THROW(Field(0, 10), std::invalid_argument);
}

TEST(FieldTest, ExpectedDegreeFormula) {
  const Field field(400, 400);
  // (n-1) * pi * 50^2 / 160000
  EXPECT_NEAR(field.expected_degree(400, 50.0), 399 * 3.14159265 * 2500 / 160000, 0.01);
  EXPECT_DOUBLE_EQ(field.expected_degree(0, 50.0), 0.0);
}

// ---- topology -------------------------------------------------------

TEST(TopologyTest, MatchesBruteForceAdjacency) {
  sim::Rng rng(5);
  const Field field(400, 400);
  const auto pts = field.sample_n(rng, 150);
  const double r = 50.0;
  const Topology topo(pts, r);
  for (NodeId a = 0; a < pts.size(); ++a) {
    for (NodeId b = 0; b < pts.size(); ++b) {
      if (a == b) continue;
      const bool expected = distance(pts[a], pts[b]) <= r;
      EXPECT_EQ(topo.adjacent(a, b), expected) << a << "," << b;
    }
  }
}

TEST(TopologyTest, DegreeAndEdgeAccounting) {
  // Three collinear points, spacing 10, range 10: 0-1 and 1-2 adjacent.
  const Topology topo({{0, 0}, {10, 0}, {20, 0}}, 10.0);
  EXPECT_EQ(topo.degree(0), 1u);
  EXPECT_EQ(topo.degree(1), 2u);
  EXPECT_EQ(topo.edge_count(), 2u);
  EXPECT_DOUBLE_EQ(topo.average_degree(), 4.0 / 3.0);
  EXPECT_EQ(topo.min_degree(), 1u);
}

TEST(TopologyTest, ConnectivityAndHops) {
  const Topology line({{0, 0}, {10, 0}, {20, 0}, {100, 0}}, 10.0);
  EXPECT_FALSE(line.connected());
  const auto hops = line.hop_distances(0);
  EXPECT_EQ(hops[0], 0u);
  EXPECT_EQ(hops[1], 1u);
  EXPECT_EQ(hops[2], 2u);
  EXPECT_EQ(hops[3], Topology::kUnreachable);
  EXPECT_EQ(line.reachable_from(0).size(), 3u);
}

TEST(TopologyTest, RandomTopologyPlacesBaseStationAtCenter) {
  sim::Rng rng(9);
  const Field field(400, 400);
  const auto topo = make_random_topology(field, 100, 50.0, rng, true);
  EXPECT_EQ(topo.position(0).x, 200.0);
  EXPECT_EQ(topo.position(0).y, 200.0);
}

TEST(TopologyTest, PaperDensityTable) {
  // Table I of the paper family: N -> average degree on 400x400, r=50.
  // Our border-corrected uniform-deployment model tracks the published
  // values to within ~10% (the paper's own table rises slightly faster
  // than any uniform-deployment model; see EXPERIMENTS.md), and the
  // simulated deployments must track OUR model tightly.
  const Field field(400, 400);
  const struct {
    std::size_t n;
    double paper_degree;
  } rows[] = {{200, 8.8}, {300, 13.7}, {400, 18.6}, {500, 23.5}, {600, 28.4}};
  sim::Rng rng(123);
  for (const auto& row : rows) {
    double sum = 0.0;
    const int trials = 10;
    for (int t = 0; t < trials; ++t) {
      sum += make_random_topology(field, row.n, 50.0, rng, false).average_degree();
    }
    const double measured = sum / trials;
    EXPECT_NEAR(measured, row.paper_degree, 0.10 * row.paper_degree) << "N=" << row.n;
    // Border-corrected expectation: constant correction factor ~0.903
    // of the unclipped-disc degree on this field/range combination.
    const double model = field.expected_degree(row.n, 50.0) * 0.903;
    EXPECT_NEAR(measured, model, 0.5) << "N=" << row.n;
  }
}

// ---- wire -----------------------------------------------------------

TEST(WireTest, RoundTripScalars) {
  WireWriter w;
  w.u8(0xAB);
  w.u16(0xBEEF);
  w.u32(0xDEADBEEF);
  w.u64(0x0123456789ABCDEFULL);
  w.i64(-42);
  w.f64(3.14159);
  const Bytes buf = std::move(w).take();

  WireReader r(buf);
  EXPECT_EQ(r.u8(), 0xAB);
  EXPECT_EQ(r.u16(), 0xBEEF);
  EXPECT_EQ(r.u32(), 0xDEADBEEFu);
  EXPECT_EQ(r.u64(), 0x0123456789ABCDEFULL);
  EXPECT_EQ(r.i64(), -42);
  EXPECT_DOUBLE_EQ(r.f64(), 3.14159);
  EXPECT_TRUE(r.done());
}

TEST(WireTest, RoundTripContainers) {
  WireWriter w;
  w.blob({1, 2, 3});
  w.f64_vec({1.5, -2.5});
  w.u32_vec({7, 8, 9});
  const Bytes buf = std::move(w).take();

  WireReader r(buf);
  EXPECT_EQ(r.blob(), (Bytes{1, 2, 3}));
  EXPECT_EQ(r.f64_vec(), (std::vector<double>{1.5, -2.5}));
  EXPECT_EQ(r.u32_vec(), (std::vector<std::uint32_t>{7, 8, 9}));
}

TEST(WireTest, EmptyContainers) {
  WireWriter w;
  w.blob({});
  w.u32_vec({});
  const Bytes buf = std::move(w).take();
  WireReader r(buf);
  EXPECT_TRUE(r.blob().empty());
  EXPECT_TRUE(r.u32_vec().empty());
  EXPECT_TRUE(r.done());
}

TEST(WireTest, TruncationThrows) {
  WireWriter w;
  w.u64(1);
  Bytes buf = std::move(w).take();
  buf.pop_back();
  WireReader r(buf);
  EXPECT_THROW(r.u64(), WireError);
}

TEST(WireTest, OversizedLengthPrefixThrows) {
  WireWriter w;
  w.u32(1000000);  // claims a million bytes follow
  const Bytes buf = std::move(w).take();
  WireReader r(buf);
  EXPECT_THROW(r.blob(), WireError);
}

TEST(WireTest, SpecialFloats) {
  WireWriter w;
  w.f64(std::numeric_limits<double>::infinity());
  w.f64(-0.0);
  const Bytes buf = std::move(w).take();
  WireReader r(buf);
  EXPECT_TRUE(std::isinf(r.f64()));
  EXPECT_EQ(r.f64(), 0.0);
}

// ---- Network --------------------------------------------------------

NetworkConfig sharded_config(std::size_t nodes, std::size_t shards) {
  NetworkConfig cfg;
  cfg.node_count = nodes;
  cfg.shards = shards;
  return cfg;
}

TEST(NetworkTest, FootprintIsTheSumOfItsParts) {
  const Network sharded(sharded_config(120, 2));
  const Network::Footprint f = sharded.footprint();
  // Event slabs, MAC queues and registries grow on first use; what a
  // fresh network holds is its graph, channel state and partition.
  EXPECT_GT(f.topology, 0u);
  EXPECT_GT(f.channel, 0u);
  EXPECT_GT(f.plan, 0u);  // node -> shard and border maps
  EXPECT_GT(f.objects, 120 * (sizeof(Mac) + sizeof(Node)));
  EXPECT_EQ(f.total(), f.topology + f.schedulers + f.channel + f.macs + f.metrics +
                           f.plan + f.objects);

  const Network single(sharded_config(120, 1));
  EXPECT_EQ(single.footprint().plan, 0u);  // no partition when unsharded
}

TEST(NetworkTest, AnnouncesEachPartitionOnceWhenAsked) {
  // A node count no other test uses: the announcement is once per
  // (nodes, shards) per process.
  constexpr std::size_t kNodes = 137;
  testing::internal::CaptureStderr();
  { const Network quiet(sharded_config(kNodes, 2)); }
  ::setenv("ICPDA_ANNOUNCE_PLAN", "1", 1);
  { const Network first(sharded_config(kNodes, 2)); }
  { const Network again(sharded_config(kNodes, 2)); }
  { const Network other(sharded_config(kNodes, 3)); }
  ::unsetenv("ICPDA_ANNOUNCE_PLAN");
  const std::string err = testing::internal::GetCapturedStderr();

  std::size_t lines = 0;
  for (std::size_t at = err.find("[shard-plan]"); at != std::string::npos;
       at = err.find("[shard-plan]", at + 1)) {
    ++lines;
  }
  EXPECT_EQ(lines, 2u) << err;
  EXPECT_NE(err.find("[shard-plan] n=137 tiles=2 "), std::string::npos) << err;
  EXPECT_NE(err.find("[shard-plan] n=137 tiles=3 "), std::string::npos) << err;
}

}  // namespace
}  // namespace icpda::net
