// Properties of the 2-D tile partitioner (sim/shard.h), the plan the
// sharded engine's parallel fraction lives or dies by:
//
//  * correctness — every node assigned, shard ids dense, border flags
//    exactly "some neighbour lives elsewhere", per-shard tallies
//    consistent (both partitioners);
//  * balance — no tile carries more than 2x the mean estimated event
//    load on randomized paper-density deployments (the slowest shard
//    paces every drain round);
//  * border economy — at shards >= 4 (tiles squarer than full-height
//    stripes, so cuts are shorter) the tile plan's border-node count
//    never exceeds the vertical-stripe plan's on the same deployment
//    (border nodes are the only ones that serialize through the
//    gate), and it should usually win outright. At shards == 2 both
//    plans make one full-height cut; the tile plan places it at the
//    load-weighted median, which can land in a denser band than the
//    stripe plan's equal-width cut — a few border nodes traded for
//    balance, bounded here;
//  * determinism — the plan is a pure function of its inputs.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <functional>
#include <utility>
#include <vector>

#include "net/topology.h"
#include "sim/rng.h"
#include "sim/shard.h"

namespace icpda::sim {
namespace {

struct Deployment {
  net::Topology topo;
  std::vector<double> xs, ys;
  double side;
  NeighborFn neighbors;
};

Deployment make_deployment(std::size_t n, double side, std::uint64_t seed) {
  Rng rng(seed);
  net::Field field{side, side};
  net::Topology topo = net::make_random_topology(field, n, 50.0, rng);
  std::vector<double> xs(n), ys(n);
  for (net::NodeId id = 0; id < n; ++id) {
    xs[id] = topo.position(id).x;
    ys[id] = topo.position(id).y;
  }
  Deployment d{std::move(topo), std::move(xs), std::move(ys), side, {}};
  return d;
}

NeighborFn neighbor_fn(const net::Topology& topo) {
  return [&topo](std::uint32_t node,
                 const std::function<void(std::uint32_t)>& fn) {
    for (const net::NodeId r : topo.neighbors(node)) fn(r);
  };
}

/// The comparison baseline: cut `[0, field_width)` into `shards` equal
/// vertical stripes and assign each node by its x coordinate (clamped
/// into range) — the partition the tile plan replaced.
ShardPlan make_stripe_plan(const std::vector<double>& xs, double field_width,
                           std::uint32_t shards, const NeighborFn& neighbors) {
  ShardPlan plan;
  plan.shard_count = shards;
  plan.shard_of.resize(xs.size());
  const double stripe = field_width / static_cast<double>(shards);
  for (std::size_t i = 0; i < xs.size(); ++i) {
    const double x = std::clamp(xs[i], 0.0, field_width);
    plan.shard_of[i] = std::min(static_cast<std::uint32_t>(x / stripe), shards - 1);
  }
  finalize_plan(plan, neighbors);
  return plan;
}

/// Shared structural invariants of any ShardPlan.
void check_plan(const ShardPlan& plan, const net::Topology& topo,
                std::uint32_t shards) {
  const std::size_t n = topo.size();
  ASSERT_EQ(plan.shard_of.size(), n);
  ASSERT_EQ(plan.border.size(), n);
  ASSERT_EQ(plan.shard_count, shards);
  ASSERT_EQ(plan.shard_sizes.size(), shards);
  ASSERT_EQ(plan.est_load.size(), shards);

  std::vector<std::uint32_t> sizes(shards, 0);
  std::vector<std::uint64_t> loads(shards, 0);
  std::size_t borders = 0;
  for (net::NodeId id = 0; id < n; ++id) {
    const std::uint32_t s = plan.shard_of[id];
    ASSERT_LT(s, shards);
    ++sizes[s];
    loads[s] += 1 + topo.degree(id);
    bool crosses = false;
    for (const net::NodeId r : topo.neighbors(id)) {
      if (plan.shard_of[r] != s) crosses = true;
    }
    EXPECT_EQ(plan.border[id] != 0, shards > 1 && crosses) << "node " << id;
    if (plan.border[id] != 0) ++borders;
  }
  EXPECT_EQ(plan.border_count, borders);
  for (std::uint32_t s = 0; s < shards; ++s) {
    EXPECT_EQ(plan.shard_sizes[s], sizes[s]) << "shard " << s;
    EXPECT_EQ(plan.est_load[s], loads[s]) << "shard " << s;
  }
}

TEST(ShardPlanTest, TilePlanBalancedAndBorderEconomical) {
  // Paper density (400 nodes / 400 m square), randomized deployments.
  std::size_t stripe_wins = 0, comparisons = 0;
  for (std::uint64_t seed = 1; seed <= 12; ++seed) {
    const std::size_t n = 300 + 50 * (seed % 5);
    const double side = 20.0 * std::sqrt(static_cast<double>(n));
    Deployment d = make_deployment(n, side, 0xBA1A + seed);
    const NeighborFn nf = neighbor_fn(d.topo);

    for (const std::uint32_t shards : {2u, 4u, 8u}) {
      SCOPED_TRACE("seed=" + std::to_string(seed) + " n=" + std::to_string(n) +
                   " shards=" + std::to_string(shards));
      const ShardPlan tile =
          make_tile_plan(d.xs, d.ys, d.side, d.side, 50.0, shards, nf);
      const ShardPlan stripe = make_stripe_plan(d.xs, d.side, shards, nf);
      check_plan(tile, d.topo, shards);
      check_plan(stripe, d.topo, shards);

      // Balance: the slowest tile paces the engine; 2x mean is the
      // acceptance bar (the bisection's per-cut error is one grid
      // line's worth of load, far under this on paper densities).
      EXPECT_LE(tile.balance(), 2.0);

      // Border economy: never worse than the stripes it replaced once
      // tiles are squarer than stripes (shards >= 4). At shards == 2
      // the load-median cut may cost a few border nodes over the
      // equal-width cut (balance bought with border); cap the premium.
      if (shards >= 4) {
        EXPECT_LE(tile.border_count, stripe.border_count);
        ++comparisons;
        if (tile.border_count < stripe.border_count) ++stripe_wins;
      } else {
        EXPECT_LE(tile.border_count, stripe.border_count * 5 / 4);
      }
    }
  }
  // At square-ish tile aspect ratios the cut length (hence border
  // population) should beat full-height stripes most of the time, not
  // just tie them.
  ASSERT_GT(comparisons, 0u);
  EXPECT_GE(stripe_wins * 2, comparisons);
}

TEST(ShardPlanTest, TilePlanIsDeterministic) {
  Deployment d = make_deployment(400, 400.0, 0xD5);
  const NeighborFn nf = neighbor_fn(d.topo);
  const ShardPlan a = make_tile_plan(d.xs, d.ys, d.side, d.side, 50.0, 8, nf);
  const ShardPlan b = make_tile_plan(d.xs, d.ys, d.side, d.side, 50.0, 8, nf);
  EXPECT_EQ(a.shard_of, b.shard_of);
  EXPECT_EQ(a.border, b.border);
  EXPECT_EQ(a.est_load, b.est_load);
}

TEST(ShardPlanTest, DegenerateInputs) {
  Deployment d = make_deployment(50, 150.0, 0x5EED);
  const NeighborFn nf = neighbor_fn(d.topo);

  // shards == 1: trivial plan, nobody is border.
  const ShardPlan one = make_tile_plan(d.xs, d.ys, d.side, d.side, 50.0, 1, nf);
  check_plan(one, d.topo, 1);
  EXPECT_EQ(one.border_count, 0u);
  EXPECT_DOUBLE_EQ(one.balance(), 1.0);

  // More shards than grid buckets can stay dense: ids must still be
  // dense and every node assigned.
  const ShardPlan many =
      make_tile_plan(d.xs, d.ys, d.side, d.side, 50.0, 32, nf);
  check_plan(many, d.topo, 32);
}

}  // namespace
}  // namespace icpda::sim
