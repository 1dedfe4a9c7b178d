#include "sim/shard.h"

#include <algorithm>
#include <cmath>
#include <cstddef>
#include <stdexcept>

namespace icpda::sim {

void finalize_plan(ShardPlan& plan, const NeighborFn& neighbors) {
  const std::size_t n = plan.shard_of.size();
  plan.border.assign(n, 0);
  plan.shard_sizes.assign(plan.shard_count, 0);
  plan.est_load.assign(plan.shard_count, 0);
  plan.border_count = 0;
  for (std::size_t i = 0; i < n; ++i) ++plan.shard_sizes[plan.shard_of[i]];
  for (std::size_t i = 0; i < n; ++i) {
    const std::uint32_t home = plan.shard_of[i];
    std::uint64_t degree = 0;
    neighbors(static_cast<std::uint32_t>(i), [&](std::uint32_t r) {
      ++degree;
      if (plan.shard_count > 1 && plan.shard_of[r] != home) plan.border[i] = 1;
    });
    plan.est_load[home] += 1 + degree;
    if (plan.border[i] != 0) ++plan.border_count;
  }
}

double ShardPlan::balance() const {
  if (est_load.empty()) return 1.0;
  std::uint64_t total = 0;
  std::uint64_t peak = 0;
  for (const std::uint64_t l : est_load) {
    total += l;
    peak = std::max(peak, l);
  }
  if (total == 0) return 1.0;
  const double mean =
      static_cast<double>(total) / static_cast<double>(est_load.size());
  return static_cast<double>(peak) / mean;
}

ShardPlan make_tile_plan(const std::vector<double>& xs,
                         const std::vector<double>& ys, double field_width,
                         double field_height, double cell_hint,
                         std::uint32_t shards, const NeighborFn& neighbors) {
  if (shards == 0) throw std::invalid_argument("make_tile_plan: zero shards");
  if (field_width <= 0.0 || field_height <= 0.0) {
    throw std::invalid_argument("make_tile_plan: non-positive field dimension");
  }
  if (xs.size() != ys.size()) {
    throw std::invalid_argument("make_tile_plan: xs/ys size mismatch");
  }
  if (!(cell_hint > 0.0)) cell_hint = field_width;

  // Bucket grid. One radio range per bucket is the natural cut
  // granularity (a finer grid cannot shorten a border: any boundary
  // still straddles one range worth of nodes) but the grid must be
  // fine enough to actually split `shards` ways with slack to balance,
  // and coarse enough to stay cheap at any node count.
  const auto grid_dim = [](double extent, double cell, std::uint32_t floor_dim) {
    auto d = static_cast<std::uint32_t>(std::ceil(extent / cell));
    d = std::clamp<std::uint32_t>(d, 1, 256);
    return std::max(d, floor_dim);
  };
  // ceil(sqrt(4 * shards)) per axis guarantees nx*ny >= 4*shards.
  const auto floor_dim = static_cast<std::uint32_t>(
      std::ceil(std::sqrt(4.0 * static_cast<double>(shards))));
  const std::uint32_t nx = grid_dim(field_width, cell_hint, floor_dim);
  const std::uint32_t ny = grid_dim(field_height, cell_hint, floor_dim);

  // Per-bucket estimated load (1 + degree per node) and the bucket of
  // every node.
  const std::size_t n = xs.size();
  std::vector<std::uint32_t> bucket_of(n);
  std::vector<std::uint64_t> load(static_cast<std::size_t>(nx) * ny, 0);
  for (std::size_t i = 0; i < n; ++i) {
    const double x = std::clamp(xs[i], 0.0, field_width);
    const double y = std::clamp(ys[i], 0.0, field_height);
    const auto bx = std::min<std::uint32_t>(
        static_cast<std::uint32_t>(x / field_width * nx), nx - 1);
    const auto by = std::min<std::uint32_t>(
        static_cast<std::uint32_t>(y / field_height * ny), ny - 1);
    bucket_of[i] = by * nx + bx;
    std::uint64_t degree = 0;
    neighbors(static_cast<std::uint32_t>(i), [&](std::uint32_t) { ++degree; });
    load[bucket_of[i]] += 1 + degree;
  }

  // Recursive orthogonal bisection over bucket rectangles: split the
  // longer axis at the index that best divides the rectangle's load in
  // the ratio floor(k/2) : ceil(k/2); leaves get consecutive tile ids
  // (recursion order — deterministic).
  std::vector<std::uint32_t> tile_of_bucket(load.size(), 0);
  std::uint32_t next_tile = 0;
  struct Rect {
    std::uint32_t x0, x1, y0, y1;  // half-open bucket ranges
  };
  const auto rect_assign = [&](const Rect& r, std::uint32_t tile) {
    for (std::uint32_t y = r.y0; y < r.y1; ++y) {
      for (std::uint32_t x = r.x0; x < r.x1; ++x) {
        tile_of_bucket[static_cast<std::size_t>(y) * nx + x] = tile;
      }
    }
  };
  const auto line_load = [&](const Rect& r, bool split_x, std::uint32_t i) {
    std::uint64_t s = 0;
    if (split_x) {
      for (std::uint32_t y = r.y0; y < r.y1; ++y) {
        s += load[static_cast<std::size_t>(y) * nx + i];
      }
    } else {
      for (std::uint32_t x = r.x0; x < r.x1; ++x) {
        s += load[static_cast<std::size_t>(i) * nx + x];
      }
    }
    return s;
  };
  const std::function<void(Rect, std::uint32_t)> bisect = [&](Rect r,
                                                              std::uint32_t k) {
    if (k <= 1) {
      rect_assign(r, next_tile++);
      return;
    }
    const std::uint32_t k_lo = k / 2;
    // Prefer the longer axis (shorter cut line -> fewer border nodes);
    // an axis with a single bucket line cannot split.
    const std::uint32_t wx = r.x1 - r.x0;
    const std::uint32_t wy = r.y1 - r.y0;
    const bool split_x = wy > wx ? false : (wx > 1 || wy <= 1);
    const std::uint32_t lo = split_x ? r.x0 : r.y0;
    const std::uint32_t hi = split_x ? r.x1 : r.y1;
    if (hi - lo <= 1) {
      // Unsplittable sliver: park the whole budget here. Tile ids must
      // stay dense, so emit k tiles (the extras stay empty; the floor
      // on the grid dimensions makes this unreachable in practice).
      for (std::uint32_t t = 0; t < k; ++t) rect_assign(r, next_tile++);
      return;
    }
    std::uint64_t total = 0;
    for (std::uint32_t i = lo; i < hi; ++i) total += line_load(r, split_x, i);
    const double target =
        static_cast<double>(total) * static_cast<double>(k_lo) / k;
    std::uint32_t cut = lo + 1;
    std::uint64_t prefix = line_load(r, split_x, lo);
    double best_err = std::abs(static_cast<double>(prefix) - target);
    std::uint64_t run = prefix;
    for (std::uint32_t i = lo + 1; i + 1 < hi; ++i) {
      run += line_load(r, split_x, i);
      const double err = std::abs(static_cast<double>(run) - target);
      if (err < best_err) {
        best_err = err;
        cut = i + 1;
      }
    }
    Rect a = r;
    Rect b = r;
    if (split_x) {
      a.x1 = cut;
      b.x0 = cut;
    } else {
      a.y1 = cut;
      b.y0 = cut;
    }
    bisect(a, k_lo);
    bisect(b, k - k_lo);
  };
  bisect(Rect{0, nx, 0, ny}, shards);

  ShardPlan plan;
  plan.shard_count = shards;
  plan.shard_of.resize(n);
  for (std::size_t i = 0; i < n; ++i) {
    plan.shard_of[i] = tile_of_bucket[bucket_of[i]];
  }
  finalize_plan(plan, neighbors);
  return plan;
}

}  // namespace icpda::sim
