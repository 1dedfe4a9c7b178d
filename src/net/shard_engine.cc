#include "net/shard_engine.h"

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cmath>
#include <exception>
#include <future>
#include <limits>
#include <mutex>
#include <stdexcept>
#include <utility>

#include "sim/barrier.h"

namespace icpda::net {

ShardEngine::ShardEngine(std::vector<sim::Scheduler*> scheds,
                         sim::SimTime lookahead, runner::ThreadPool& pool)
    : scheds_(std::move(scheds)), lookahead_(lookahead), pool_(pool) {
  if (scheds_.empty()) {
    throw std::invalid_argument("ShardEngine: need at least one shard");
  }
  if (!(lookahead_ > sim::SimTime::zero())) {
    throw std::invalid_argument("ShardEngine: lookahead must be positive");
  }
  if (pool_.size() < scheds_.size()) {
    throw std::invalid_argument(
        "ShardEngine: pool smaller than shard count would deadlock");
  }
  // The gate's tie-break needs parentage metadata; schedulers keep it
  // off by default because only this engine ever reads it. Engines are
  // constructed before any events are scheduled (Network::wire), so no
  // pre-existing event misses tracking.
  for (sim::Scheduler* s : scheds_) s->set_track_parentage(true);
}

namespace {

// Cross-shard dispatch order at the gate. Per-shard FIFO seq counters
// are incomparable across schedulers, so a (fire time, schedule time)
// tie is ordered by the full parent dispatch LINEAGE
// (sim::canonical_cross_before → sim::lineage_cmp): tied children
// fire in their parents' dispatch order, tied parents recurse one
// causal level up, and chains bottoming out at install-scheduled
// roots compare by the global install sequence — the exact
// single-heap FIFO order, not a fixed-depth approximation (the PR-9
// two-level truncation reordered deep slot-aligned MAC ties at paper
// density, which snowballed into different carrier-sense outcomes; see
// DESIGN.md §5k). Only chains cut at the lineage depth cap fall back
// to the owner id, which is engine-independent.
[[nodiscard]] bool gate_before(const sim::EventKey& a, const sim::EventKey& b) {
  return sim::canonical_cross_before(a, b);
}

}  // namespace

void ShardEngine::run_gate(sim::SimTime bound) {
  // K-way merge by repeated peek: always run the globally-least pending
  // event below the bound. An executed event may insert new events, but
  // never before itself — re-peeking every iteration keeps the order
  // canonical through arbitrary insert patterns. Within a shard the
  // scheduler's own heap supplies the (at, sched_at, seq) FIFO order;
  // across shards gate_before() decides.
  const std::size_t shards = scheds_.size();
  for (;;) {
    std::size_t best = shards;
    sim::EventKey best_key{};
    for (std::size_t s = 0; s < shards; ++s) {
      if (!scheds_[s]->has_next() || !(scheds_[s]->next_time() < bound)) continue;
      const sim::EventKey k = scheds_[s]->next_key();
      if (best == shards || gate_before(k, best_key)) {
        best = s;
        best_key = k;
      }
    }
    if (best == shards) return;
    scheds_[best]->run_one();
    ++stats_.gate_events;
  }
}

namespace {

using Clock = std::chrono::steady_clock;

double seconds_since(Clock::time_point from, Clock::time_point to) {
  return std::chrono::duration<double>(to - from).count();
}

}  // namespace

sim::SimTime ShardEngine::next_time() const {
  sim::SimTime next = sim::SimTime::infinity();
  for (const sim::Scheduler* s : scheds_) {
    if (s->has_next()) next = std::min(next, s->next_time());
  }
  return next;
}

sim::SimTime ShardEngine::run(sim::SimTime horizon, bool serialize_all) {
  const Clock::time_point t_start = Clock::now();
  // Events at exactly the horizon still fire (run_until semantics):
  // bound is the smallest representable time after it.
  const sim::SimTime bound{
      horizon.is_finite()
          ? std::nextafter(horizon.seconds(),
                           std::numeric_limits<double>::infinity())
          : std::numeric_limits<double>::infinity()};

  stats_ = Stats{};
  if (serialize_all) {
    // No parallel work exists: the whole horizon is one canonical gate,
    // run as a single pool task with no barrier. Not on the caller: a
    // campaign or benchmark thread runs epoch after epoch, and there
    // the benchmark's attack epochs ran ~15% slower than on a
    // Network's own (fresh) pool thread.
    if (next_time() < bound) {
      ++stats_.gate_rounds;
      pool_.submit([this, bound] { run_gate(bound); }).get();
    }
    stats_.gate_s = seconds_since(t_start, Clock::now());
  } else {
    run_rounds(bound);
  }

  // Leave every shard clock at a common end time: the horizon when
  // finite, else the latest event executed anywhere.
  sim::SimTime end = horizon.is_finite() ? horizon : sim::SimTime::zero();
  for (sim::Scheduler* s : scheds_) end = std::max(end, s->now());
  for (sim::Scheduler* s : scheds_) s->advance_to(end);
  stats_.wall_s = seconds_since(t_start, Clock::now());
  return end;
}

void ShardEngine::run_rounds(sim::SimTime bound) {
  const std::size_t shards = scheds_.size();
  struct Plan {
    bool done = false;
    sim::SimTime drain_bound = sim::SimTime::zero();
  };
  Plan plan;
  sim::ReductionBarrier barrier(shards);
  // Per-worker totals, each written once when its worker exits (a
  // per-round write to adjacent slots would share cache lines).
  struct WorkerTotals {
    std::uint64_t drained = 0;
    std::uint64_t violations = 0;
    double drain_s = 0;
  };
  std::vector<WorkerTotals> totals(shards);
  std::atomic<bool> failed{false};
  std::mutex error_mutex;
  std::exception_ptr error;

  // The barrier's serial section: the last worker to arrive runs it
  // alone while the others wait for the release. It plays every
  // pending border INSTANT through the gate, then plans the next
  // parallel drain segment. Unlike whole-window gating — which, once
  // a window contained any border event, serialized the window's whole
  // tail — the gate here executes only one clock instant at a
  // time (every event AT the earliest border time, in canonical
  // cross-shard order), and control returns to the parallel drains the
  // moment a border-free prefix reappears. Interior events between two
  // border instants therefore drain concurrently, which is where the
  // parallel fraction comes from (DESIGN.md §5k).
  //
  // Gate code is arbitrary protocol code; an exception here must not
  // strand the other workers in the barrier, so it is trapped exactly
  // like a drain-side failure.
  auto replan = [&] {
    if (failed.load(std::memory_order_relaxed)) {
      plan.done = true;
      return;
    }
    const Clock::time_point t0 = Clock::now();
    double gated_s = 0;
    try {
      for (;;) {
        const sim::SimTime next = next_time();
        if (!(next < bound)) {
          plan.done = true;
          break;
        }
        sim::SimTime gate_at = sim::SimTime::infinity();
        sim::EventKey bk;
        for (sim::Scheduler* s : scheds_) {
          if (s->next_border(bk)) gate_at = std::min(gate_at, bk.at);
        }
        if (gate_at <= next) {
          // No drainable border-free prefix: serialize this one
          // instant (border events plus any same-instant interiors —
          // same-time cross-shard interaction is real, so the whole
          // instant replays in canonical order), then re-plan; runs of
          // consecutive border instants gate back-to-back without
          // releasing the barrier.
          ++stats_.gate_rounds;
          const Clock::time_point g0 = Clock::now();
          run_gate(sim::SimTime{std::nextafter(
              gate_at.seconds(), std::numeric_limits<double>::infinity())});
          gated_s += seconds_since(g0, Clock::now());
          continue;
        }
        ++stats_.rounds;
        plan.drain_bound = std::min({gate_at, next + lookahead_, bound});
        break;
      }
    } catch (...) {
      const std::scoped_lock lock(error_mutex);
      if (!error) error = std::current_exception();
      failed.store(true, std::memory_order_relaxed);
      plan.done = true;
    }
    stats_.gate_s += gated_s;
    stats_.replan_s += seconds_since(t0, Clock::now()) - gated_s;
  };

  auto worker = [&](std::size_t s) {
    WorkerTotals mine;
    for (;;) {
      barrier.arrive_and_wait(replan);
      if (plan.done) break;
      const Clock::time_point d0 = Clock::now();
      try {
        mine.drained += scheds_[s]->run_before(plan.drain_bound);
        // Lookahead-safety check (invariant 3): nothing this drain ran
        // may have left a border event pending below the drain bound —
        // the gate would execute it late, out of canonical order.
        sim::EventKey bk;
        if (scheds_[s]->next_border(bk) && bk.at < plan.drain_bound) {
          ++mine.violations;
        }
      } catch (...) {
        const std::scoped_lock lock(error_mutex);
        if (!error) error = std::current_exception();
        failed.store(true, std::memory_order_relaxed);
      }
      mine.drain_s += seconds_since(d0, Clock::now());
    }
    totals[s] = mine;
  };

  std::vector<std::future<void>> futures;
  futures.reserve(shards);
  for (std::size_t s = 0; s < shards; ++s) {
    futures.push_back(pool_.submit([&worker, s] { worker(s); }));
  }
  for (auto& f : futures) f.get();
  if (error) std::rethrow_exception(error);

  for (const WorkerTotals& t : totals) {
    stats_.parallel_events += t.drained;
    stats_.lookahead_violations += t.violations;
    stats_.drain_sum_s += t.drain_s;
    stats_.drain_max_s = std::max(stats_.drain_max_s, t.drain_s);
  }
}

}  // namespace icpda::net
