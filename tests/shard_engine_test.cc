// net::ShardEngine contracts below the protocol level: constructor
// rejections, exceptions from gate and drain code surfacing on the
// caller without stranding the workers, serialize_all running as one
// gate on one thread, and the wall-clock ledger adding up. The end-to-end
// determinism of the engine is shard_determinism_test's job.
#include <gtest/gtest.h>

#include <cstddef>
#include <memory>
#include <stdexcept>
#include <thread>
#include <vector>

#include "net/shard_engine.h"
#include "runner/thread_pool.h"
#include "sim/scheduler.h"

namespace icpda::net {
namespace {

constexpr sim::SimTime kLookahead = sim::micros(100);

/// Borrowable shard schedulers (a Network owns them in production).
struct Shards {
  explicit Shards(std::size_t n) {
    for (std::size_t s = 0; s < n; ++s) owned.push_back(std::make_unique<sim::Scheduler>());
  }
  [[nodiscard]] std::vector<sim::Scheduler*> raw() const {
    std::vector<sim::Scheduler*> out;
    for (const auto& s : owned) out.push_back(s.get());
    return out;
  }
  std::vector<std::unique_ptr<sim::Scheduler>> owned;
};

/// Self-rescheduling interior event: `count` firings `step` apart.
void chain(sim::Scheduler& s, sim::SimTime step, int count, int* fired) {
  s.after(step, [&s, step, count, fired] {
    ++*fired;
    if (count > 1) chain(s, step, count - 1, fired);
  });
}

TEST(ShardEngineTest, RejectsUnrunnableConfigurations) {
  runner::ThreadPool pool(2);
  Shards two(2);
  EXPECT_THROW(ShardEngine({}, kLookahead, pool), std::invalid_argument);
  EXPECT_THROW(ShardEngine(two.raw(), sim::SimTime::zero(), pool), std::invalid_argument);
  runner::ThreadPool one(1);
  EXPECT_THROW(ShardEngine(two.raw(), kLookahead, one), std::invalid_argument);
}

TEST(ShardEngineTest, GateExceptionReachesTheCallerAndThePoolSurvives) {
  runner::ThreadPool pool(2);
  Shards shards(2);
  ShardEngine engine(shards.raw(), kLookahead, pool);
  int fired[2] = {0, 0};
  chain(*shards.owned[0], sim::micros(30), 20, &fired[0]);
  chain(*shards.owned[1], sim::micros(30), 20, &fired[1]);
  shards.owned[1]->at(
      sim::micros(200), [] { throw std::runtime_error("gate"); }, sim::kNoEventOwner,
      /*border=*/true);

  EXPECT_THROW(engine.run(sim::SimTime::infinity(), false), std::runtime_error);
  // The failed run aborted behind the throw; the same engine and pool
  // run what was left, so no worker was stranded in the barrier.
  engine.run(sim::SimTime::infinity(), false);
  EXPECT_EQ(fired[0], 20);
  EXPECT_EQ(fired[1], 20);
}

TEST(ShardEngineTest, DrainExceptionReachesTheCaller) {
  runner::ThreadPool pool(2);
  Shards shards(2);
  ShardEngine engine(shards.raw(), kLookahead, pool);
  int fired = 0;
  chain(*shards.owned[0], sim::micros(30), 20, &fired);
  shards.owned[1]->at(sim::micros(50), [] { throw std::runtime_error("drain"); });
  EXPECT_THROW(engine.run(sim::SimTime::infinity(), false), std::runtime_error);
}

TEST(ShardEngineTest, SerializeAllIsOneGateOnOneThread) {
  runner::ThreadPool pool(2);
  Shards shards(2);
  ShardEngine engine(shards.raw(), kLookahead, pool);
  std::vector<std::thread::id> ran_on;
  for (int i = 0; i < 3; ++i) {
    for (const auto& s : shards.owned) {
      s->at(sim::micros(10 + 100 * i),
            [&ran_on] { ran_on.push_back(std::this_thread::get_id()); });
    }
  }

  const sim::SimTime end = engine.run(sim::SimTime::infinity(), true);
  EXPECT_EQ(end, sim::micros(210));
  ASSERT_EQ(ran_on.size(), 6u);
  for (const std::thread::id id : ran_on) EXPECT_EQ(id, ran_on.front());
  const ShardEngine::Stats& st = engine.stats();
  EXPECT_EQ(st.gate_rounds, 1u);  // the whole horizon is one gate
  EXPECT_EQ(st.rounds, 0u);
  EXPECT_EQ(st.gate_events, 6u);
  EXPECT_EQ(st.parallel_events, 0u);
  EXPECT_EQ(st.drain_sum_s, 0.0);
  EXPECT_GE(st.wait_s(), 0.0);

  // Nothing pending: no gate at all, and the clocks stay put.
  engine.run(sim::SimTime::infinity(), true);
  EXPECT_EQ(engine.stats().gate_rounds, 0u);
  EXPECT_EQ(shards.owned[0]->now(), end);
}

TEST(ShardEngineTest, ParallelRunFillsTheWallLedger) {
  runner::ThreadPool pool(2);
  Shards shards(2);
  ShardEngine engine(shards.raw(), kLookahead, pool);
  int fired[2] = {0, 0};
  chain(*shards.owned[0], sim::micros(7), 500, &fired[0]);
  chain(*shards.owned[1], sim::micros(11), 500, &fired[1]);
  shards.owned[0]->at(sim::micros(1000), [] {}, sim::kNoEventOwner, /*border=*/true);

  engine.run(sim::SimTime::infinity(), false);
  EXPECT_EQ(fired[0], 500);
  EXPECT_EQ(fired[1], 500);
  const ShardEngine::Stats& st = engine.stats();
  EXPECT_GT(st.rounds, 1u);
  EXPECT_EQ(st.gate_rounds, 1u);
  EXPECT_EQ(st.gate_events, 1u);
  EXPECT_EQ(st.parallel_events, 1000u);
  EXPECT_EQ(st.lookahead_violations, 0u);
  // A worker drains only while no serial section runs, so the serial
  // section plus the slowest worker's drains fit inside the wall time.
  EXPECT_GT(st.drain_max_s, 0.0);
  EXPECT_GE(st.drain_sum_s, st.drain_max_s);
  EXPECT_GT(st.wall_s, 0.0);
  EXPECT_GE(st.wait_s(), 0.0);
}

}  // namespace
}  // namespace icpda::net
