// sim::ReductionBarrier: the sharded engine crosses it once per drain
// round, so it must release every generation exactly once, run the
// serial section alone, and order memory both ways — the serial
// section sees every party's pre-arrival writes, and every party sees
// the serial section's writes once released. The counters checked
// below are plain (non-atomic) on purpose: under ThreadSanitizer a
// missing happens-before edge is reported as a race even when the
// values happen to come out right.
#include <gtest/gtest.h>

#include <cstddef>
#include <cstdint>
#include <stdexcept>
#include <thread>
#include <vector>

#include "sim/barrier.h"

namespace icpda::sim {
namespace {

constexpr std::uint64_t kGenerations = 100000;

class BarrierTest : public ::testing::TestWithParam<std::size_t> {};

TEST_P(BarrierTest, EveryGenerationPublishesBothWays) {
  const std::size_t parties = GetParam();
  ReductionBarrier barrier(parties);
  ASSERT_EQ(barrier.parties(), parties);

  // contrib[p] is written by party p before each arrival and read only
  // by the serial section; `published` is written only by the serial
  // section and read by every party after release.
  std::vector<std::uint64_t> contrib(parties, 0);
  std::uint64_t published = 0;
  std::uint64_t serial_runs = 0;
  std::uint64_t serial_misses = 0;
  std::vector<std::uint64_t> party_misses(parties, 0);

  auto party = [&](std::size_t p) {
    std::uint64_t misses = 0;
    for (std::uint64_t g = 1; g <= kGenerations; ++g) {
      contrib[p] = g;
      barrier.arrive_and_wait([&] {
        ++serial_runs;
        for (const std::uint64_t c : contrib) {
          if (c != g) ++serial_misses;
        }
        published = g;
      });
      if (published != g) ++misses;
    }
    party_misses[p] = misses;
  };

  std::vector<std::thread> threads;
  threads.reserve(parties);
  for (std::size_t p = 0; p < parties; ++p) threads.emplace_back(party, p);
  for (std::thread& t : threads) t.join();

  EXPECT_EQ(serial_runs, kGenerations);
  EXPECT_EQ(serial_misses, 0u);
  for (std::size_t p = 0; p < parties; ++p) {
    EXPECT_EQ(party_misses[p], 0u) << "party " << p;
  }
}

INSTANTIATE_TEST_SUITE_P(Parties, BarrierTest,
                         ::testing::Values(std::size_t{1}, std::size_t{2},
                                           std::size_t{4}, std::size_t{8},
                                           std::size_t{16}));

TEST(BarrierTest, SinglePartyRunsTheSerialSectionInline) {
  ReductionBarrier barrier(1);
  const std::thread::id caller = std::this_thread::get_id();
  int runs = 0;
  for (int i = 0; i < 3; ++i) {
    barrier.arrive_and_wait([&] {
      EXPECT_EQ(std::this_thread::get_id(), caller);
      ++runs;
    });
    EXPECT_EQ(runs, i + 1);  // ran before arrive_and_wait returned
  }
  barrier.arrive_and_wait();  // the plain form never blocks either
}

TEST(BarrierTest, ZeroPartiesThrows) {
  EXPECT_THROW(ReductionBarrier{0}, std::invalid_argument);
}

}  // namespace
}  // namespace icpda::sim
