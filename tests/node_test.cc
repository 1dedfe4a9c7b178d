// Node-level contracts: application timers die with the App that set
// them. Epochs run back to back on one Network replace every node's
// App, while the previous epoch's stragglers (timers past its bounded
// horizon) are still pending.
#include <gtest/gtest.h>

#include <memory>

#include "net/network.h"
#include "net/node.h"

namespace icpda::net {
namespace {

/// Arms one timer far past the first run's horizon. The timer writes
/// into the App itself, so a timer that outlived its App would be a
/// use-after-free (AddressSanitizer reports it) as well as a count.
class TimerApp final : public App {
 public:
  explicit TimerApp(int* fired) : fired_(fired) {}
  void start(Node& node) override {
    node.schedule(sim::seconds(10.0), [this] {
      ++own_;
      ++*fired_;
    });
  }

 private:
  int own_ = 0;
  int* fired_;
};

TEST(NodeTest, ReplacedAppTimerNeverFires) {
  Network network(Topology{{{0, 0}, {40, 0}}, 50.0}, NetworkConfig{});
  int stale = 0;
  int fresh = 0;
  network.attach_apps([&](Node&) { return std::make_unique<TimerApp>(&stale); });
  network.run(sim::seconds(1.0));
  ASSERT_EQ(stale, 0);
  ASSERT_EQ(network.scheduler().pending(), 2u);  // one straggler per node

  // Destroys the first Apps; their timers (due at 10 s) must not run.
  network.attach_apps([&](Node&) { return std::make_unique<TimerApp>(&fresh); });
  network.run(sim::seconds(30.0));
  EXPECT_EQ(stale, 0);
  EXPECT_EQ(fresh, 2);  // the replacement Apps' own timers (11 s) do
}

}  // namespace
}  // namespace icpda::net
