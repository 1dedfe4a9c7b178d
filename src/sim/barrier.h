// Reusable reduction barrier for the sharded conservative-PDES engine.
//
// All parties arrive; the LAST arriver runs a caller-supplied serial
// section while every other party waits, then releases the generation.
// The serial section is where the engine plans the next drain segment
// and executes gated (cross-shard) events in canonical order, so it
// needs exclusive, happens-before-ordered access to every shard's
// scheduler and state: writes a party makes before arriving are
// visible to the serial section, and its writes are visible to every
// party after release.
//
// Protocol (sense-reversing, spin-then-park; DESIGN.md §5j). Arrival
// is one acq_rel fetch_add on `arrived_`: the increments form a
// release sequence, so the last arriver's acquire sees every earlier
// party's writes. The last arriver runs `on_last`, resets the counter
// and publishes `generation_ + 1` with a release store. Waiters poll
// the generation with acquire loads: first a short spin with a CPU
// pause hint (a drain round is a few microseconds, so the release is
// usually already on its way), then a bounded run of
// std::this_thread::yield() — which hands the core over when workers
// outnumber cores, where pure spinning starves the straggler it is
// waiting for — and finally they park on a mutex + condition variable.
// Parking uses a sleeper count that both sides touch under the mutex:
// a waiter increments it and re-checks the generation under the lock
// before sleeping; the releaser stores the generation first, then
// takes the lock and notifies only if someone sleeps. Either the
// waiter's check comes after the releaser's critical section (and
// sees the new generation) or the releaser sees the sleeper (and
// notifies it), so no wake-up is lost. std::atomic::wait is not used:
// with libstdc++ 12 it hung the engine's workers in futex waits.
//
// The counter, the generation and the parking state sit on separate
// cache lines so arrivals do not bounce the line waiters poll.
// ThreadSanitizer-clean: every cross-thread hand-off is an atomic
// acquire/release pair or the mutex.
#pragma once

#include <atomic>
#include <condition_variable>
#include <cstddef>
#include <cstdint>
#include <mutex>
#include <thread>

#if defined(__x86_64__) || defined(__i386__)
#include <immintrin.h>
#endif

namespace icpda::sim {

class ReductionBarrier {
 public:
  explicit ReductionBarrier(std::size_t parties);

  ReductionBarrier(const ReductionBarrier&) = delete;
  ReductionBarrier& operator=(const ReductionBarrier&) = delete;

  [[nodiscard]] std::size_t parties() const { return parties_; }

  /// Block until all parties have arrived. The last arriver runs
  /// `on_last()` alone, before any party is released. `on_last` must
  /// not throw and must not call back into the barrier.
  template <typename F>
  void arrive_and_wait(F&& on_last) {
    // The generation cannot advance before this party arrives, and
    // this thread already observed the current value when it was last
    // released, so a relaxed read is the current generation.
    const std::uint64_t gen = generation_.load(std::memory_order_relaxed);
    if (arrived_.fetch_add(1, std::memory_order_acq_rel) + 1 == parties_) {
      on_last();
      arrived_.store(0, std::memory_order_relaxed);
      release(gen + 1);
    } else {
      wait_for(gen);
    }
  }

  /// Plain barrier (no serial section).
  void arrive_and_wait() {
    arrive_and_wait([] {});
  }

 private:
  static constexpr std::size_t kLine = 64;
  // Polls before yielding: a pause costs tens to ~150 cycles, so this
  // spins for a few microseconds. Keep it short: whenever threads
  // outnumber cores (more shards than cores, or several sharded
  // networks in one campaign), a spinning waiter holds the core the
  // straggler needs. At 4096 polls, 8 shards on 4 cores ran 3-4x
  // slower than a plain condition variable; at 64 they run ~3x faster.
  static constexpr int kSpins = 64;
  // Yields before parking: these carry the wait across a drain round
  // (tens of microseconds at N = 100k) and hand the core over when
  // another thread needs it. 1024 cut the N = 20k-100k barrier wait by
  // a fifth against 64, and the oversubscribed runs did not slow.
  static constexpr int kYields = 1024;

  static void cpu_relax() {
#if defined(__x86_64__) || defined(__i386__)
    _mm_pause();
#elif defined(__aarch64__)
    asm volatile("yield" ::: "memory");
#endif
  }

  [[nodiscard]] bool released(std::uint64_t gen) const {
    return generation_.load(std::memory_order_acquire) != gen;
  }

  void release(std::uint64_t next) {
    generation_.store(next, std::memory_order_release);
    const std::scoped_lock lock(park_mutex_);
    if (sleepers_ != 0) park_cv_.notify_all();
  }

  void wait_for(std::uint64_t gen) {
    for (int i = 0; i < kSpins; ++i) {
      if (released(gen)) return;
      cpu_relax();
    }
    for (int i = 0; i < kYields; ++i) {
      if (released(gen)) return;
      std::this_thread::yield();
    }
    std::unique_lock lock(park_mutex_);
    ++sleepers_;
    park_cv_.wait(lock, [&] { return released(gen); });
    --sleepers_;
  }

  const std::size_t parties_;
  alignas(kLine) std::atomic<std::size_t> arrived_{0};
  alignas(kLine) std::atomic<std::uint64_t> generation_{0};
  alignas(kLine) std::mutex park_mutex_;
  std::condition_variable park_cv_;
  std::size_t sleepers_ = 0;  ///< guarded by park_mutex_
};

}  // namespace icpda::sim
