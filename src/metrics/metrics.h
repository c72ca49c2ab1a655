#ifndef SES_METRICS_METRICS_H_
#define SES_METRICS_METRICS_H_

#include <atomic>
#include <chrono>
#include <cstdint>

namespace ses {

/// A thread-safe counter. Used where producer and consumer threads update
/// the same statistic (e.g. the matches the parallel partitioned runtime's
/// workers have sealed and its ingest thread has not yet emitted). Relaxed
/// ordering: counters are statistics, not synchronization.
class AtomicCounter {
 public:
  void Increment(int64_t delta = 1) {
    value_.fetch_add(delta, std::memory_order_relaxed);
  }
  int64_t value() const { return value_.load(std::memory_order_relaxed); }
  void Reset() { value_.store(0, std::memory_order_relaxed); }

 private:
  std::atomic<int64_t> value_{0};
};

/// A thread-safe gauge that remembers its maximum (CAS max-update loop).
class AtomicMaxGauge {
 public:
  void Observe(int64_t value) {
    current_.store(value, std::memory_order_relaxed);
    int64_t seen = max_.load(std::memory_order_relaxed);
    while (value > seen &&
           !max_.compare_exchange_weak(seen, value,
                                       std::memory_order_relaxed)) {
    }
  }
  int64_t current() const { return current_.load(std::memory_order_relaxed); }
  int64_t max() const { return max_.load(std::memory_order_relaxed); }
  void Reset() {
    current_.store(0, std::memory_order_relaxed);
    max_.store(0, std::memory_order_relaxed);
  }

 private:
  std::atomic<int64_t> current_{0};
  std::atomic<int64_t> max_{0};
};

/// Wall-clock stopwatch with nanosecond resolution.
class Stopwatch {
 public:
  Stopwatch() { Restart(); }
  void Restart() { start_ = Clock::now(); }
  /// Elapsed time since construction or the last Restart().
  double ElapsedSeconds() const {
    return std::chrono::duration<double>(Clock::now() - start_).count();
  }
  int64_t ElapsedNanos() const {
    return std::chrono::duration_cast<std::chrono::nanoseconds>(Clock::now() -
                                                                start_)
        .count();
  }

 private:
  using Clock = std::chrono::steady_clock;
  Clock::time_point start_;
};

}  // namespace ses

#endif  // SES_METRICS_METRICS_H_
