// perfbench — shared measurement types.
//
// The benchmark binary runs one workload as a series of repetitions. Each
// repetition sets up from the seed, runs its timed phases and adds one
// sample per metric; run.py reduces the samples to medians. Every
// repetition at one seed must produce the same simulated statistics, so
// each one also folds its counters into a digest that has to match the
// first repetition's.
#pragma once

#include <algorithm>
#include <chrono>
#include <cstdint>
#include <map>
#include <string>
#include <vector>

namespace perfbench {

using Clock = std::chrono::steady_clock;

[[nodiscard]] inline double ns_between(Clock::time_point a,
                                       Clock::time_point b) {
  return std::chrono::duration<double, std::nano>(b - a).count();
}

/// Requests per batched decision call: one bus batch's worth.
inline constexpr std::size_t kWireBatch = 256;

[[nodiscard]] inline double share(std::uint64_t part, std::uint64_t whole) {
  return whole == 0 ? 0.0 : static_cast<double>(part) / static_cast<double>(whole);
}

[[nodiscard]] inline double median_of(std::vector<double> xs) {
  if (xs.empty()) return 0.0;
  std::sort(xs.begin(), xs.end());
  const std::size_t n = xs.size();
  return n % 2 == 1 ? xs[n / 2] : 0.5 * (xs[n / 2 - 1] + xs[n / 2]);
}

/// Nearest-rank percentile (q in [0, 1]) of an already sorted vector.
[[nodiscard]] inline double percentile_sorted(const std::vector<double>& xs,
                                              double q) {
  if (xs.empty()) return 0.0;
  const auto rank = static_cast<std::size_t>(q * static_cast<double>(xs.size()));
  return xs[std::min(rank, xs.size() - 1)];
}

/// Mean cost of one back-to-back clock read pair, subtracted from
/// per-call timings so a single call's latency excludes the timer.
[[nodiscard]] inline double clock_overhead_ns() {
  constexpr int kReads = 4096;
  double total = 0.0;
  for (int i = 0; i < kReads; ++i) {
    const Clock::time_point t0 = Clock::now();
    total += ns_between(t0, Clock::now());
  }
  return total / kReads;
}

/// FNV-1a over 64-bit words: the repetition digest.
class Digest {
 public:
  void add(std::uint64_t word) noexcept {
    for (int i = 0; i < 8; ++i) {
      state_ ^= (word >> (8 * i)) & 0xFF;
      state_ *= 0x100000001B3ULL;
    }
  }
  [[nodiscard]] std::uint64_t value() const noexcept { return state_; }

 private:
  std::uint64_t state_ = 0xCBF29CE484222325ULL;
};

/// Named samples, one per repetition unless stated otherwise.
class Samples {
 public:
  void add(const std::string& name, const std::string& unit, double value) {
    Series& series = series_[name];
    series.unit = unit;
    series.values.push_back(value);
  }

  struct Series {
    std::string unit;
    std::vector<double> values;
  };
  [[nodiscard]] const std::map<std::string, Series>& all() const noexcept {
    return series_;
  }

 private:
  std::map<std::string, Series> series_;
};

/// Faults the benchmark's own tests inject to prove the failure
/// counters are live.
enum class Inject : std::uint8_t {
  kNone,
  kWrongNodeTable,  // every node's wire tables compiled for another node
  kBitflipDelta,    // one byte of every delivered OTA delta flipped
};

/// Everything one workload run reports.
struct Outcome {
  std::uint64_t ops = 0;
  std::uint64_t ops_failed = 0;
  /// Legitimate transmits an attack workload lost by design (floods,
  /// forged ids): reported, but not failed operations.
  std::uint64_t ops_lost = 0;
  std::uint32_t reps = 0;
  std::vector<std::string> check_failures;
  Samples samples;

  void check(bool ok, const std::string& what) {
    if (!ok &&
        std::find(check_failures.begin(), check_failures.end(), what) ==
            check_failures.end()) {
      check_failures.push_back(what);
    }
  }
};

struct RunOptions {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  bool smoke = false;
  Inject inject = Inject::kNone;
  std::string span_out;  // traced runs write their spans here at exit
  Clock::time_point process_start;
};

}  // namespace perfbench
