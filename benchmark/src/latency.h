#pragma once

#include <chrono>
#include <cstdint>
#include <vector>

namespace bench {

/// Monotonic wall clock in nanoseconds (steady_clock; a vDSO read).
inline uint64_t NowNs() {
  return static_cast<uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now().time_since_epoch())
          .count());
}

/// Log-linear latency histogram: 128 linear sub-buckets per power of two,
/// so a reported percentile is within 0.8% of the true sample. One per
/// worker; merged after the run.
class LatencyHistogram {
 public:
  static constexpr uint32_t kSubBits = 7;
  static constexpr uint32_t kSub = 1u << kSubBits;

  LatencyHistogram() : buckets_((64 - kSubBits + 1) * kSub, 0) {}

  void Record(uint64_t ns) {
    buckets_[BucketOf(ns)]++;
    count_++;
    sum_ += ns;
  }

  void Merge(const LatencyHistogram& o) {
    for (size_t i = 0; i < buckets_.size(); i++) buckets_[i] += o.buckets_[i];
    count_ += o.count_;
    sum_ += o.sum_;
  }

  uint64_t count() const { return count_; }
  double MeanNs() const {
    return count_ == 0 ? 0 : static_cast<double>(sum_) / static_cast<double>(count_);
  }

  /// Value at quantile q in [0, 1], interpolated inside its bucket.
  double QuantileNs(double q) const {
    if (count_ == 0) return 0;
    const double target = q * static_cast<double>(count_);
    double seen = 0;
    for (size_t b = 0; b < buckets_.size(); b++) {
      if (buckets_[b] == 0) continue;
      const double next = seen + static_cast<double>(buckets_[b]);
      if (next >= target) {
        const double lo = static_cast<double>(LowerBound(b));
        const double hi = static_cast<double>(LowerBound(b + 1));
        const double frac = (target - seen) / static_cast<double>(buckets_[b]);
        return lo + frac * (hi - lo);
      }
      seen = next;
    }
    return static_cast<double>(LowerBound(buckets_.size()));
  }

 private:
  static size_t BucketOf(uint64_t v) {
    if (v < kSub) return static_cast<size_t>(v);
    const uint32_t msb = 63 - static_cast<uint32_t>(__builtin_clzll(v));
    const uint32_t shift = msb - kSubBits;
    return static_cast<size_t>(shift + 1) * kSub + ((v >> shift) - kSub);
  }
  static uint64_t LowerBound(size_t b) {
    if (b < kSub) return b;
    const size_t shift = b / kSub - 1;
    return (static_cast<uint64_t>(kSub) + b % kSub) << shift;
  }

  std::vector<uint64_t> buckets_;
  uint64_t count_ = 0;
  uint64_t sum_ = 0;
};

}  // namespace bench
