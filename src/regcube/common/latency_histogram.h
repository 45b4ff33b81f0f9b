#ifndef REGCUBE_COMMON_LATENCY_HISTOGRAM_H_
#define REGCUBE_COMMON_LATENCY_HISTOGRAM_H_

#include <algorithm>
#include <array>
#include <cstdint>

namespace regcube {

/// Latency histogram with power-of-two nanosecond buckets: bucket i counts
/// samples in [2^(i-1), 2^i) ns (bucket 0: <= 0 ns; the last bucket also
/// takes everything longer). Resolution is one binary order of magnitude.
/// Histograms merge by summing buckets, so the percentile of a merge is
/// the percentile of the union of samples, never an average of
/// percentiles. Not thread-safe; owners guard it with their own lock.
class LatencyHistogram {
 public:
  static constexpr int kBuckets = 40;

  void Record(std::int64_t ns) {
    int bucket = 0;
    for (std::int64_t v = ns; v > 0 && bucket < kBuckets - 1; v >>= 1) {
      ++bucket;
    }
    ++buckets_[static_cast<size_t>(bucket)];
    ++samples_;
  }

  void Merge(const LatencyHistogram& other) {
    for (size_t i = 0; i < buckets_.size(); ++i) {
      buckets_[i] += other.buckets_[i];
    }
    samples_ += other.samples_;
  }

  std::int64_t samples() const { return samples_; }

  /// Nearest-rank p99 in microseconds: the upper bound of the bucket that
  /// holds the ceil(0.99 n)-th sample. 0 when empty.
  double P99Us() const {
    if (samples_ == 0) return 0.0;
    const std::int64_t target = (samples_ * 99 + 99) / 100;
    std::int64_t seen = 0;
    for (int i = 0; i < kBuckets; ++i) {
      seen += buckets_[static_cast<size_t>(i)];
      if (seen >= target) {
        return static_cast<double>(1ll << std::min(i, 62)) / 1000.0;
      }
    }
    return 0.0;
  }

 private:
  std::array<std::int64_t, kBuckets> buckets_{};
  std::int64_t samples_ = 0;
};

}  // namespace regcube

#endif  // REGCUBE_COMMON_LATENCY_HISTOGRAM_H_
