#ifndef REGCUBE_COMMON_MEMORY_TRACKER_H_
#define REGCUBE_COMMON_MEMORY_TRACKER_H_

#include <cstddef>
#include <cstdint>
#include <functional>
#include <map>
#include <mutex>
#include <string>
#include <string_view>
#include <vector>

namespace regcube {

/// Analytic accounting of the bytes retained by the data structures a cubing
/// run keeps alive (H-tree nodes, header tables, materialized cells,
/// exception cells, tilt-frame slots, snapshot-pinned frames). This mirrors
/// what the paper's "Memory Usage" axis measures: peak retained state of the
/// algorithm, independent of allocator behavior.
///
/// Components register byte counts under a category name; the tracker keeps
/// both the current total and the high-water mark. All methods are
/// thread-safe: the sharded engine's shards account tilt-frame bytes from
/// whichever thread holds the owning shard's lock.
class MemoryTracker {
 public:
  MemoryTracker() = default;

  // Trackers are identity objects shared by reference; copying one would
  // silently fork the accounting.
  MemoryTracker(const MemoryTracker&) = delete;
  MemoryTracker& operator=(const MemoryTracker&) = delete;

  /// Adds `bytes` under `category`.
  void Add(std::string_view category, std::int64_t bytes);

  /// Subtracts `bytes` under `category`. The per-category total must not go
  /// negative (checked).
  void Release(std::string_view category, std::int64_t bytes);

  /// Current total bytes across all categories.
  std::int64_t current_bytes() const;

  /// Highest value `current_bytes()` has reached.
  std::int64_t peak_bytes() const;

  /// Current bytes in one category (0 if never touched).
  std::int64_t category_bytes(std::string_view category) const;

  /// Highest value one category has reached (0 if never touched) — the
  /// per-pool high-water mark the memory governor sizes budgets against.
  std::int64_t category_peak_bytes(std::string_view category) const;

  /// Snapshot of all categories, sorted by name.
  std::vector<std::pair<std::string, std::int64_t>> Snapshot() const;

  /// One category's current and high-water bytes, together.
  struct CategoryUsage {
    std::string name;
    std::int64_t current = 0;
    std::int64_t peak = 0;
  };

  /// Snapshot of all categories with their high-water marks, sorted by
  /// name — what regcube_cli's memory block prints.
  std::vector<CategoryUsage> SnapshotWithPeaks() const;

  /// Resets all counters (including the peaks) to zero.
  void Reset();

 private:
  mutable std::mutex mu_;
  struct Pool {
    std::int64_t current = 0;
    std::int64_t peak = 0;
  };
  // Transparent comparator: lookups by string_view build no std::string, so
  // accounting a category whose name outgrows the small-string buffer
  // allocates only when the category is first created.
  std::map<std::string, Pool, std::less<>> by_category_;
  std::int64_t current_ = 0;
  std::int64_t peak_ = 0;
};

}  // namespace regcube

#endif  // REGCUBE_COMMON_MEMORY_TRACKER_H_
