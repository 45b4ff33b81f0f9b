#include "regcube/core/ingest_queue.h"

#include <algorithm>
#include <chrono>

#include "regcube/common/str.h"

namespace regcube {

namespace {
std::int64_t NowNs() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}
}  // namespace

void ShardIngestStats::Merge(const ShardIngestStats& other) {
  depth += other.depth;
  high_water += other.high_water;
  enqueued += other.enqueued;
  absorbed += other.absorbed;
  dropped += other.dropped;
  rejected += other.rejected;
  blocked += other.blocked;
  absorb_errors += other.absorb_errors;
  enqueue_latency.Merge(other.enqueue_latency);
  if (enqueue_latency.samples() > 0) {
    // The percentile of the union, recomputed from the summed buckets —
    // never an average of per-shard percentiles.
    p99_enqueue_us = enqueue_latency.P99Us();
  } else if (other.p99_enqueue_us > p99_enqueue_us) {
    p99_enqueue_us = other.p99_enqueue_us;  // no histogram: worst dominates
  }
}

const char* BackpressurePolicyName(BackpressurePolicy policy) {
  switch (policy) {
    case BackpressurePolicy::kBlock:
      return "block";
    case BackpressurePolicy::kDropOldest:
      return "drop-oldest";
    case BackpressurePolicy::kReject:
      return "reject";
  }
  return "unknown";
}

IngestQueue::IngestQueue(std::int64_t capacity, BackpressurePolicy policy)
    : capacity_(capacity), policy_(policy), ring_(capacity) {
  RC_CHECK(capacity >= 1) << "queue capacity must be >= 1, got " << capacity;
}

IngestTicket IngestQueue::Enqueue(StreamTuple* tuples, std::int64_t n) {
  IngestTicket ticket;
  ticket.attempted = n;
  if (n == 0) return ticket;
  const std::int64_t start_ns = NowNs();

  std::unique_lock<std::mutex> lock(mu_);
  const std::uint64_t dropped_before = dropped_;
  bool waited = false;
  for (std::int64_t i = 0; i < n; ++i) {
    bool refused = false;
    while (!closed_ && ring_.full() && !refused) {
      switch (policy_) {
        case BackpressurePolicy::kBlock:
          waited = true;
          not_empty_.notify_one();  // make sure the consumer is coming
          not_full_.wait(lock, [this] { return !ring_.full() || closed_; });
          break;
        case BackpressurePolicy::kDropOldest:
          ring_.PopFront();
          ++dropped_;
          // An eviction resolves that tuple for any pending Flush.
          resolved_.notify_all();
          break;
        case BackpressurePolicy::kReject:
          refused = true;
          break;
      }
    }
    if (refused) {
      const std::int64_t tail = n - i;
      rejected_ += tail;
      ticket.rejected = tail;
      ticket.status = Status::ResourceExhausted(StrPrintf(
          "ingest queue full (capacity %lld): %lld of %lld tuples rejected",
          static_cast<long long>(capacity_), static_cast<long long>(tail),
          static_cast<long long>(n)));
      break;
    }
    if (closed_) {
      ticket.rejected += n - i;
      ticket.status = Status::FailedPrecondition(
          "ingest queue is closed (engine shutting down)");
      break;
    }
    ring_.PushBack(std::move(tuples[i]));
    ++enqueued_;
    ++ticket.enqueued;
    high_water_ = std::max(high_water_, ring_.size());
  }
  // Evictions by other producers can interleave only while this call waits
  // in kBlock mode, and kBlock never evicts — so the cumulative delta is
  // exactly this call's evictions.
  ticket.dropped = static_cast<std::int64_t>(dropped_ - dropped_before);
  if (waited) ++blocked_calls_;
  if (ticket.enqueued > 0) not_empty_.notify_one();
  enqueue_latency_.Record(NowNs() - start_ns);
  return ticket;
}

std::int64_t IngestQueue::PopAll(std::vector<StreamTuple>* out) {
  std::unique_lock<std::mutex> lock(mu_);
  not_empty_.wait(lock, [this] { return !ring_.empty() || closed_; });
  const std::int64_t n = ring_.size();
  out->reserve(out->size() + static_cast<size_t>(n));
  for (std::int64_t i = 0; i < n; ++i) out->push_back(ring_.PopFront());
  if (n > 0) not_full_.notify_all();
  return n;
}

void IngestQueue::MarkAbsorbed(std::int64_t popped, std::int64_t absorbed,
                               const Status& status) {
  std::lock_guard<std::mutex> lock(mu_);
  absorbed_ += static_cast<std::uint64_t>(absorbed);
  failed_ += static_cast<std::uint64_t>(popped - absorbed);
  if (!status.ok() && first_error_.ok()) first_error_ = status;
  resolved_.notify_all();
}

std::uint64_t IngestQueue::enqueued_seq() const {
  std::lock_guard<std::mutex> lock(mu_);
  return enqueued_;
}

void IngestQueue::WaitResolved(std::uint64_t seq) {
  std::unique_lock<std::mutex> lock(mu_);
  resolved_.wait(lock, [this, seq] {
    return absorbed_ + failed_ + dropped_ >= seq;
  });
}

Status IngestQueue::TakeFirstError() {
  std::lock_guard<std::mutex> lock(mu_);
  Status out = std::move(first_error_);
  first_error_ = Status::OK();
  return out;
}

void IngestQueue::Close() {
  std::lock_guard<std::mutex> lock(mu_);
  closed_ = true;
  not_empty_.notify_all();
  not_full_.notify_all();
  resolved_.notify_all();
}

ShardIngestStats IngestQueue::Stats() const {
  std::lock_guard<std::mutex> lock(mu_);
  ShardIngestStats stats;
  stats.depth = ring_.size();
  stats.high_water = high_water_;
  stats.enqueued = static_cast<std::int64_t>(enqueued_);
  stats.absorbed = static_cast<std::int64_t>(absorbed_);
  stats.dropped = static_cast<std::int64_t>(dropped_);
  stats.rejected = rejected_;
  stats.blocked = blocked_calls_;
  stats.absorb_errors = static_cast<std::int64_t>(failed_);
  stats.enqueue_latency = enqueue_latency_;
  stats.p99_enqueue_us = enqueue_latency_.P99Us();
  return stats;
}

}  // namespace regcube
