#ifndef REGCUBE_CORE_INGEST_QUEUE_H_
#define REGCUBE_CORE_INGEST_QUEUE_H_

#include <condition_variable>
#include <cstdint>
#include <mutex>
#include <vector>

#include "regcube/common/bounded_ring.h"
#include "regcube/common/latency_histogram.h"
#include "regcube/common/status.h"
#include "regcube/core/stream_engine.h"

namespace regcube {

/// How writes reach the shards (EngineBuilder::SetIngestMode).
enum class IngestMode {
  kSync,   // callers absorb tuples inline under the shard mutex (legacy)
  kAsync,  // callers enqueue; a shard-owner thread absorbs off-thread
};

/// What happens when an async ingest queue is full
/// (EngineBuilder::SetBackpressure).
enum class BackpressurePolicy {
  kBlock,       // the producer waits for space: lossless, latency absorbs load
  kDropOldest,  // the oldest queued tuple is evicted: lossy, bounded staleness
  kReject,      // the overflow is refused: caller sees ResourceExhausted
};

/// Stable human-readable name ("block", "drop-oldest", "reject").
const char* BackpressurePolicyName(BackpressurePolicy policy);

/// Async ingest configuration, per engine (every shard gets its own queue
/// of `queue_capacity` tuples). The default is the synchronous path, so
/// existing construction sites are unaffected.
struct IngestConfig {
  IngestMode mode = IngestMode::kSync;
  std::int64_t queue_capacity = 4096;  // per-shard, in tuples
  BackpressurePolicy backpressure = BackpressurePolicy::kBlock;
};

/// Outcome of an asynchronous enqueue: how many tuples entered the queues,
/// how many older queued tuples were evicted to make room (kDropOldest),
/// and how many of this batch were refused (kReject — `status` carries the
/// typed ResourceExhausted error). Acceptance is not absorption: the data
/// becomes visible to reads only after the shard-owner threads drain it;
/// Flush() is the barrier that waits for exactly that.
struct IngestTicket {
  std::int64_t attempted = 0;
  std::int64_t enqueued = 0;
  std::int64_t dropped = 0;
  std::int64_t rejected = 0;
  Status status;  // OK unless rejected > 0

  bool ok() const { return status.ok(); }

  void Merge(const IngestTicket& other) {
    attempted += other.attempted;
    enqueued += other.enqueued;
    dropped += other.dropped;
    rejected += other.rejected;
    if (status.ok() && !other.status.ok()) status = other.status;
  }
};

/// Observable state of one shard's ingest queue. Counters are cumulative
/// since engine construction; `depth`/`high_water` describe the queue
/// itself. `p99_enqueue_us` is the 99th-percentile latency of an Enqueue
/// call (including any kBlock wait), estimated from a power-of-two
/// histogram — resolution is one binary order of magnitude.
struct ShardIngestStats {
  std::int64_t depth = 0;         // tuples queued right now
  std::int64_t high_water = 0;    // max depth ever reached
  std::int64_t enqueued = 0;      // tuples accepted into the queue
  std::int64_t absorbed = 0;      // tuples drained and applied to the shard
  std::int64_t dropped = 0;       // tuples evicted by kDropOldest
  std::int64_t rejected = 0;      // tuples refused by kReject
  std::int64_t blocked = 0;       // Enqueue calls that had to wait (kBlock)
  std::int64_t absorb_errors = 0; // drained tuples the shard engine refused
  double p99_enqueue_us = 0.0;

  // The histogram behind p99_enqueue_us, carried so Merge can recompute
  // the percentile of the *union* of samples. A percentile has no sum:
  // averaging per-shard p99s understates the tail whenever shards are
  // imbalanced, and even taking the max is only an upper bound — the
  // histogram sum is exact (to bucket resolution).
  LatencyHistogram enqueue_latency;

  /// Histogram-sums the latency figures (recomputing p99 from the summed
  /// buckets); falls back to worst-shard max when neither side carries a
  /// sample. All counters add.
  void Merge(const ShardIngestStats& other);
};

/// The whole-engine ingest report (Engine::IngestStats): the configured
/// mode/policy plus per-shard queue stats and their merged totals. In sync
/// mode `per_shard` is empty and the totals are zero — there are no queues.
struct IngestStats {
  IngestMode mode = IngestMode::kSync;
  BackpressurePolicy backpressure = BackpressurePolicy::kBlock;
  std::int64_t queue_capacity = 0;
  ShardIngestStats total;
  std::vector<ShardIngestStats> per_shard;
};

/// A bounded multi-producer single-consumer tuple queue — the decoupling
/// point of the async ingest subsystem. Many writer threads Enqueue
/// concurrently; exactly one consumer (the shard's ShardWriter thread)
/// drains with PopAll and acknowledges with MarkAbsorbed. All state is
/// guarded by one small mutex whose critical sections are index arithmetic
/// and slot moves — never tilt-frame maintenance, which is the whole
/// point: callers touch the queue lock, only the owner thread touches the
/// shard.
///
/// The queue also carries the Flush() barrier: `enqueued_seq()` names a
/// point in the accept order, and WaitResolved(seq) blocks until every
/// tuple accepted before that point has been either absorbed by the
/// consumer or deliberately dropped (kDropOldest). Absorption is
/// acknowledged under the same mutex the waiter reads, so "WaitResolved
/// returned" happens-after "the shard engine absorbed the tuple" — the
/// happens-before edge snapshots and tests build on.
class IngestQueue {
 public:
  IngestQueue(std::int64_t capacity, BackpressurePolicy policy);

  /// Producer side: appends `n` tuples in order, *consuming* them —
  /// accepted tuples are moved into the ring (no key copy under the
  /// lock), so callers hand over a scratch buffer they no longer need.
  /// kBlock waits for space (fairly interleaving with other producers);
  /// kDropOldest evicts from the head; kReject refuses the overflow and
  /// reports ResourceExhausted in the ticket. After Close(), remaining
  /// tuples are rejected with FailedPrecondition regardless of policy.
  IngestTicket Enqueue(StreamTuple* tuples, std::int64_t n);

  /// Consumer side: blocks until tuples are queued or the queue is closed,
  /// then moves *all* currently queued tuples into `out` (appended).
  /// Returns the number moved; 0 means closed-and-drained — the consumer's
  /// exit signal. Draining everything at once is what shrinks the shard
  /// mutex: the owner takes it once per drained batch, not once per tuple.
  std::int64_t PopAll(std::vector<StreamTuple>* out);

  /// Consumer side: acknowledges a popped batch after applying it to the
  /// shard — `absorbed` of the `popped` tuples landed; the rest were
  /// refused by the shard engine (`status` is its first error, recorded
  /// for the next Flush() to surface). Wakes WaitResolved waiters.
  void MarkAbsorbed(std::int64_t popped, std::int64_t absorbed,
                    const Status& status);

  /// The number of tuples ever accepted — a point in the accept order that
  /// WaitResolved can wait on.
  std::uint64_t enqueued_seq() const;

  /// Blocks until every tuple accepted before `seq` has been absorbed or
  /// dropped. Returns immediately when that already holds.
  void WaitResolved(std::uint64_t seq);

  /// The first shard-engine absorb error since the last call, cleared on
  /// read (Flush() surfaces it to the caller exactly once).
  Status TakeFirstError();

  /// Rejects future enqueues and wakes the consumer and all waiters; the
  /// consumer drains what remains, then PopAll returns 0.
  void Close();

  ShardIngestStats Stats() const;

  std::int64_t capacity() const { return capacity_; }

  /// Bytes retained by the preallocated ring slots — the fixed figure the
  /// "ingest.queue" memory pool accounts (keys' own heap storage varies
  /// per tuple and is not tracked; the accounting is analytic).
  std::int64_t SlotBytes() const {
    return capacity_ * static_cast<std::int64_t>(sizeof(StreamTuple));
  }

 private:
  const std::int64_t capacity_;
  const BackpressurePolicy policy_;

  mutable std::mutex mu_;
  std::condition_variable not_empty_;  // consumer waits here
  std::condition_variable not_full_;   // kBlock producers wait here
  std::condition_variable resolved_;   // Flush waiters wait here
  BoundedRing<StreamTuple> ring_;
  bool closed_ = false;

  // Counters (all guarded by mu_). resolved = absorbed + failed + dropped:
  // every accepted tuple ends in exactly one of those buckets, so a Flush
  // target of `enqueued_` is always eventually reached.
  std::uint64_t enqueued_ = 0;
  std::uint64_t absorbed_ = 0;
  std::uint64_t failed_ = 0;
  std::uint64_t dropped_ = 0;
  std::int64_t rejected_ = 0;
  std::int64_t blocked_calls_ = 0;
  std::int64_t high_water_ = 0;
  Status first_error_;

  LatencyHistogram enqueue_latency_;  // per Enqueue call
};

}  // namespace regcube

#endif  // REGCUBE_CORE_INGEST_QUEUE_H_
