#ifndef REGCUBE_API_ENGINE_H_
#define REGCUBE_API_ENGINE_H_

#include <functional>
#include <memory>
#include <mutex>
#include <string>
#include <utility>
#include <vector>

#include "regcube/api/query_spec.h"
#include "regcube/api/snapshot.h"
#include "regcube/common/memory_tracker.h"
#include "regcube/common/status.h"
#include "regcube/common/thread_pool.h"
#include "regcube/core/sharded_engine.h"

namespace regcube {

/// The facade engine: one object that owns the whole on-line analysis loop
/// of §4.5 — ingest -> seal -> cube -> exception drill — behind a sharded,
/// thread-safe core. Built exclusively through EngineBuilder.
///
/// Reads are snapshot-based. TakeSnapshot() gathers every shard's cells
/// (mostly from the shards' published generations, without their locks)
/// and returns an immutable CubeSnapshot; every query then runs lock-free
/// against it, so a large ComputeCube never stalls concurrent ingest.
/// Query() routes by kind: point kinds gather only the matching members,
/// cube kinds (for either algorithm) read the engine's maintained cube
/// memo, and the o-layer kinds read the revision-cached snapshot — so
/// repeated drilling between writes shares one materialized cube.
class Engine {
 public:
  using Algorithm = StreamCubeEngine::Algorithm;

  Engine(Engine&&) noexcept = default;
  Engine& operator=(Engine&&) noexcept = default;

  /// Absorbs one observation. Thread-safe; locks only the owning shard.
  /// In async mode (SetIngestMode) this enqueues instead — OK means
  /// accepted, not yet visible; Flush() is the visibility barrier.
  Status Ingest(const StreamTuple& tuple);

  /// Absorbs a batch, partitioned across shards. Thread-safe. The report
  /// says how many tuples were absorbed before the first error (the whole
  /// batch iff report.ok()). In async mode `absorbed` counts acceptance
  /// into the queues; IngestAsync's ticket is the precise async story.
  IngestReport IngestBatch(const std::vector<StreamTuple>& tuples);

  /// The async ingest door: enqueues the batch on the per-shard queues and
  /// returns as soon as every tuple is accepted, evicted-for, or refused
  /// per the configured backpressure policy. Shard-owner threads absorb
  /// off-thread; Flush() waits for everything accepted so far. Thread-safe
  /// from many producers. Pre: built with SetIngestMode(kAsync).
  IngestTicket IngestAsync(const std::vector<StreamTuple>& tuples);

  /// Drain barrier for async ingest: blocks until every tuple accepted
  /// before this call is absorbed (or deliberately dropped under
  /// kDropOldest) and returns the first absorb error since the last Flush.
  /// Everything waited for happens-before the return. No-op OK in sync
  /// mode.
  Status Flush();

  /// Ingest-queue observability: mode, policy, capacity, per-shard depth /
  /// high-water / counters / p99 enqueue latency, and merged totals.
  regcube::IngestStats IngestStats() const;

  /// Declares that no data with tick <= `t` remains in flight; barrier
  /// across all shards. In async mode this Flushes first, so queued tuples
  /// with ticks <= `t` land before the seal instead of being refused as
  /// late.
  Status SealThrough(TimeTick t);

  /// Freezes the current state as an immutable snapshot: per-shard cells
  /// are gathered under briefly-held per-shard locks, then all queries on
  /// the snapshot are lock-free. Memoized by engine revision — until the
  /// next write, every caller shares one snapshot (take → query many →
  /// drop). When the gather fails (a spilled cell's fault-in hit a disk
  /// fault) the returned snapshot carries the typed error in status() and
  /// every query on it returns that error; failed snapshots are never
  /// cached, so the next take retries.
  std::shared_ptr<const CubeSnapshot> TakeSnapshot();

  /// The one read entry point. Point kinds (kCell, kCellSeries) take the
  /// member-only fast path: each shard's member index is probed and only
  /// the m-layer cells that roll up into the queried cell are copied —
  /// O(matching members), never a full snapshot. Cube kinds (kCubeCell,
  /// kExceptionsAt, kDrillDown, kSupporters, kTopExceptions) read the
  /// engine's maintained cube over the spec's (level, k) window for both
  /// algorithms: a hit between writes, a revalidation when writes touched
  /// only open slots, otherwise an m/o patch or a popular-path rebuild.
  /// The o-layer kinds (kObservationDeck, kTrendChanges) are served from
  /// the revision-cached snapshot.
  Result<QueryResult> Query(const QuerySpec& spec);

  /// Recomputes the partially materialized cube over the most recent `k`
  /// sealed slots of tilt `level` — for callers that persist or hand the
  /// cube elsewhere. Query() is the right door for reading it.
  Result<RegressionCube> ComputeCube(int level, int k);

  TimeTick now() const { return sharded_->now(); }
  std::int64_t num_cells() const { return sharded_->num_cells(); }
  std::int64_t MemoryBytes() const { return sharded_->MemoryBytes(); }
  int num_shards() const { return sharded_->num_shards(); }

  /// Analytic memory accounting: every retained-byte category
  /// ("stream.tilt_frames", "snapshot.gather_cache", "cube.memo",
  /// "cube.memo.pinned_frames", "index.members", "ingest.queue") is
  /// maintained by the engine as it runs; with a cold
  /// tier configured, MemoryReport() appends the spill section
  /// ("spill.disk_bytes", "spill.live_bytes", "spill.garbage_bytes" —
  /// disk, not RAM). One call shows where every byte sits.
  const MemoryTracker& memory_tracker() const { return *tracker_; }
  std::vector<std::pair<std::string, std::int64_t>> MemoryReport() const;

  /// Persists the engine's whole stream state under `dir` (manifest +
  /// one frame file per shard, manifest written last as the commit
  /// point). Reopen with EngineBuilder::OpenFrom for a warm restart.
  /// Flushes async ingest first; safe to call while ingest continues
  /// (the checkpoint is one consistent cut).
  Status Checkpoint(const std::string& dir);

  /// Maintenance counters of the cube memo behind the cube-side Query
  /// kinds: hits, revalidations, patches (m/o only) and rebuilds.
  IncrementalCubeCache::Stats cube_memo_stats() const {
    return sharded_->cube_memo_stats();
  }

  /// Eviction/spill observability: budget, enforcement and per-rung
  /// eviction counts, cold-cell population, spilled/faulted bytes, and
  /// the fault-in p99 (µs). Zeros when no budget/spill dir is configured.
  regcube::SpillStats SpillStats() const;

  const CubeSchema& schema() const { return sharded_->schema(); }
  const CuboidLattice& lattice() const { return sharded_->lattice(); }
  const ExceptionPolicy& exception_policy() const { return policy_; }

  /// Human-readable rendering of a queried cell, using dimension level
  /// names.
  std::string RenderCell(const CellResult& cell) const;

  /// Forces a compaction probe over every shard's spill segment (normally
  /// sampled from budget enforcement). Cheap when nothing crossed the
  /// garbage threshold.
  void CompactSegments();

 private:
  friend class EngineBuilder;

  Engine(std::shared_ptr<const CubeSchema> schema, ExceptionPolicy policy,
         StreamCubeEngine::Options options, int num_shards, int read_threads,
         IngestConfig ingest);

  /// Stands up the memory-governed storage tier (frame store + governor +
  /// the api snapshot-cache eviction rung). Called by Build()/OpenFrom()
  /// after construction, before the engine is handed out.
  Status InitStorage(const MemoryBudgetConfig& budget);

  /// Snapshot memoized by engine revision; replaced (never mutated) when
  /// a write has moved the revision. Heap-allocated so Engine stays
  /// movable despite the mutex.
  struct SnapshotCache {
    std::mutex mu;
    std::shared_ptr<const CubeSnapshot> snapshot;
  };

  std::shared_ptr<const CubeSchema> schema_;
  ExceptionPolicy policy_;
  std::shared_ptr<ThreadPool> pool_;
  std::unique_ptr<MemoryTracker> tracker_;  // heap: Engine stays movable
  std::unique_ptr<ShardedStreamEngine> sharded_;
  std::unique_ptr<SnapshotCache> cache_;
};

/// Fluent construction of an Engine; the only way to get one. Collects the
/// schema, tilt policy, algorithm, exception policy, key mapper, shard
/// count and read-pool width, and validates the whole configuration at
/// Build():
///
///   auto engine = EngineBuilder()
///                     .SetSchema(schema)
///                     .SetTiltPolicy(MakeNaturalCalendarTiltPolicy())
///                     .SetExceptionPolicy(ExceptionPolicy(0.1))
///                     .SetAlgorithm(Engine::Algorithm::kPopularPath)
///                     .SetShardCount(8)
///                     .Build();
///   if (!engine.ok()) { ... }
///
/// Build() is const and repeatable: one configured builder can stamp out
/// several engines.
class EngineBuilder {
 public:
  EngineBuilder();

  /// Required: the multi-dimensional space with its m-/o-layers.
  EngineBuilder& SetSchema(std::shared_ptr<const CubeSchema> schema);

  /// Required: the tilt time frame structure shared by every cell.
  EngineBuilder& SetTiltPolicy(std::shared_ptr<const TiltPolicy> policy);

  /// First tick of the stream (default 0).
  EngineBuilder& SetStartTick(TimeTick tick);

  /// Cubing algorithm for ComputeCube / cube-side queries (default
  /// m/o H-cubing).
  EngineBuilder& SetAlgorithm(Engine::Algorithm algorithm);

  /// Exception predicate for cubing and cube-side queries (default:
  /// threshold 0, everything exceptional).
  EngineBuilder& SetExceptionPolicy(ExceptionPolicy policy);

  /// Popular drilling path; requires SetAlgorithm(kPopularPath).
  EngineBuilder& SetDrillPath(DrillPath path);

  /// Maps incoming primitive-layer keys to m-layer keys (identity if
  /// unset). Applied before shard hashing.
  EngineBuilder& SetKeyMapper(std::function<CellKey(const CellKey&)> mapper);

  /// Number of hash-partitioned shards, >= 1 (default 1).
  EngineBuilder& SetShardCount(int shards);

  /// Width of the read pool that parallelizes snapshot gathering and
  /// per-cuboid cubing. 0 (default) selects the hardware concurrency;
  /// 1 keeps reads fully serial (no pool). Results are identical for
  /// every width.
  EngineBuilder& SetReadThreads(int threads);

  /// Write path (default kSync). kAsync puts a bounded MPSC queue in
  /// front of every shard, drained by a dedicated shard-owner thread;
  /// Ingest/IngestBatch/IngestAsync then return on acceptance and Flush()
  /// is the visibility barrier. Absorbed state is bit-identical to the
  /// sync path over the same stream.
  EngineBuilder& SetIngestMode(IngestMode mode);

  /// Per-shard ingest queue capacity in tuples (default 4096); async mode
  /// only. Must be >= 1.
  EngineBuilder& SetQueueCapacity(std::int64_t capacity);

  /// What a full queue does to producers (default kBlock); async mode
  /// only. kBlock waits (lossless), kDropOldest evicts the oldest queued
  /// tuple (lossy, bounded staleness), kReject refuses the overflow with
  /// ResourceExhausted on the ticket.
  EngineBuilder& SetBackpressure(BackpressurePolicy policy);

  /// Global memory budget in bytes shared by every shard (default 0 =
  /// unbounded). When retained bytes exceed it, the engine walks a typed
  /// eviction ladder after ingest batches: drop the cube memo, drop the
  /// snapshot/gather caches and published runs, then — with a spill dir —
  /// spill cold tilt frames to disk. Queries stay bit-identical; spilled
  /// frames fault back in transparently.
  EngineBuilder& SetMemoryBudget(std::int64_t budget_bytes);

  /// Directory cold frames spill to (default unset = no cold tier; the
  /// ladder then stops at the cache rungs). Created if missing; spill
  /// segments are scratch files, deleted when the engine is destroyed.
  /// One live engine per directory: Build/OpenFrom of a second engine on
  /// a directory another live engine holds fail with FailedPrecondition.
  EngineBuilder& SetSpillDir(std::string dir);

  /// Online-compaction trigger: a shard's spill segment is rewritten when
  /// its garbage reaches `ratio` x its live bytes (and the configured
  /// minimum, see SetCompactMinBytes). Default 1.0 — steady-state disk is
  /// bounded at roughly 2x live data. Must be > 0.
  EngineBuilder& SetCompactThreshold(double ratio);

  /// Minimum garbage bytes before a segment qualifies for compaction
  /// (default 32 KiB) — exempts tiny segments where a rewrite costs more
  /// than it reclaims. Must be >= 0.
  EngineBuilder& SetCompactMinBytes(std::int64_t bytes);

  /// Installs a fault-injection seam on the engine's cold tier: every
  /// frame-store open/write/read/mmap/rename consults `injector` first.
  /// Not owned; must outlive the engine. Testing only — lets a test fail
  /// the Nth disk I/O deterministically and assert the typed degradation.
  EngineBuilder& SetFaultInjector(FaultInjector* injector);

  /// Validates the configuration; InvalidArgument describes the first
  /// problem found (missing schema or tilt policy, bad shard count or
  /// read-thread count, drill path without the popular-path algorithm or
  /// not a valid o->m chain, negative memory budget, compaction ratio
  /// <= 0, negative compaction min bytes).
  Result<Engine> Build() const;

  /// Warm restart: builds an engine from a Checkpoint() directory. Reads
  /// the manifest, adopts its start tick, validates it against this
  /// builder's schema/tilt policy, maps the frame files read-only and
  /// restores every cell as lazily-spilled state — the first query is
  /// served by fault-ins straight from the mapped files, and ingest
  /// resumes where the checkpointed stream stopped. The shard count may
  /// differ from the writer's. Composes with SetMemoryBudget/SetSpillDir.
  Result<Engine> OpenFrom(const std::string& dir) const;

 private:
  std::shared_ptr<const CubeSchema> schema_;
  StreamCubeEngine::Options options_;
  ExceptionPolicy policy_;
  int shards_ = 1;
  int read_threads_ = 0;
  IngestConfig ingest_;
  MemoryBudgetConfig budget_;
  FaultInjector* fault_injector_ = nullptr;
};

}  // namespace regcube

#endif  // REGCUBE_API_ENGINE_H_
