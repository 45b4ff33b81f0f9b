#include "regcube/api/engine.h"

#include <utility>

#include "regcube/common/str.h"
#include "regcube/io/binary_io.h"
#include "regcube/io/frame_store.h"

namespace regcube {

Engine::Engine(std::shared_ptr<const CubeSchema> schema,
               ExceptionPolicy policy, StreamCubeEngine::Options options,
               int num_shards, int read_threads, IngestConfig ingest)
    : schema_(std::move(schema)),
      policy_(std::move(policy)),
      pool_(read_threads == 1 ? nullptr
                              : std::make_shared<ThreadPool>(read_threads)),
      tracker_(std::make_unique<MemoryTracker>()),
      sharded_(std::make_unique<ShardedStreamEngine>(schema_,
                                                     std::move(options),
                                                     num_shards, pool_,
                                                     ingest)),
      cache_(std::make_unique<SnapshotCache>()) {
  sharded_->set_memory_tracker(tracker_.get());
}

Status Engine::Ingest(const StreamTuple& tuple) {
  return sharded_->Ingest(tuple);
}

IngestReport Engine::IngestBatch(const std::vector<StreamTuple>& tuples) {
  return sharded_->IngestBatch(tuples);
}

IngestTicket Engine::IngestAsync(const std::vector<StreamTuple>& tuples) {
  return sharded_->IngestAsync(tuples);
}

Status Engine::Flush() { return sharded_->Flush(); }

regcube::IngestStats Engine::IngestStats() const {
  return sharded_->IngestStats();
}

Status Engine::SealThrough(TimeTick t) { return sharded_->SealThrough(t); }

std::shared_ptr<const CubeSnapshot> Engine::TakeSnapshot() {
  const std::uint64_t revision = sharded_->revision();
  {
    std::lock_guard<std::mutex> lock(cache_->mu);
    if (cache_->snapshot != nullptr &&
        cache_->snapshot->revision() == revision) {
      return cache_->snapshot;
    }
  }
  // Gather outside the cache lock: a snapshot in progress must not block
  // readers that can still be served from the cached one.
  auto fresh = std::shared_ptr<const CubeSnapshot>(
      new CubeSnapshot(schema_, policy_, sharded_->options(), pool_,
                       sharded_->GatherAlignedCells()));
  if (!fresh->status().ok()) {
    // A failed gather (fault-in hit a disk fault) must not poison the
    // memo: callers see the typed error on this snapshot, and the next
    // take retries the gather instead of being served the failure.
    return fresh;
  }
  // The replaced snapshot is released after unlocking: when the cache held
  // its last reference, freeing its frames and cube must not keep
  // MemoryReport and the governor's usage probe waiting on the cache lock.
  std::shared_ptr<const CubeSnapshot> replaced;
  {
    std::lock_guard<std::mutex> lock(cache_->mu);
    // Install only if strictly newer: a slow gather must not clobber a
    // racer's fresher snapshot (revisions are monotonic, so an older
    // entry could never match again and every read would re-gather).
    if (cache_->snapshot == nullptr ||
        cache_->snapshot->revision() < fresh->revision()) {
      replaced = std::exchange(cache_->snapshot, fresh);
    }
  }
  return fresh;
}

Result<RegressionCube> Engine::ComputeCube(int level, int k) {
  // Rides the maintained cube memo (bit-identical to the from-scratch
  // snapshot computation); the by-value contract costs one deep copy.
  return sharded_->ComputeCube(level, k);
}

Result<QueryResult> Engine::Query(const QuerySpec& spec) {
  // Point kinds never touch a full snapshot: each shard hash-probes its
  // ingest-maintained member index under its lock and exports only the
  // matching cells — O(matching members), no cell scan, no O(all cells)
  // gather. (A held CubeSnapshot still answers point queries by scanning
  // its own frozen cells; results are identical, in canonical order.)
  switch (spec.kind) {
    case QueryKind::kCell:
    case QueryKind::kCellSeries: {
      if (spec.kind == QueryKind::kCell) {
        auto isb = sharded_->QueryCell(spec.cuboid, spec.key, spec.level,
                                       spec.k);
        if (!isb.ok()) return isb.status();
        return QueryResult(spec.kind, *isb);
      }
      auto series = sharded_->QueryCellSeries(spec.cuboid, spec.key,
                                              spec.level);
      if (!series.ok()) return series.status();
      return QueryResult(spec.kind, std::move(*series));
    }
    case QueryKind::kCubeCell:
    case QueryKind::kExceptionsAt:
    case QueryKind::kDrillDown:
    case QueryKind::kSupporters:
    case QueryKind::kTopExceptions: {
      // Cube-side kinds ride the engine's maintained cube, whatever the
      // algorithm: between writes the memo answers in O(1), writes confined
      // to open slots only revalidate it, and after churn an m/o cube folds
      // in just the changed cells or, on an epoch roll, refolds its kept
      // tree (a popular-path cube rebuilds). A user-held CubeSnapshot
      // still memoizes its own from-scratch cube; both are bit-identical
      // over the same window.
      auto cube = sharded_->ComputeCubeShared(spec.level, spec.k);
      if (!cube.ok()) return cube.status();
      return regcube::Query(**cube, policy_, spec);
    }
    default:
      return TakeSnapshot()->Query(spec);
  }
}

std::vector<std::pair<std::string, std::int64_t>> Engine::MemoryReport()
    const {
  // Every RAM category ("stream.tilt_frames" included) lives in the
  // tracker now; the spill section is disk, reported separately so a
  // budget check can sum the RAM entries alone.
  std::vector<std::pair<std::string, std::int64_t>> report =
      tracker_->Snapshot();
  if (const FrameStore* store = sharded_->frame_store()) {
    const FrameStoreStats stats = store->Stats();
    report.emplace_back("spill.disk_bytes", stats.disk_bytes);
    report.emplace_back("spill.live_bytes", stats.live_bytes);
    report.emplace_back("spill.garbage_bytes", stats.garbage_bytes);
    const regcube::SpillStats spill = sharded_->SpillStats();
    report.emplace_back("spill.io_errors", spill.io_errors);
    report.emplace_back("spill.retries", spill.retries);
    report.emplace_back("compaction.segments", spill.compactions);
    report.emplace_back("compaction.reclaimed_bytes", spill.reclaimed_bytes);
    report.emplace_back("compaction.failures", spill.compaction_failures);
  }
  // Frames the cached snapshot pins alive. Shared with (and mostly
  // double-counted by) the cells' own frames under stream.tilt_frames
  // while no writer has cloned them, but after an eviction or a write
  // this residual is the only record that the bytes are still resident.
  {
    std::lock_guard<std::mutex> lock(cache_->mu);
    if (cache_->snapshot != nullptr) {
      report.emplace_back("snapshot.pinned_frames",
                          cache_->snapshot->PinnedFrameBytes());
    }
  }
  return report;
}

Status Engine::Checkpoint(const std::string& dir) {
  return sharded_->CheckpointTo(dir);
}

regcube::SpillStats Engine::SpillStats() const {
  return sharded_->SpillStats();
}

Status Engine::InitStorage(const MemoryBudgetConfig& budget) {
  RC_RETURN_IF_ERROR(sharded_->ConfigureStorage(budget));
  if (MemoryGovernor* governor = sharded_->governor()) {
    // Rung 19, between the cube memo (10) and the shard publications
    // (21): the api snapshot cache pins a whole gathered cell set (and its
    // memoized cube), so dropping it both frees the snapshot's own memo
    // and releases the frames the publication rung is about to drop from
    // being pinned alive.
    SnapshotCache* cache = cache_.get();
    governor->AddRung(19, "snapshot.cache",
                      [cache](std::int64_t /*excess*/) -> std::int64_t {
                        std::shared_ptr<const CubeSnapshot> dropped;
                        {
                          // Released after unlocking, as in TakeSnapshot.
                          std::lock_guard<std::mutex> lock(cache->mu);
                          dropped = std::move(cache->snapshot);
                        }
                        return 0;  // freed bytes show up via the tracker
                      });
    // The cached snapshot's pinned frames join the budget probe: after
    // the engine-side rungs evict, the tracker no longer sees those
    // bytes, but they are still resident as long as the snapshot lives —
    // without this the governor would declare victory while RAM stays
    // over budget. (While the engine also holds the blocks the bytes are
    // double-counted; that only makes enforcement earlier, never later,
    // and rung 19 zeroes the probe.)
    governor->AddUsageProbe([cache]() -> std::int64_t {
      std::lock_guard<std::mutex> lock(cache->mu);
      return cache->snapshot != nullptr ? cache->snapshot->PinnedFrameBytes()
                                        : 0;
    });
  }
  return Status::OK();
}

void Engine::CompactSegments() { sharded_->MaybeCompactSegments(); }

std::string Engine::RenderCell(const CellResult& cell) const {
  return RenderCellWith(schema(), lattice(), cell);
}

EngineBuilder::EngineBuilder() : policy_(0.0) {}

EngineBuilder& EngineBuilder::SetSchema(
    std::shared_ptr<const CubeSchema> schema) {
  schema_ = std::move(schema);
  return *this;
}

EngineBuilder& EngineBuilder::SetTiltPolicy(
    std::shared_ptr<const TiltPolicy> policy) {
  options_.tilt_policy = std::move(policy);
  return *this;
}

EngineBuilder& EngineBuilder::SetStartTick(TimeTick tick) {
  options_.start_tick = tick;
  return *this;
}

EngineBuilder& EngineBuilder::SetAlgorithm(Engine::Algorithm algorithm) {
  options_.algorithm = algorithm;
  return *this;
}

EngineBuilder& EngineBuilder::SetExceptionPolicy(ExceptionPolicy policy) {
  policy_ = std::move(policy);
  return *this;
}

EngineBuilder& EngineBuilder::SetDrillPath(DrillPath path) {
  options_.path = std::move(path);
  return *this;
}

EngineBuilder& EngineBuilder::SetKeyMapper(
    std::function<CellKey(const CellKey&)> mapper) {
  options_.key_mapper = std::move(mapper);
  return *this;
}

EngineBuilder& EngineBuilder::SetShardCount(int shards) {
  shards_ = shards;
  return *this;
}

EngineBuilder& EngineBuilder::SetReadThreads(int threads) {
  read_threads_ = threads;
  return *this;
}

EngineBuilder& EngineBuilder::SetIngestMode(IngestMode mode) {
  ingest_.mode = mode;
  return *this;
}

EngineBuilder& EngineBuilder::SetQueueCapacity(std::int64_t capacity) {
  ingest_.queue_capacity = capacity;
  return *this;
}

EngineBuilder& EngineBuilder::SetBackpressure(BackpressurePolicy policy) {
  ingest_.backpressure = policy;
  return *this;
}

EngineBuilder& EngineBuilder::SetMemoryBudget(std::int64_t budget_bytes) {
  budget_.budget_bytes = budget_bytes;
  return *this;
}

EngineBuilder& EngineBuilder::SetSpillDir(std::string dir) {
  budget_.spill_dir = std::move(dir);
  return *this;
}

EngineBuilder& EngineBuilder::SetCompactThreshold(double ratio) {
  budget_.compact_garbage_ratio = ratio;
  return *this;
}

EngineBuilder& EngineBuilder::SetCompactMinBytes(std::int64_t bytes) {
  budget_.compact_min_bytes = bytes;
  return *this;
}

EngineBuilder& EngineBuilder::SetFaultInjector(FaultInjector* injector) {
  fault_injector_ = injector;
  return *this;
}

Result<Engine> EngineBuilder::Build() const {
  if (schema_ == nullptr) {
    return Status::InvalidArgument("EngineBuilder: SetSchema is required");
  }
  if (options_.tilt_policy == nullptr) {
    return Status::InvalidArgument(
        "EngineBuilder: SetTiltPolicy is required");
  }
  if (shards_ < 1 || shards_ > 4096) {
    return Status::InvalidArgument(StrPrintf(
        "EngineBuilder: shard count %d outside [1, 4096]", shards_));
  }
  if (read_threads_ < 0 || read_threads_ > 1024) {
    return Status::InvalidArgument(StrPrintf(
        "EngineBuilder: read thread count %d outside [0, 1024]",
        read_threads_));
  }
  if (ingest_.queue_capacity < 1) {
    return Status::InvalidArgument(StrPrintf(
        "EngineBuilder: ingest queue capacity %lld must be >= 1",
        static_cast<long long>(ingest_.queue_capacity)));
  }
  if (options_.path.has_value()) {
    if (options_.algorithm != Engine::Algorithm::kPopularPath) {
      return Status::InvalidArgument(
          "EngineBuilder: a drill path requires "
          "SetAlgorithm(Algorithm::kPopularPath)");
    }
    CuboidLattice lattice(*schema_);
    RC_RETURN_IF_ERROR(DrillPath::Validate(lattice, *options_.path));
  }
  StreamCubeEngine::Options options = options_;
  options.policy = policy_;
  Engine engine(schema_, policy_, std::move(options), shards_, read_threads_,
                ingest_);
  // The injector must be in place before InitStorage opens the store, so
  // even the store's own header write is behind the seam.
  engine.sharded_->set_fault_injector(fault_injector_);
  // The budget fields are validated once, by the storage tier itself.
  RC_RETURN_IF_ERROR(engine.InitStorage(budget_));
  return engine;
}

Result<Engine> EngineBuilder::OpenFrom(const std::string& dir) const {
  // Adopt the checkpoint's start tick before Build(): restored frames
  // were created under it, and RestoreFrom revalidates the match.
  auto manifest_bytes = ReadFile(CheckpointManifestPath(dir));
  if (!manifest_bytes.ok()) return manifest_bytes.status();
  auto manifest = DecodeCheckpointManifest(*manifest_bytes);
  if (!manifest.ok()) return manifest.status();
  EngineBuilder opener = *this;
  opener.SetStartTick(manifest->start_tick);
  auto engine = opener.Build();
  if (!engine.ok()) return engine.status();
  RC_RETURN_IF_ERROR(engine->sharded_->RestoreFrom(dir));
  return engine;
}

}  // namespace regcube
