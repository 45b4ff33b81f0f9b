#include "regcube/api/snapshot.h"

namespace regcube {

CubeSnapshot::CubeSnapshot(std::shared_ptr<const CubeSchema> schema,
                           ExceptionPolicy policy,
                           StreamCubeEngine::Options options,
                           std::shared_ptr<ThreadPool> pool,
                           ShardedStreamEngine::GatheredCells gathered)
    : schema_(std::move(schema)),
      lattice_(*schema_),
      policy_(std::move(policy)),
      options_(std::move(options)),
      pool_(std::move(pool)),
      cells_(std::move(gathered.cells)),
      clock_(gathered.clock),
      revision_(gathered.revision),
      status_(std::move(gathered.status)),
      stats_(gathered.stats) {}

std::int64_t CubeSnapshot::PinnedFrameBytes() const {
  std::call_once(pinned_once_, [this] {
    for (const CellSnapshot& cell : *cells_) {
      pinned_frame_bytes_ += cell.frame->MemoryBytes();
    }
  });
  return pinned_frame_bytes_;
}

Result<std::vector<MLayerTuple>> CubeSnapshot::Window(int level, int k) const {
  RC_RETURN_IF_ERROR(status_);
  return SnapshotWindowOf(*cells_, level, k);
}

Result<RegressionCube> CubeSnapshot::ComputeCube(int level, int k) const {
  RC_RETURN_IF_ERROR(status_);
  return SnapshotCubeOf(schema_, *cells_, options_, level, k, pool_.get());
}

Result<CubeSnapshot::DeckSeries> CubeSnapshot::ObservationDeck(
    int level) const {
  RC_RETURN_IF_ERROR(status_);
  return SnapshotDeckOf(*cells_, lattice_, options_.tilt_policy->num_levels(),
                        level);
}

Result<std::vector<CubeSnapshot::TrendChange>>
CubeSnapshot::DetectTrendChanges(int level, double threshold) const {
  RC_RETURN_IF_ERROR(status_);
  return SnapshotTrendChangesOf(*cells_, lattice_,
                                options_.tilt_policy->num_levels(), level,
                                threshold);
}

Result<Isb> CubeSnapshot::QueryCell(CuboidId cuboid, const CellKey& key,
                                    int level, int k) const {
  RC_RETURN_IF_ERROR(status_);
  RC_RETURN_IF_ERROR(ValidatePointQueryTarget(
      lattice_, cuboid, level, options_.tilt_policy->num_levels()));
  return SnapshotCellOf(*cells_, lattice_, cuboid, key, level, k);
}

Result<std::vector<Isb>> CubeSnapshot::QueryCellSeries(CuboidId cuboid,
                                                       const CellKey& key,
                                                       int level) const {
  RC_RETURN_IF_ERROR(status_);
  return SnapshotCellSeriesOf(*cells_, lattice_,
                              options_.tilt_policy->num_levels(), cuboid, key,
                              level);
}

Result<std::shared_ptr<const RegressionCube>> CubeSnapshot::CubeFor(
    int level, int k) const {
  {
    std::lock_guard<std::mutex> lock(memo_.mu);
    if (memo_.valid && memo_.level == level && memo_.k == k) {
      return memo_.cube;
    }
  }
  // Compute outside the lock: a large cubing run must not serialize other
  // cube-side queries (they either hit the memo or compute their own).
  auto cube = ComputeCube(level, k);
  if (!cube.ok()) return cube.status();
  auto shared = std::make_shared<const RegressionCube>(std::move(*cube));
  {
    std::lock_guard<std::mutex> lock(memo_.mu);
    memo_.cube = shared;
    memo_.level = level;
    memo_.k = k;
    memo_.valid = true;
  }
  return shared;
}

Result<QueryResult> CubeSnapshot::Query(const QuerySpec& spec) const {
  switch (spec.kind) {
    case QueryKind::kCell: {
      auto isb = QueryCell(spec.cuboid, spec.key, spec.level, spec.k);
      if (!isb.ok()) return isb.status();
      return QueryResult(spec.kind, *isb);
    }
    case QueryKind::kCellSeries: {
      auto series = QueryCellSeries(spec.cuboid, spec.key, spec.level);
      if (!series.ok()) return series.status();
      return QueryResult(spec.kind, std::move(*series));
    }
    case QueryKind::kObservationDeck: {
      auto deck = ObservationDeck(spec.level);
      if (!deck.ok()) return deck.status();
      return QueryResult(spec.kind, std::move(*deck));
    }
    case QueryKind::kTrendChanges: {
      auto changes = DetectTrendChanges(spec.level, spec.threshold);
      if (!changes.ok()) return changes.status();
      return QueryResult(spec.kind, std::move(*changes));
    }
    case QueryKind::kCubeCell:
    case QueryKind::kExceptionsAt:
    case QueryKind::kDrillDown:
    case QueryKind::kSupporters:
    case QueryKind::kTopExceptions: {
      auto cube = CubeFor(spec.level, spec.k);
      if (!cube.ok()) return cube.status();
      return regcube::Query(**cube, policy_, spec);
    }
  }
  return Status::Internal("unhandled query kind");
}

}  // namespace regcube
