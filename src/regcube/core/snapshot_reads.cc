#include "regcube/core/snapshot_reads.h"

#include <algorithm>
#include <cmath>
#include <optional>

#include "regcube/common/str.h"
#include "regcube/cube/packed_key.h"
#include "regcube/regression/aggregate.h"

namespace regcube {

namespace {

/// The exact member test shared by the point-query kernels: does a cell's
/// key roll up into `key` of `cuboid`? Compares packed projections against
/// the packed target when both sides pack (one word per cell instead of a
/// CellKey compare). Equal keys pack identically, and an unpackable
/// projection cannot equal a packed target, so the filter is exact.
class MemberFilter {
 public:
  MemberFilter(const CuboidLattice& lattice, CuboidId cuboid,
               const CellKey& key)
      : lattice_(lattice),
        cuboid_(cuboid),
        key_(key),
        codec_(PackedKeyCodec::ForSchema(lattice.schema())) {
    packed_scan_ = codec_.has_value() && codec_->Pack(key, &target_);
  }

  bool operator()(const CellKey& m_key) const {
    const CellKey projected = lattice_.ProjectMLayerKey(m_key, cuboid_);
    if (!packed_scan_) return projected == key_;
    std::uint64_t packed = 0;
    return codec_->Pack(projected, &packed) && packed == target_;
  }

 private:
  const CuboidLattice& lattice_;
  const CuboidId cuboid_;
  const CellKey& key_;
  const std::optional<PackedKeyCodec> codec_;
  std::uint64_t target_ = 0;
  bool packed_scan_ = false;
};

}  // namespace

Status SnapshotBadCuboidError(CuboidId cuboid) {
  return Status::InvalidArgument(
      StrPrintf("cuboid id %d outside the lattice", cuboid));
}

Status SnapshotNoDataError() {
  return Status::FailedPrecondition("no stream data ingested yet");
}

Status SnapshotBadLevelError(int level, int num_levels) {
  return Status::InvalidArgument(
      StrPrintf("tilt level %d outside [0, %d)", level, num_levels));
}

Status SnapshotNoMembersError(const CuboidLattice& lattice, CuboidId cuboid,
                              const CellKey& key) {
  return Status::NotFound(
      StrPrintf("no m-layer cell rolls up into %s of cuboid %s",
                key.ToString().c_str(), lattice.CuboidName(cuboid).c_str()));
}

Status ValidatePointQueryTarget(const CuboidLattice& lattice, CuboidId cuboid,
                                int level, int num_levels) {
  if (cuboid < 0 || cuboid >= lattice.num_cuboids()) {
    return SnapshotBadCuboidError(cuboid);
  }
  if (level < 0 || level >= num_levels) {
    return SnapshotBadLevelError(level, num_levels);
  }
  return Status::OK();
}

Result<std::vector<MLayerTuple>> SnapshotWindowOf(const SnapshotCells& cells,
                                                  int level, int k) {
  if (cells.empty()) return SnapshotNoDataError();
  // Checked once, before any frame is touched: the frame kernels CHECK the
  // level rather than return, and every cube read comes through here.
  const int num_levels = cells.front().frame->policy().num_levels();
  if (level < 0 || level >= num_levels) {
    return SnapshotBadLevelError(level, num_levels);
  }
  std::vector<MLayerTuple> merged;
  merged.reserve(cells.size());
  for (const CellSnapshot& cell : cells) {
    auto isb = cell.frame->RegressLastSlots(level, k);
    if (!isb.ok()) return isb.status();
    merged.push_back(MLayerTuple{cell.key, *isb});
  }
  return merged;
}

Result<StreamCubeEngine::DeckSeries> SnapshotDeckOf(
    const SnapshotCells& cells, const CuboidLattice& lattice, int num_levels,
    int level) {
  if (level < 0 || level >= num_levels) {
    return SnapshotBadLevelError(level, num_levels);
  }
  if (cells.empty()) return SnapshotNoDataError();
  StreamCubeEngine::DeckSeries deck;
  const CuboidId o_id = lattice.o_layer_id();
  // Accumulate under the 64-bit packed projection while keys pack (one
  // word hashed and compared per cell instead of a CellKey). Accumulation
  // per o-cell follows the cells scan order either way, so the series are
  // bitwise those of the CellKey loop; on the first unpackable key the
  // partial series move into the CellKey deck and the scan resumes there.
  size_t next = 0;
  const auto codec = PackedKeyCodec::ForSchema(lattice.schema());
  if (codec.has_value()) {
    std::unordered_map<std::uint64_t, std::vector<Isb>> packed_deck;
    for (; next < cells.size(); ++next) {
      const CellSnapshot& cell = cells[next];
      const CellKey o_key = lattice.ProjectMLayerKey(cell.key, o_id);
      std::uint64_t packed = 0;
      if (!codec->Pack(o_key, &packed)) break;
      const auto& slots = cell.frame->RawSlots(level);
      auto& dest = packed_deck[packed];
      if (dest.size() < slots.size()) dest.resize(slots.size());
      for (size_t i = 0; i < slots.size(); ++i) {
        AccumulateStandardDim(dest[i], FitFromMoments(slots[i]));
      }
    }
    deck.reserve(packed_deck.size());
    for (auto& [packed, series] : packed_deck) {
      deck.emplace(codec->Unpack(packed), std::move(series));
    }
  }
  for (; next < cells.size(); ++next) {
    const CellSnapshot& cell = cells[next];
    const CellKey o_key = lattice.ProjectMLayerKey(cell.key, o_id);
    const auto& slots = cell.frame->RawSlots(level);
    auto& dest = deck[o_key];
    if (dest.size() < slots.size()) dest.resize(slots.size());
    for (size_t i = 0; i < slots.size(); ++i) {
      AccumulateStandardDim(dest[i], FitFromMoments(slots[i]));
    }
  }
  return deck;
}

Result<std::vector<StreamCubeEngine::TrendChange>> SnapshotTrendChangesOf(
    const SnapshotCells& cells, const CuboidLattice& lattice, int num_levels,
    int level, double threshold) {
  auto deck = SnapshotDeckOf(cells, lattice, num_levels, level);
  if (!deck.ok()) return deck.status();
  std::vector<StreamCubeEngine::TrendChange> changes;
  for (const auto& [key, series] : *deck) {
    if (series.size() < 2) continue;
    const Isb& prev = series[series.size() - 2];
    const Isb& cur = series[series.size() - 1];
    const double delta = std::abs(cur.slope - prev.slope);
    if (delta >= threshold) {
      changes.push_back(StreamCubeEngine::TrendChange{key, prev, cur, delta});
    }
  }
  std::sort(changes.begin(), changes.end(),
            [](const StreamCubeEngine::TrendChange& a,
               const StreamCubeEngine::TrendChange& b) {
              if (a.slope_delta != b.slope_delta) {
                return a.slope_delta > b.slope_delta;
              }
              return CanonicalKeyLess(a.key, b.key);  // deterministic ties
            });
  return changes;
}

Result<Isb> SnapshotCellOf(const SnapshotCells& cells,
                           const CuboidLattice& lattice, CuboidId cuboid,
                           const CellKey& key, int level, int k) {
  if (cuboid < 0 || cuboid >= lattice.num_cuboids()) {
    return SnapshotBadCuboidError(cuboid);
  }
  if (cells.empty()) return SnapshotNoDataError();
  const MemberFilter matches(lattice, cuboid, key);
  Isb acc;
  bool found = false;
  for (const CellSnapshot& cell : cells) {
    if (!matches(cell.key)) continue;
    auto isb = cell.frame->RegressLastSlots(level, k);
    if (!isb.ok()) return isb.status();
    AccumulateStandardDim(acc, *isb);
    found = true;
  }
  if (!found) return SnapshotNoMembersError(lattice, cuboid, key);
  return acc;
}

Result<std::vector<Isb>> SnapshotCellSeriesOf(const SnapshotCells& cells,
                                              const CuboidLattice& lattice,
                                              int num_levels, CuboidId cuboid,
                                              const CellKey& key, int level) {
  RC_RETURN_IF_ERROR(
      ValidatePointQueryTarget(lattice, cuboid, level, num_levels));
  if (cells.empty()) return SnapshotNoDataError();
  const MemberFilter matches(lattice, cuboid, key);
  std::vector<Isb> acc;
  bool found = false;
  for (const CellSnapshot& cell : cells) {
    if (!matches(cell.key)) continue;
    const auto& slots = cell.frame->RawSlots(level);
    if (acc.size() < slots.size()) acc.resize(slots.size());
    for (size_t i = 0; i < slots.size(); ++i) {
      AccumulateStandardDim(acc[i], FitFromMoments(slots[i]));
    }
    found = true;
  }
  if (!found) return SnapshotNoMembersError(lattice, cuboid, key);
  return acc;
}

Result<RegressionCube> SnapshotCubeOf(std::shared_ptr<const CubeSchema> schema,
                                      const SnapshotCells& cells,
                                      const StreamCubeEngine::Options& options,
                                      int level, int k, ThreadPool* pool) {
  auto tuples = SnapshotWindowOf(cells, level, k);
  if (!tuples.ok()) return tuples.status();
  return ComputeCubeFromWindow(std::move(schema), *tuples, options, pool);
}

}  // namespace regcube
