#ifndef REGCUBE_TESTS_REFERENCE_STORE_H_
#define REGCUBE_TESTS_REFERENCE_STORE_H_

#include <algorithm>
#include <cmath>
#include <map>
#include <memory>
#include <span>
#include <utility>
#include <vector>

#include "regcube/common/logging.h"
#include "regcube/common/status.h"
#include "regcube/common/str.h"
#include "regcube/core/sharded_engine.h"
#include "regcube/core/stream_engine.h"
#include "regcube/regression/aggregate.h"
#include "regcube/time/tilt_frame.h"

namespace regcube {
namespace testing_util {

/// Tests-only reference model of the on-line engine (§4.5): one
/// TiltTimeFrame per m-layer cell in a canonically ordered map, fed the
/// same tuples and seals as the engine under test, and every read
/// answered the straightforward way — copy each frame, advance the copy to
/// the clock, aggregate in canonical key order. It keeps none of the
/// engine's machinery (no shards, no published runs, no copy-on-write, no
/// member index, no caches), so it is the oracle the delta gathers, the
/// member index, the cube memo, async ingest and the cold tier are checked
/// against bit for bit.
///
/// Writes follow the engine's rules: the key mapper is applied first; a
/// cell exists from its first ingest, even when its Add is refused; a
/// frame catches up to the seal clock before its Add, so every cell
/// refuses a sealed tick. Reads never seal: they align copies. The
/// aggregation order and the error contract are those of the library's
/// reads, so answers compare bitwise and errors by code. Not thread-safe.
class ReferenceStore {
 public:
  using Options = StreamCubeEngine::Options;
  using DeckSeries = StreamCubeEngine::DeckSeries;
  using TrendChange = StreamCubeEngine::TrendChange;
  using GatheredCells = ShardedStreamEngine::GatheredCells;
  using MemberGather = ShardedStreamEngine::MemberGather;

  ReferenceStore(std::shared_ptr<const CubeSchema> schema, Options options)
      : schema_(std::move(schema)),
        lattice_(*schema_),
        options_(std::move(options)),
        now_(options_.start_tick),
        seal_clock_(options_.start_tick) {
    RC_CHECK(options_.tilt_policy != nullptr);
  }

  // ------------------------------------------------------------- writes

  Status Ingest(const StreamTuple& tuple) {
    const CellKey key =
        options_.key_mapper ? options_.key_mapper(tuple.key) : tuple.key;
    TiltTimeFrame& frame =
        cells_.try_emplace(key, options_.tilt_policy, options_.start_tick)
            .first->second;
    RC_RETURN_IF_ERROR(frame.AdvanceTo(seal_clock_));
    RC_RETURN_IF_ERROR(frame.Add(tuple.tick, tuple.value));
    now_ = std::max(now_, tuple.tick);
    return Status::OK();
  }

  /// Ingests in order, stopping at the first error.
  IngestReport IngestBatch(std::span<const StreamTuple> tuples) {
    IngestReport report;
    report.attempted = static_cast<std::int64_t>(tuples.size());
    for (const StreamTuple& tuple : tuples) {
      report.status = Ingest(tuple);
      if (!report.ok()) break;
      ++report.absorbed;
    }
    return report;
  }

  /// Closes every tick <= `t`: the clock moves past `t` and every frame,
  /// present or created later, is advanced to it.
  Status SealThrough(TimeTick t) {
    now_ = std::max(now_, t + 1);
    seal_clock_ = now_;
    for (auto& [key, frame] : cells_) {
      RC_RETURN_IF_ERROR(frame.AdvanceTo(seal_clock_));
    }
    return Status::OK();
  }

  TimeTick now() const { return now_; }
  std::int64_t num_cells() const {
    return static_cast<std::int64_t>(cells_.size());
  }
  const CubeSchema& schema() const { return *schema_; }
  const CuboidLattice& lattice() const { return lattice_; }

  // -------------------------------------------------------------- reads

  /// Every cell, its frame deep-copied and advanced to now(), in canonical
  /// key order — what a full gather of the engine must equal.
  GatheredCells Gather() const {
    GatheredCells out;
    out.clock = now_;
    auto cells = std::make_shared<SnapshotCells>();
    cells->reserve(cells_.size());
    for (const auto& [key, frame] : cells_) {
      cells->push_back({key, AlignedCopy(frame)});
      ++out.stats.materialized;
      out.stats.bytes_copied += cells->back().frame->MemoryBytes();
    }
    out.stats.cells = num_cells();
    out.cells = std::move(cells);
    return out;
  }

  /// The cells that roll up into `key` of `cuboid`, found by projecting
  /// every key — what the engine's member-only gather must equal. Pre:
  /// `cuboid` is a lattice id.
  MemberGather GatherMatching(CuboidId cuboid, const CellKey& key) const {
    MemberGather out;
    out.clock = now_;
    out.total_cells = num_cells();
    for (const auto& [m_key, frame] : cells_) {
      if (lattice_.ProjectMLayerKey(m_key, cuboid) == key) {
        out.cells.push_back({m_key, AlignedCopy(frame)});
      }
    }
    return out;
  }

  /// Regression over the most recent `k` sealed slots of `level`, per cell.
  Result<std::vector<MLayerTuple>> Window(int level, int k) const {
    if (cells_.empty()) return NoData();
    RC_RETURN_IF_ERROR(CheckLevel(level));
    std::vector<MLayerTuple> window;
    window.reserve(cells_.size());
    for (const auto& [key, frame] : cells_) {
      auto isb = AlignedCopy(frame)->RegressLastSlots(level, k);
      if (!isb.ok()) return isb.status();
      window.push_back(MLayerTuple{key, *isb});
    }
    return window;
  }

  /// The partially materialized cube over that window, cubed from scratch
  /// with the configured algorithm.
  Result<RegressionCube> ComputeCube(int level, int k) const {
    auto window = Window(level, k);
    if (!window.ok()) return window.status();
    return ComputeCubeFromWindow(schema_, *window, options_);
  }

  /// Per o-layer cell, its sealed slot series at `level`.
  Result<DeckSeries> ObservationDeck(int level) const {
    RC_RETURN_IF_ERROR(CheckLevel(level));
    if (cells_.empty()) return NoData();
    DeckSeries deck;
    const CuboidId o_id = lattice_.o_layer_id();
    for (const auto& [key, frame] : cells_) {
      AccumulateSlots(*AlignedCopy(frame), level,
                      &deck[lattice_.ProjectMLayerKey(key, o_id)]);
    }
    return deck;
  }

  /// O-layer cells whose slope moved by >= `threshold` between the last
  /// two sealed slots of `level`, strongest change first.
  Result<std::vector<TrendChange>> DetectTrendChanges(int level,
                                                      double threshold) const {
    auto deck = ObservationDeck(level);
    if (!deck.ok()) return deck.status();
    std::vector<TrendChange> changes;
    for (const auto& [key, series] : *deck) {
      if (series.size() < 2) continue;
      const Isb& prev = series[series.size() - 2];
      const Isb& cur = series[series.size() - 1];
      const double delta = std::abs(cur.slope - prev.slope);
      if (delta >= threshold) {
        changes.push_back(TrendChange{key, prev, cur, delta});
      }
    }
    std::sort(changes.begin(), changes.end(),
              [](const TrendChange& a, const TrendChange& b) {
                if (a.slope_delta != b.slope_delta) {
                  return a.slope_delta > b.slope_delta;
                }
                return CanonicalKeyLess(a.key, b.key);
              });
    return changes;
  }

  /// One cell of any cuboid over the last `k` sealed slots of `level`,
  /// aggregated from its members.
  Result<Isb> QueryCell(CuboidId cuboid, const CellKey& key, int level,
                        int k) const {
    auto members = PointMembers(cuboid, key, level);
    if (!members.ok()) return members.status();
    Isb acc;
    for (const CellSnapshot& member : *members) {
      auto isb = member.frame->RegressLastSlots(level, k);
      if (!isb.ok()) return isb.status();
      AccumulateStandardDim(acc, *isb);
    }
    return acc;
  }

  /// One cell's whole sealed slot series at `level`.
  Result<std::vector<Isb>> QueryCellSeries(CuboidId cuboid, const CellKey& key,
                                           int level) const {
    auto members = PointMembers(cuboid, key, level);
    if (!members.ok()) return members.status();
    std::vector<Isb> series;
    for (const CellSnapshot& member : *members) {
      AccumulateSlots(*member.frame, level, &series);
    }
    return series;
  }

 private:
  std::shared_ptr<const TiltTimeFrame> AlignedCopy(
      const TiltTimeFrame& frame) const {
    auto copy = std::make_shared<TiltTimeFrame>(frame);
    Status s = copy->AdvanceTo(now_);
    RC_CHECK(s.ok()) << s.ToString();
    return copy;
  }

  /// Folds `frame`'s sealed slots of `level` into `series`, slot by slot.
  static void AccumulateSlots(const TiltTimeFrame& frame, int level,
                              std::vector<Isb>* series) {
    const auto slots = frame.RawSlots(level);
    if (series->size() < slots.size()) series->resize(slots.size());
    for (size_t i = 0; i < slots.size(); ++i) {
      AccumulateStandardDim((*series)[i], FitFromMoments(slots[i]));
    }
  }

  static Status NoData() {
    return Status::FailedPrecondition("no stream data ingested yet");
  }

  Status CheckLevel(int level) const {
    const int num_levels = options_.tilt_policy->num_levels();
    if (level >= 0 && level < num_levels) return Status::OK();
    return Status::InvalidArgument(
        StrPrintf("tilt level %d outside [0, %d)", level, num_levels));
  }

  /// The members of a point query, after its checks in the library's
  /// order: cuboid, level, no data, no members.
  Result<SnapshotCells> PointMembers(CuboidId cuboid, const CellKey& key,
                                     int level) const {
    if (cuboid < 0 || cuboid >= lattice_.num_cuboids()) {
      return Status::InvalidArgument(
          StrPrintf("cuboid id %d outside the lattice", cuboid));
    }
    RC_RETURN_IF_ERROR(CheckLevel(level));
    if (cells_.empty()) return NoData();
    SnapshotCells members = GatherMatching(cuboid, key).cells;
    if (members.empty()) {
      return Status::NotFound(
          StrPrintf("no m-layer cell rolls up into %s of cuboid %s",
                    key.ToString().c_str(),
                    lattice_.CuboidName(cuboid).c_str()));
    }
    return members;
  }

  struct CanonicalLess {
    bool operator()(const CellKey& a, const CellKey& b) const {
      return CanonicalKeyLess(a, b);
    }
  };

  std::shared_ptr<const CubeSchema> schema_;
  CuboidLattice lattice_;
  Options options_;
  std::map<CellKey, TiltTimeFrame, CanonicalLess> cells_;
  TimeTick now_;
  TimeTick seal_clock_;
};

}  // namespace testing_util
}  // namespace regcube

#endif  // REGCUBE_TESTS_REFERENCE_STORE_H_
