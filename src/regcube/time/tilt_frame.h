#ifndef REGCUBE_TIME_TILT_FRAME_H_
#define REGCUBE_TIME_TILT_FRAME_H_

#include <cstdint>
#include <memory>
#include <span>
#include <string>
#include <vector>

#include "regcube/common/status.h"
#include "regcube/regression/fold.h"
#include "regcube/regression/isb.h"
#include "regcube/time/tilt_policy.h"

namespace regcube {

/// Serializable snapshot of a TiltTimeFrame (checkpoint/restore across
/// process restarts; the binary encoding lives in regcube/io/cube_io.h).
struct TiltFrameState {
  struct Level {
    std::vector<MomentSums> slots;  // sealed units, oldest first
    MomentSums pending;
    bool pending_active = false;
    TimeTick pending_start = 0;
  };
  TimeTick start_tick = 0;
  TimeTick next_tick = 0;
  std::vector<Level> levels;
};

/// The tilt time frame (§4.1, Fig 4): a per-cell time container that keeps
/// the most recent time at the finest granularity and progressively coarser
/// granularities for older time, bounding retained state by the policy's
/// total capacity (71 slots for the paper's quarter/hour/day/month frame vs
/// 35,136 raw quarters per year — Example 3).
///
/// Ingestion model (§4.5): observations arrive tick-by-tick in
/// non-decreasing tick order. Each level accumulates an in-progress unit;
/// when the policy says a unit of level L ends at tick t, the accumulated
/// moments are sealed into a slot of L. Coarser levels keep accumulating —
/// the quarter slots "still retain sufficient information for quarter-based
/// regression analysis" while the hour slot fills, exactly as the paper
/// describes. Slots beyond a level's capacity are evicted oldest-first.
///
/// Ticks with no observation contribute 0, matching the paper's additive
/// stream semantics (an aggregate cell's series is the sum of descendant
/// series; absence of a reading is a zero reading).
///
/// Layout: the frame's size is fixed by its policy, so every level's slots
/// live in one contiguous block of TotalCapacity() moment sums allocated at
/// construction. Level L owns [offset_L, offset_L + capacity_L), oldest
/// first; sealing into a full level shifts that range left by one. A copy
/// is therefore two heap blocks (slots and level headers), and no seal of
/// an unshared block allocates or frees. CopyForWrite copies only the
/// headers: the copy shares the slot block until its first seal.
class TiltTimeFrame {
 public:
  /// Creates a frame that starts at `start_tick` (the first tick of its
  /// first level-0 unit). The policy is shared because one policy object
  /// typically serves every cell of a cube.
  TiltTimeFrame(std::shared_ptr<const TiltPolicy> policy, TimeTick start_tick);

  /// A full copy, slots included.
  TiltTimeFrame(const TiltTimeFrame& other);
  TiltTimeFrame(TiltTimeFrame&&) = default;
  TiltTimeFrame& operator=(const TiltTimeFrame& other) {
    return *this = TiltTimeFrame(other);
  }
  TiltTimeFrame& operator=(TiltTimeFrame&&) = default;

  /// A copy for a writer to mutate in place of this frame: it shares this
  /// frame's slot block until its first seal copies the block, so a write
  /// inside the open unit copies no slot. Pre: this frame is not mutated
  /// while the copy shares its slots (the stream engine copies only frames
  /// readers hold, which it never writes again).
  TiltTimeFrame CopyForWrite() const { return {*this, SharedSlots{}}; }

  /// Adds observation z at tick `t`. Ticks must be non-decreasing and
  /// >= start_tick; a jump forward seals any completed units in between.
  /// Returns InvalidArgument for a tick in the past.
  Status Add(TimeTick t, double z);

  /// Advances time to `t` (exclusive of `t` itself) without adding data:
  /// seals every unit that completes strictly before `t`. Used by the
  /// stream engine at batch boundaries so all cells agree on "now".
  Status AdvanceTo(TimeTick t);

  /// Sealed slots of `level`, oldest first, as ISBs.
  std::vector<Isb> Slots(int level) const;

  /// Moment sums of the sealed slots of `level`, oldest first (lossless
  /// form used by aggregation-heavy callers). The view points into the
  /// frame's slot block: it is valid until the frame is next mutated
  /// (Add, AdvanceTo, MergeStandardDim) or destroyed.
  std::span<const MomentSums> RawSlots(int level) const;

  /// The in-progress (partial) unit of `level`, if it has received any
  /// ticks (paper footnote 5 allows partial intervals at each granularity).
  Result<Isb> PendingSlot(int level) const;

  /// Regression over the most recent `k` sealed slots of `level`
  /// (time-dimension aggregation, Theorem 3.3). k must be >= 1 and <= the
  /// number of sealed slots.
  Result<Isb> RegressLastSlots(int level, int k) const;

  /// §6.2's folding aggregation over this level's sealed slots: one value
  /// per `units_per_bucket` consecutive units under `op` (SUM/AVG/LAST are
  /// available on compressed slots; see FoldSummaries). The folded series
  /// can then be fit like any other (e.g. a monthly trend from daily
  /// slots).
  Result<TimeSeries> FoldSlots(int level, std::int64_t units_per_bucket,
                               FoldOp op) const;

  /// Total sealed slots retained across all levels.
  std::int64_t RetainedSlots() const;

  /// Total ticks covered since start (sealed and pending).
  std::int64_t TicksSeen() const;

  /// Bytes retained by this frame's slots (analytic accounting): the object
  /// plus its sealed slots. The block reserves full capacity up front, but
  /// only sealed slots are counted, so the figure grows then plateaus.
  std::int64_t MemoryBytes() const;

  const TiltPolicy& policy() const { return *policy_; }
  TimeTick next_tick() const { return next_tick_; }

  /// Merges another frame cell-wise (standard-dimension aggregation of two
  /// sibling cells' frames, slot by slot). Policies and slot alignment must
  /// match: both frames must have been driven to the same tick.
  Status MergeStandardDim(const TiltTimeFrame& other);

  /// Checkpointing: captures the complete mutable state. Restoring with the
  /// same policy yields a frame that continues exactly where this one was.
  TiltFrameState Snapshot() const;
  static Result<TiltTimeFrame> FromSnapshot(
      std::shared_ptr<const TiltPolicy> policy, const TiltFrameState& state);

  std::string ToString() const;

 private:
  struct LevelState {
    MomentSums pending;            // in-progress unit ([] if no ticks yet)
    TimeTick pending_start = 0;    // first tick of the in-progress unit
    std::int32_t offset = 0;       // first slot of this level in slots_
    std::int32_t capacity = 0;     // slots reserved for this level
    std::int32_t count = 0;        // sealed slots held, <= capacity
    bool pending_active = false;
  };

  struct SharedSlots {};
  TiltTimeFrame(const TiltTimeFrame& other, SharedSlots);

  /// Copies a slot block shared by CopyForWrite before the first write.
  void OwnSlots();

  /// Sealed slots of one level, oldest first (mutable view into slots_).
  std::span<MomentSums> LevelSlots(const LevelState& level) {
    OwnSlots();
    return {slots_.get() + level.offset, static_cast<size_t>(level.count)};
  }
  std::span<const MomentSums> LevelSlots(const LevelState& level) const {
    return {slots_.get() + level.offset, static_cast<size_t>(level.count)};
  }

  /// Seals completed units ending at tick `t` across all levels.
  void SealBoundaries(TimeTick t);

  /// Routes one (t, z) into every level's pending accumulator.
  void Accumulate(TimeTick t, double z);

  std::shared_ptr<const TiltPolicy> policy_;
  std::vector<LevelState> levels_;
  // Every level's range, TotalCapacity() long; shared with the frame this
  // one was copied from by CopyForWrite until OwnSlots copies it.
  std::shared_ptr<MomentSums[]> slots_;
  bool slots_shared_ = false;
  TimeTick start_tick_;
  TimeTick next_tick_;  // first tick not yet fully processed
};

}  // namespace regcube

#endif  // REGCUBE_TIME_TILT_FRAME_H_
