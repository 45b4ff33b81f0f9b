#ifndef REGCUBE_TESTS_TILT_FRAME_REFERENCE_H_
#define REGCUBE_TESTS_TILT_FRAME_REFERENCE_H_

#include <deque>
#include <memory>
#include <vector>

#include "regcube/common/logging.h"
#include "regcube/common/status.h"
#include "regcube/common/str.h"
#include "regcube/regression/aggregate.h"
#include "regcube/time/tilt_frame.h"

namespace regcube {
namespace testing_util {

/// Tests-only reference model of TiltTimeFrame: one std::deque of sealed
/// moment sums per level, push_back on seal and pop_front past capacity.
/// It is the straightforward reading of §4.1 the library's flat slot block
/// must reproduce bit for bit (slots, pending units, window regressions,
/// snapshots and merges), so it keeps no optimisation of its own.
class ReferenceTiltFrame {
 public:
  ReferenceTiltFrame(std::shared_ptr<const TiltPolicy> policy,
                     TimeTick start_tick)
      : policy_(std::move(policy)), start_tick_(start_tick),
        next_tick_(start_tick) {
    RC_CHECK(policy_ != nullptr);
    levels_.resize(static_cast<size_t>(policy_->num_levels()));
    for (auto& level : levels_) level.pending_start = start_tick_;
  }

  Status Add(TimeTick t, double z) {
    if (t < start_tick_) {
      return Status::OutOfRange(StrPrintf(
          "tick %lld precedes frame start %lld", static_cast<long long>(t),
          static_cast<long long>(start_tick_)));
    }
    if (t < next_tick_) {
      return Status::OutOfRange(StrPrintf(
          "tick %lld already sealed (next open tick is %lld)",
          static_cast<long long>(t), static_cast<long long>(next_tick_)));
    }
    for (TimeTick s = next_tick_; s < t; ++s) SealBoundaries(s);
    next_tick_ = t;
    for (auto& level : levels_) {
      level.pending.Add(t, z);
      level.pending_active = true;
    }
    return Status::OK();
  }

  Status AdvanceTo(TimeTick t) {
    if (t <= next_tick_) return Status::OK();
    for (TimeTick s = next_tick_; s < t; ++s) SealBoundaries(s);
    next_tick_ = t;
    return Status::OK();
  }

  const std::deque<MomentSums>& RawSlots(int level) const {
    return levels_[static_cast<size_t>(level)].slots;
  }

  Result<Isb> PendingSlot(int level) const {
    const LevelState& state = levels_[static_cast<size_t>(level)];
    if (state.pending_start > next_tick_ ||
        (state.pending_start == next_tick_ && !state.pending_active)) {
      return Status::NotFound(
          StrPrintf("no partial unit at level %d", level));
    }
    MomentSums m = state.pending;
    m.interval.tb = state.pending_start;
    m.interval.te = next_tick_;
    return FitFromMoments(m);
  }

  Result<Isb> RegressLastSlots(int level, int k) const {
    const LevelState& state = levels_[static_cast<size_t>(level)];
    if (k < 1 || k > static_cast<int>(state.slots.size())) {
      return Status::OutOfRange(
          StrPrintf("requested %d slots, level %d has %zu sealed", k, level,
                    state.slots.size()));
    }
    std::vector<Isb> children;
    for (size_t i = state.slots.size() - static_cast<size_t>(k);
         i < state.slots.size(); ++i) {
      children.push_back(FitFromMoments(state.slots[i]));
    }
    return AggregateTimeDim(children);
  }

  std::int64_t RetainedSlots() const {
    std::int64_t total = 0;
    for (const auto& level : levels_) {
      total += static_cast<std::int64_t>(level.slots.size());
    }
    return total;
  }

  Status MergeStandardDim(const ReferenceTiltFrame& other) {
    if (next_tick_ != other.next_tick_ || start_tick_ != other.start_tick_) {
      return Status::InvalidArgument("frames not aligned");
    }
    for (size_t li = 0; li < levels_.size(); ++li) {
      LevelState& mine = levels_[li];
      const LevelState& theirs = other.levels_[li];
      if (mine.slots.size() != theirs.slots.size()) {
        return Status::InvalidArgument("slot counts differ");
      }
      for (size_t s = 0; s < mine.slots.size(); ++s) {
        if (!(mine.slots[s].interval == theirs.slots[s].interval)) {
          return Status::InvalidArgument("intervals differ");
        }
        mine.slots[s].sum_z += theirs.slots[s].sum_z;
        mine.slots[s].sum_tz += theirs.slots[s].sum_tz;
      }
      mine.pending.sum_z += theirs.pending.sum_z;
      mine.pending.sum_tz += theirs.pending.sum_tz;
      mine.pending_active = mine.pending_active || theirs.pending_active;
    }
    return Status::OK();
  }

  TiltFrameState Snapshot() const {
    TiltFrameState state;
    state.start_tick = start_tick_;
    state.next_tick = next_tick_;
    for (const LevelState& level : levels_) {
      TiltFrameState::Level out;
      out.slots.assign(level.slots.begin(), level.slots.end());
      out.pending = level.pending;
      out.pending_active = level.pending_active;
      out.pending_start = level.pending_start;
      state.levels.push_back(std::move(out));
    }
    return state;
  }

  TimeTick next_tick() const { return next_tick_; }

 private:
  struct LevelState {
    std::deque<MomentSums> slots;  // sealed units, oldest first
    MomentSums pending;            // in-progress unit ([] if no ticks yet)
    bool pending_active = false;
    TimeTick pending_start = 0;    // first tick of the in-progress unit
  };

  void SealBoundaries(TimeTick t) {
    for (int li = 0; li < policy_->num_levels(); ++li) {
      if (!policy_->IsUnitEnd(li, t)) continue;
      LevelState& level = levels_[static_cast<size_t>(li)];
      MomentSums slot = level.pending;
      slot.interval.tb = level.pending_start;
      slot.interval.te = t;
      level.slots.push_back(slot);
      while (static_cast<int>(level.slots.size()) >
             policy_->level(li).capacity) {
        level.slots.pop_front();
      }
      level.pending = MomentSums();
      level.pending_active = false;
      level.pending_start = t + 1;
    }
  }

  std::shared_ptr<const TiltPolicy> policy_;
  std::vector<LevelState> levels_;
  TimeTick start_tick_;
  TimeTick next_tick_;
};

}  // namespace testing_util
}  // namespace regcube

#endif  // REGCUBE_TESTS_TILT_FRAME_REFERENCE_H_
