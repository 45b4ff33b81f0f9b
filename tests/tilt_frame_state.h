#ifndef REGCUBE_TESTS_TILT_FRAME_STATE_H_
#define REGCUBE_TESTS_TILT_FRAME_STATE_H_

#include <memory>
#include <string>
#include <string_view>
#include <vector>

#include "regcube/common/logging.h"
#include "regcube/common/status.h"
#include "regcube/common/str.h"
#include "regcube/io/binary_io.h"
#include "regcube/io/cube_io.h"
#include "regcube/regression/isb.h"
#include "regcube/time/tilt_frame.h"

namespace regcube {
namespace testing_util {

/// Tests-only byte oracle for the "RGF1" tilt-frame block: the frame's
/// complete mutable state as plain per-level vectors, and a field-by-field
/// encoder/decoder written from the format's definition (magic, start and
/// next tick, level count, then per level: slot count, slots, pending
/// moments, pending-active byte, pending start). The library's one-pass
/// codec must produce and accept exactly these bytes.
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

inline void EncodeOracleMoments(ByteWriter* w, const MomentSums& m) {
  w->WriteI64(m.interval.tb);
  w->WriteI64(m.interval.te);
  w->WriteDouble(m.sum_z);
  w->WriteDouble(m.sum_tz);
}

inline Result<MomentSums> DecodeOracleMoments(ByteReader* r) {
  MomentSums m;
  RC_ASSIGN_OR_RETURN(m.interval.tb, r->ReadI64());
  RC_ASSIGN_OR_RETURN(m.interval.te, r->ReadI64());
  RC_ASSIGN_OR_RETURN(m.sum_z, r->ReadDouble());
  RC_ASSIGN_OR_RETURN(m.sum_tz, r->ReadDouble());
  return m;
}

inline std::string EncodeTiltFrameState(const TiltFrameState& state) {
  ByteWriter w;
  w.WriteU32(TiltTimeFrame::kBlockMagic);
  w.WriteI64(state.start_tick);
  w.WriteI64(state.next_tick);
  w.WriteU32(static_cast<std::uint32_t>(state.levels.size()));
  for (const TiltFrameState::Level& level : state.levels) {
    w.WriteU32(static_cast<std::uint32_t>(level.slots.size()));
    for (const MomentSums& slot : level.slots) EncodeOracleMoments(&w, slot);
    EncodeOracleMoments(&w, level.pending);
    w.WriteU8(level.pending_active ? 1 : 0);
    w.WriteI64(level.pending_start);
  }
  return w.Release();
}

/// Parses any well-formed block (no policy: the level count and slot
/// counts are taken as written).
inline Result<TiltFrameState> DecodeTiltFrameState(std::string_view data) {
  ByteReader r(data);
  RC_ASSIGN_OR_RETURN(std::uint32_t magic, r.ReadU32());
  if (magic != TiltTimeFrame::kBlockMagic) {
    return Status::InvalidArgument(
        StrPrintf("bad magic for tilt frame: got 0x%08x", magic));
  }
  TiltFrameState state;
  RC_ASSIGN_OR_RETURN(state.start_tick, r.ReadI64());
  RC_ASSIGN_OR_RETURN(state.next_tick, r.ReadI64());
  RC_ASSIGN_OR_RETURN(std::uint32_t num_levels, r.ReadU32());
  if (num_levels > r.remaining()) {
    return Status::InvalidArgument("level count exceeds the input");
  }
  state.levels.resize(num_levels);
  for (TiltFrameState::Level& level : state.levels) {
    RC_ASSIGN_OR_RETURN(std::uint32_t num_slots, r.ReadU32());
    if (num_slots > r.remaining()) {
      return Status::InvalidArgument("slot count exceeds the input");
    }
    for (std::uint32_t s = 0; s < num_slots; ++s) {
      RC_ASSIGN_OR_RETURN(MomentSums m, DecodeOracleMoments(&r));
      level.slots.push_back(m);
    }
    RC_ASSIGN_OR_RETURN(level.pending, DecodeOracleMoments(&r));
    RC_ASSIGN_OR_RETURN(std::uint8_t active, r.ReadU8());
    level.pending_active = active != 0;
    RC_ASSIGN_OR_RETURN(level.pending_start, r.ReadI64());
  }
  if (!r.exhausted()) {
    return Status::InvalidArgument("trailing bytes after tilt frame");
  }
  return state;
}

/// The library codec's block for `frame`.
inline std::string EncodeFrameBytes(const TiltTimeFrame& frame) {
  ByteWriter w;
  frame.AppendBlock(&w);
  return w.Release();
}

/// `frame`'s complete state as the oracle reads it from the library's
/// block (checked: the block must parse).
inline TiltFrameState SnapshotOf(const TiltTimeFrame& frame) {
  auto state = DecodeTiltFrameState(EncodeFrameBytes(frame));
  RC_CHECK(state.ok()) << state.status().ToString();
  return *std::move(state);
}

/// The frame the library decodes from the oracle's bytes for `state`.
inline Result<TiltTimeFrame> FrameFromState(
    std::shared_ptr<const TiltPolicy> policy, const TiltFrameState& state) {
  return TiltTimeFrame::FromBlock(std::move(policy),
                                  EncodeTiltFrameState(state));
}

}  // namespace testing_util
}  // namespace regcube

#endif  // REGCUBE_TESTS_TILT_FRAME_STATE_H_
