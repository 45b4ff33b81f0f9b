#ifndef REGCUBE_IO_CUBE_IO_H_
#define REGCUBE_IO_CUBE_IO_H_

#include <memory>
#include <string>
#include <string_view>
#include <vector>

#include "regcube/common/status.h"
#include "regcube/core/regression_cube.h"
#include "regcube/htree/htree.h"
#include "regcube/io/binary_io.h"

namespace regcube {

/// Binary encodings for the library's persistent artifacts (the paper's
/// abstract: minimize "the amount of data to be retained in memory or
/// stored on disks"). All formats are little-endian, versioned by a magic
/// word, and decode with full validation — truncated or mismatched input
/// yields a Status, never UB.
///
/// Encoded artifacts:
///  * m-layer tuple sets  — a computed analysis window (4 numbers/cell);
///  * regression cubes    — both critical layers + exception cells;
///  * tilt-frame blocks   — per-cell stream state (spill and checkpoints);
///    their codec is TiltTimeFrame::AppendBlock / FromBlock, next to the
///    frame's layout (regcube/time/tilt_frame.h).

/// m-layer tuples ("RGT1").
std::string EncodeMLayerTuples(const std::vector<MLayerTuple>& tuples);
Result<std::vector<MLayerTuple>> DecodeMLayerTuples(std::string_view data);

/// Materialized cube ("RGC1"). The schema is not serialized; the caller
/// supplies it at decode time and the dimension count is validated.
std::string EncodeRegressionCube(const RegressionCube& cube);
Result<RegressionCube> DecodeRegressionCube(
    std::shared_ptr<const CubeSchema> schema, std::string_view data);

/// Cell-key codec shared by the tuple/cube formats and the frame store's
/// checkpoint tables (u8 dimension count + u32 per value; decode rejects
/// counts above kMaxDims).
void EncodeCellKey(ByteWriter* w, const CellKey& key);
Result<CellKey> DecodeCellKey(ByteReader* r);

}  // namespace regcube

#endif  // REGCUBE_IO_CUBE_IO_H_
