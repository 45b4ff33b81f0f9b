// Randomized differential tests: each case derives its entire input from a
// seed (PCG32), so failures reproduce exactly. Four targets:
//   1. decoder robustness — every truncation point and random byte flips of
//      valid encodings must return Status, never crash or hang;
//   2. engine-vs-batch — streams with random gaps, duplicate ticks and
//      late-starting cells must produce the same cube as batch computation;
//   3. cross-algorithm — random workloads, thresholds and paths keep the
//      two algorithms' outputs in their proven relationship;
//   4. facade point queries — randomly projected kCell/kCellSeries specs
//      (valid members, zero-member keys, out-of-range cuboids/levels,
//      stale keys re-probed after churn) must match the retained
//      scan-path oracle bit for bit, errors included.

#include <algorithm>
#include <array>
#include <cmath>
#include <string>
#include <vector>

#include "gtest/gtest.h"
#include "regcube/core/mo_cubing.h"
#include "regcube/core/popular_path.h"
#include "regcube/core/stream_engine.h"
#include "regcube/io/cube_io.h"
#include "equivalence_harness.h"
#include "test_util.h"
#include "tilt_frame_state.h"

namespace regcube {
namespace {

using testing_util::EncodeFrameBytes;
using testing_util::ExpectCellMapsEqual;
using testing_util::ExpectIsbNear;
using testing_util::MakeSmallWorkload;
using testing_util::MustFit;
using testing_util::SmallWorkload;

TEST(DecoderFuzzTest, EveryTruncationPointFailsCleanly) {
  SmallWorkload w = MakeSmallWorkload(3, 2, 3, 20, 401);
  const std::string encoded = EncodeMLayerTuples(w.tuples);
  for (size_t cut = 0; cut < encoded.size(); ++cut) {
    auto decoded = DecodeMLayerTuples(std::string_view(encoded).substr(0, cut));
    EXPECT_FALSE(decoded.ok()) << "cut at " << cut;
  }
}

TEST(DecoderFuzzTest, RandomByteFlipsNeverCrash) {
  SmallWorkload w = MakeSmallWorkload(2, 2, 3, 30, 403);
  MoCubingOptions mo;
  mo.policy = ExceptionPolicy(0.02);
  auto cube = ComputeMoCubing(w.schema, w.tuples, mo);
  ASSERT_TRUE(cube.ok());
  const std::string encoded = EncodeRegressionCube(*cube);

  Pcg32 rng(403);
  for (int trial = 0; trial < 300; ++trial) {
    std::string corrupted = encoded;
    const int flips = 1 + static_cast<int>(rng.Uniform(4));
    for (int f = 0; f < flips; ++f) {
      const size_t pos = rng.Uniform(static_cast<std::uint32_t>(
          corrupted.size()));
      corrupted[pos] =
          static_cast<char>(corrupted[pos] ^ (1 << rng.Uniform(8)));
    }
    // Must either decode (flip hit a measure payload double) or fail with
    // a Status — anything else (crash, UB) fails the test by construction.
    auto decoded = DecodeRegressionCube(w.schema, corrupted);
    if (decoded.ok()) {
      EXPECT_EQ(decoded->m_layer().size(), cube->m_layer().size());
    }
  }
}

TEST(DecoderFuzzTest, TiltFrameBlockByteFlipsNeverCrash) {
  // Random flips anywhere in a block either decode (a flip inside a
  // moment's bytes) or fail with a typed error; a decoded frame is
  // internally consistent enough to re-encode to the flipped bytes.
  auto policy = std::shared_ptr<const TiltPolicy>(
      MakeUniformTiltPolicy({{"q", 4}, {"h", 6}}, {1, 4}));
  TiltTimeFrame frame(policy, 0);
  for (TimeTick t = 0; t < 30; ++t) {
    ASSERT_TRUE(frame.Add(t, static_cast<double>(t)).ok());
  }
  const std::string encoded = EncodeFrameBytes(frame);
  Pcg32 rng(407);
  for (int trial = 0; trial < 300; ++trial) {
    std::string corrupted = encoded;
    const size_t pos =
        rng.Uniform(static_cast<std::uint32_t>(corrupted.size()));
    corrupted[pos] = static_cast<char>(corrupted[pos] ^ (1 << rng.Uniform(8)));
    auto decoded = TiltTimeFrame::FromBlock(policy, corrupted);
    if (!decoded.ok()) {
      EXPECT_TRUE(decoded.status().code() == StatusCode::kInvalidArgument ||
                  decoded.status().code() == StatusCode::kOutOfRange)
          << decoded.status().ToString();
      continue;
    }
    // Only the pending-active byte is read as a bool: any nonzero value
    // re-encodes as 1.
    const std::string again = EncodeFrameBytes(*decoded);
    if (again != corrupted) {
      std::string normalized = corrupted;
      normalized[pos] = 1;
      EXPECT_EQ(again, normalized) << "pos " << pos;
    }
  }
}

TEST(DecoderFuzzTest, CheckpointShardFileRoundTripsRandomCells) {
  // Random cells with random frame shapes must survive the checkpoint
  // shard-file encoding bitwise, and every truncation of the file must
  // fail attachment cleanly (never crash, never half-attach).
  auto policy = std::shared_ptr<const TiltPolicy>(
      MakeUniformTiltPolicy({{"q", 4}, {"h", 6}}, {1, 4}));
  Pcg32 rng(409);
  std::vector<std::pair<CellKey, TiltTimeFrame>> cells;
  for (int i = 0; i < 20; ++i) {
    CellKey key(2);
    key.set(0, static_cast<ValueId>(rng.Uniform(64)));
    key.set(1, static_cast<ValueId>(i));  // distinct second coordinate
    TiltTimeFrame frame(policy, 0);
    const TimeTick ticks = 1 + static_cast<TimeTick>(rng.Uniform(40));
    for (TimeTick t = 0; t < ticks; ++t) {
      if (rng.Uniform(4) == 0) continue;  // gaps
      ASSERT_TRUE(frame.Add(t, rng.NextDouble() * 8.0 - 4.0).ok());
    }
    cells.emplace_back(key, std::move(frame));
  }
  std::size_t block_bytes = 0;
  for (const auto& [key, frame] : cells) {
    block_bytes += frame.BlockSize();
  }
  CheckpointShardWriter writer(0, cells.size(), block_bytes);
  for (const auto& [key, frame] : cells) writer.AddFrame(key, frame);
  const std::string file = std::move(writer).Finish();

  const std::string path =
      ::testing::TempDir() + "/regcube_fuzz_ckpt_shard.rcs";
  ASSERT_TRUE(WriteFile(path, file).ok());
  auto store = FrameStore::Open("");
  ASSERT_TRUE(store.ok());
  auto entries = (*store)->AttachCheckpointFile(path);
  ASSERT_TRUE(entries.ok()) << entries.status().ToString();
  ASSERT_EQ(entries->size(), cells.size());
  for (size_t i = 0; i < entries->size(); ++i) {
    EXPECT_EQ((*entries)[i].key, cells[i].first);
    ByteWriter raw;
    ASSERT_TRUE((*store)->CopyRawBlock((*entries)[i].ref, &raw).ok());
    // Bitwise round trip.
    EXPECT_EQ(raw.buffer(), EncodeFrameBytes(cells[i].second));
    auto frame = (*store)->ReadFrame((*entries)[i].ref, policy);
    ASSERT_TRUE(frame.ok()) << frame.status().ToString();
    EXPECT_EQ(EncodeFrameBytes(*frame), raw.buffer());
  }

  for (size_t cut = 0; cut < file.size(); cut += 7) {
    ASSERT_TRUE(WriteFile(path, file.substr(0, cut)).ok());
    auto broken = FrameStore::Open("");
    ASSERT_TRUE(broken.ok());
    EXPECT_FALSE((*broken)->AttachCheckpointFile(path).ok())
        << "cut at " << cut;
  }
  std::remove(path.c_str());
}

TEST(DecoderFuzzTest, CheckpointBlockByteFlipsAreAllCaught) {
  // Every single-byte change of a checkpoint block changes its checksum
  // (each hash step is a bijection of the running state), and attaching a
  // file with any one byte of a block flipped fails with InvalidArgument
  // before the file enters the ref space.
  auto policy = std::shared_ptr<const TiltPolicy>(
      MakeUniformTiltPolicy({{"q", 4}, {"h", 6}}, {1, 4}));
  TiltTimeFrame frame(policy, 0);
  for (TimeTick t = 0; t < 37; ++t) {
    ASSERT_TRUE(frame.Add(t, 0.25 * static_cast<double>(t % 11)).ok());
  }
  CellKey key(2);
  key.set(0, 3);
  key.set(1, 5);
  CheckpointShardWriter writer(0, 1, frame.BlockSize());
  writer.AddFrame(key, frame);
  const std::string file = std::move(writer).Finish();
  const std::string block = EncodeFrameBytes(frame);
  ASSERT_NE(block.size() % 8, 0u) << "the sweep should cover a byte tail";
  const size_t block_offset = 16;  // right after the file header
  ASSERT_EQ(file.substr(block_offset, block.size()), block);

  const std::uint64_t sum = BlockChecksum(block);
  for (size_t pos = 0; pos < block.size(); ++pos) {
    for (int mask : {0x01, 0x10, 0x80, 0xFF}) {
      std::string flipped = block;
      flipped[pos] = static_cast<char>(flipped[pos] ^ mask);
      ASSERT_NE(BlockChecksum(flipped), sum)
          << "pos " << pos << " mask " << mask;
    }
  }
  // The length is folded in: a zero byte appended is caught, and so is
  // the block's last byte dropped (a zero: the high byte of the last
  // level's pending start). Dropping the first byte is caught too.
  ASSERT_EQ(block.back(), '\0');
  EXPECT_NE(BlockChecksum(block + std::string(1, '\0')), sum);
  EXPECT_NE(BlockChecksum(std::string_view(block).substr(0, block.size() - 1)),
            sum);
  EXPECT_NE(BlockChecksum(std::string_view(block).substr(1)), sum);

  const std::string path =
      ::testing::TempDir() + "/regcube_fuzz_ckpt_flip.rcs";
  for (size_t pos = 0; pos < block.size(); ++pos) {
    std::string flipped = file;
    flipped[block_offset + pos] =
        static_cast<char>(flipped[block_offset + pos] ^ 0xFF);
    ASSERT_TRUE(WriteFile(path, flipped).ok());
    auto store = FrameStore::Open("");
    ASSERT_TRUE(store.ok());
    auto attached = (*store)->AttachCheckpointFile(path);
    ASSERT_FALSE(attached.ok()) << "flip at " << pos;
    EXPECT_EQ(attached.status().code(), StatusCode::kInvalidArgument)
        << attached.status().ToString();
    EXPECT_EQ((*store)->DiskBytes(), 0) << "flip at " << pos;
  }
  std::remove(path.c_str());
}

TEST(DecoderFuzzTest, CheckpointManifestRoundTripsRandomFields) {
  // Every manifest field (the seal clock included) survives the encoding
  // exactly, and every truncation fails with a typed error.
  Pcg32 rng(411);
  for (int trial = 0; trial < 50; ++trial) {
    CheckpointManifest m;
    m.num_shard_files = 1 + static_cast<std::int32_t>(rng.Uniform(16));
    m.num_dims = 1 + static_cast<std::int32_t>(rng.Uniform(8));
    m.num_levels = 1 + static_cast<std::int32_t>(rng.Uniform(6));
    m.start_tick = static_cast<TimeTick>(rng.Uniform(1000));
    m.seal_clock = m.start_tick + static_cast<TimeTick>(rng.Uniform(1000));
    m.clock = m.seal_clock + static_cast<TimeTick>(rng.Uniform(100));
    m.num_cells = static_cast<std::int64_t>(rng.Uniform(1u << 20));
    const std::string encoded = EncodeCheckpointManifest(m);
    auto decoded = DecodeCheckpointManifest(encoded);
    ASSERT_TRUE(decoded.ok()) << decoded.status().ToString();
    EXPECT_EQ(decoded->num_shard_files, m.num_shard_files);
    EXPECT_EQ(decoded->num_dims, m.num_dims);
    EXPECT_EQ(decoded->num_levels, m.num_levels);
    EXPECT_EQ(decoded->start_tick, m.start_tick);
    EXPECT_EQ(decoded->clock, m.clock);
    EXPECT_EQ(decoded->seal_clock, m.seal_clock);
    EXPECT_EQ(decoded->num_cells, m.num_cells);
    for (size_t cut = 0; cut < encoded.size(); ++cut) {
      auto torn = DecodeCheckpointManifest(
          std::string_view(encoded).substr(0, cut));
      ASSERT_FALSE(torn.ok()) << "cut at " << cut;
      const StatusCode code = torn.status().code();
      EXPECT_TRUE(code == StatusCode::kInvalidArgument ||
                  code == StatusCode::kOutOfRange)
          << "cut at " << cut << ": " << torn.status().ToString();
    }
  }
}

TEST(CheckpointTornWriteFuzzTest, EveryTruncationRestoresOrFailsTyped) {
  // A torn checkpoint write (power cut mid-write: an arbitrary prefix of
  // one file survives) must never crash OpenFrom and never half-restore:
  // every truncation of the manifest or of any shard segment either opens
  // bit-identically to the pristine checkpoint (the tear missed the
  // commit point) or fails with a typed error from the contract set.
  WorkloadSpec spec = equivalence::ChurnWorkload(/*tuples=*/60,
                                                 /*ticks=*/16, /*seed=*/77);
  auto schema = MakeWorkloadSchemaPtr(spec);
  ASSERT_TRUE(schema.ok());
  EngineBuilder builder;
  builder.SetSchema(*schema)
      .SetTiltPolicy(equivalence::SmallTiltPolicy())
      .SetExceptionPolicy(ExceptionPolicy(0.02))
      .SetShardCount(2);
  auto built = builder.Build();
  ASSERT_TRUE(built.ok());
  Engine engine = std::move(built).value();
  StreamGenerator gen(spec);
  ASSERT_TRUE(engine.IngestBatch(gen.GenerateStream()).ok());
  ASSERT_TRUE(engine.SealThrough(spec.series_length - 1).ok());

  const std::string dir = ::testing::TempDir() + "/fuzz_torn_ckpt";
  ASSERT_TRUE(engine.Checkpoint(dir).ok());
  auto want = engine.TakeSnapshot()->Window(0, 4);
  ASSERT_TRUE(want.ok());

  // The checkpoint's file set: the manifest plus every shard segment the
  // writer produced.
  std::vector<std::string> paths = {CheckpointManifestPath(dir)};
  for (int i = 0; i < 2; ++i) {
    paths.push_back(CheckpointShardFilePath(dir, i));
  }
  for (const std::string& path : paths) {
    auto pristine = ReadFile(path);
    ASSERT_TRUE(pristine.ok()) << path;
    ASSERT_FALSE(pristine->empty());
    const size_t step = std::max<size_t>(1, pristine->size() / 48);
    for (size_t cut = 0; cut < pristine->size(); cut += step) {
      ASSERT_TRUE(WriteFile(path, pristine->substr(0, cut)).ok());
      auto opened = builder.OpenFrom(dir);
      if (opened.ok()) {
        // The tear was survivable: the restore must be complete and
        // bit-identical, never a silent partial state.
        EXPECT_EQ(opened->num_cells(), engine.num_cells())
            << path << " cut at " << cut;
        auto got = opened->TakeSnapshot()->Window(0, 4);
        ASSERT_TRUE(got.ok());
        ASSERT_EQ(got->size(), want->size());
        for (size_t i = 0; i < want->size(); ++i) {
          EXPECT_EQ((*got)[i].key, (*want)[i].key);
          EXPECT_EQ((*got)[i].measure, (*want)[i].measure);
        }
      } else {
        const StatusCode code = opened.status().code();
        EXPECT_TRUE(code == StatusCode::kInvalidArgument ||
                    code == StatusCode::kOutOfRange ||
                    code == StatusCode::kNotFound ||
                    code == StatusCode::kFailedPrecondition)
            << path << " cut at " << cut << ": "
            << opened.status().ToString();
      }
    }
    // Restore the pristine file; the checkpoint must open again.
    ASSERT_TRUE(WriteFile(path, *pristine).ok());
    ASSERT_TRUE(builder.OpenFrom(dir).ok()) << path;
  }
}

struct EngineFuzzCase {
  int seed;
};

class EngineFuzzTest : public ::testing::TestWithParam<int> {};

TEST_P(EngineFuzzTest, GappyStreamsMatchBatchComputation) {
  // Random stream: each cell gets a random subset of ticks (gaps = zeros),
  // random duplicate observations at a tick, cells starting late. The
  // engine's window must equal a directly-constructed batch of the same
  // effective (zero-filled, summed) series.
  Pcg32 rng(static_cast<std::uint64_t>(GetParam()) + 7000);
  const int num_cells = 4 + static_cast<int>(rng.Uniform(8));
  const TimeTick total = 32;

  auto h = std::make_shared<FanoutHierarchy>(2, 3);
  auto schema_result = CubeSchema::Create(
      {Dimension("A", h), Dimension("B", h)}, {2, 2}, {1, 1});
  ASSERT_TRUE(schema_result.ok());
  auto schema = std::make_shared<CubeSchema>(std::move(schema_result).value());

  StreamCubeEngine::Options options;
  options.tilt_policy =
      MakeUniformTiltPolicy({{"q", 8}, {"h", 4}}, {4, 16});
  options.policy = ExceptionPolicy(0.01);
  StreamCubeEngine engine(schema, options);

  // Effective dense series per cell (what the engine semantics define).
  std::unordered_map<CellKey, std::vector<double>, CellKeyHash> dense;
  std::vector<CellKey> keys;
  for (int c = 0; c < num_cells; ++c) {
    CellKey key(2);
    key.set(0, rng.Uniform(9));
    key.set(1, rng.Uniform(9));
    if (dense.count(key)) continue;
    dense.emplace(key, std::vector<double>(total, 0.0));
    keys.push_back(key);
  }

  for (TimeTick t = 0; t < total; ++t) {
    for (const CellKey& key : keys) {
      // 70% chance of 1 observation, 15% of 2, 15% of none.
      const double dice = rng.NextDouble();
      const int obs = dice < 0.15 ? 0 : (dice < 0.30 ? 2 : 1);
      for (int i = 0; i < obs; ++i) {
        const double v = rng.NextDouble() * 4.0 - 1.0;
        dense[key][static_cast<size_t>(t)] += v;
        ASSERT_TRUE(engine.Ingest({key, t, v}).ok());
      }
    }
  }
  ASSERT_TRUE(engine.SealThrough(total - 1).ok());

  // Batch reference from the dense series.
  std::vector<MLayerTuple> reference;
  for (const CellKey& key : keys) {
    reference.push_back(
        MLayerTuple{key, MustFit(TimeSeries(0, dense[key]))});
  }

  auto window = engine.SnapshotWindow(/*level=*/0, /*k=*/8);
  ASSERT_TRUE(window.ok()) << window.status().ToString();
  ASSERT_EQ(window->size(), reference.size());
  CellMap expected;
  for (const auto& t : reference) expected.emplace(t.key, t.measure);
  for (const auto& t : *window) {
    auto it = expected.find(t.key);
    ASSERT_NE(it, expected.end());
    ExpectIsbNear(it->second, t.measure, 1e-8);
  }

  // And the cube over that window matches the batch cube.
  auto engine_cube = engine.ComputeCube(0, 8);
  MoCubingOptions mo;
  mo.policy = ExceptionPolicy(0.01);
  auto batch_cube = ComputeMoCubing(schema, reference, mo);
  ASSERT_TRUE(engine_cube.ok());
  ASSERT_TRUE(batch_cube.ok());
  ExpectCellMapsEqual(batch_cube->o_layer(), engine_cube->o_layer(), 1e-8);
}

INSTANTIATE_TEST_SUITE_P(Seeds, EngineFuzzTest, ::testing::Range(0, 12));

class AlgorithmFuzzTest : public ::testing::TestWithParam<int> {};

TEST_P(AlgorithmFuzzTest, RandomWorkloadsKeepInvariants) {
  Pcg32 rng(static_cast<std::uint64_t>(GetParam()) + 9000);
  const int dims = 1 + static_cast<int>(rng.Uniform(3));
  const int levels = 2 + static_cast<int>(rng.Uniform(2));
  const int fanout = 2 + static_cast<int>(rng.Uniform(3));
  // Clamp the tuple count to the m-layer key space (tiny for D1/fanout 2).
  double space = 1.0;
  for (int d = 0; d < dims; ++d) {
    space *= std::pow(static_cast<double>(fanout), levels);
  }
  const int tuples = std::min(20 + static_cast<int>(rng.Uniform(120)),
                              static_cast<int>(space));
  const double threshold = rng.NextDouble() * 0.1;
  SmallWorkload w = MakeSmallWorkload(
      dims, levels, fanout, tuples,
      static_cast<std::uint64_t>(GetParam()) + 9500);

  MoCubingOptions mo;
  mo.policy = ExceptionPolicy(threshold);
  auto cube1 = ComputeMoCubing(w.schema, w.tuples, mo);
  ASSERT_TRUE(cube1.ok());

  // Random drill path.
  CuboidLattice lattice(*w.schema);
  std::vector<int> order(static_cast<size_t>(dims));
  for (int d = 0; d < dims; ++d) order[static_cast<size_t>(d)] = d;
  for (int d = dims - 1; d > 0; --d) {
    std::swap(order[static_cast<size_t>(d)],
              order[rng.Uniform(static_cast<std::uint32_t>(d + 1))]);
  }
  auto path = DrillPath::MakeDimOrderPath(lattice, order);
  ASSERT_TRUE(path.ok());

  PopularPathOptions pp;
  pp.policy = ExceptionPolicy(threshold);
  pp.path = *path;
  auto cube2 = ComputePopularPathCubing(w.schema, w.tuples, pp);
  ASSERT_TRUE(cube2.ok());

  // Invariants: identical critical layers; Algorithm 2's exceptions are a
  // measure-identical subset of Algorithm 1's.
  ExpectCellMapsEqual(cube1->o_layer(), cube2->o_layer(), 1e-8);
  ExpectCellMapsEqual(cube1->m_layer(), cube2->m_layer(), 1e-8);
  EXPECT_LE(cube2->exceptions().total_cells(),
            cube1->exceptions().total_cells());
  for (CuboidId c : cube2->exceptions().Cuboids()) {
    const CellMap* sub = cube2->exceptions().CellsOf(c);
    const CellMap* super = cube1->exceptions().CellsOf(c);
    ASSERT_NE(super, nullptr);
    for (const auto& [key, isb] : *sub) {
      auto it = super->find(key);
      ASSERT_NE(it, super->end());
      ExpectIsbNear(it->second, isb, 1e-8);
    }
  }

  // Serialization survives a round trip for both cubes.
  for (const RegressionCube* cube : {&*cube1, &*cube2}) {
    auto decoded =
        DecodeRegressionCube(w.schema, EncodeRegressionCube(*cube));
    ASSERT_TRUE(decoded.ok());
    EXPECT_EQ(decoded->exceptions().total_cells(),
              cube->exceptions().total_cells());
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, AlgorithmFuzzTest, ::testing::Range(0, 20));

// --------------------------------------------------- facade point queries

/// The scan-path oracle for Engine::Query(kCell): replays the sharded
/// QueryCell contract (cuboid, level, no-data, no-members, kernel) but
/// locates members with the retained O(cells) projection scan instead of
/// the index.
Result<Isb> ScanOracleCell(ShardedStreamEngine& engine, int num_levels,
                           CuboidId cuboid, const CellKey& key, int level,
                           int k) {
  RC_RETURN_IF_ERROR(
      ValidatePointQueryTarget(engine.lattice(), cuboid, level, num_levels));
  auto gathered =
      engine.GatherCellsMatching(cuboid, key, PointLookup::kScan);
  if (gathered.total_cells == 0) return SnapshotNoDataError();
  if (gathered.cells.empty()) {
    return SnapshotNoMembersError(engine.lattice(), cuboid, key);
  }
  return SnapshotCellOf(gathered.cells, engine.lattice(), cuboid, key, level,
                        k);
}

/// Same for kCellSeries (cuboid, then level, then no-data / no-members).
Result<std::vector<Isb>> ScanOracleSeries(ShardedStreamEngine& engine,
                                          int num_levels, CuboidId cuboid,
                                          const CellKey& key, int level) {
  RC_RETURN_IF_ERROR(
      ValidatePointQueryTarget(engine.lattice(), cuboid, level, num_levels));
  auto gathered =
      engine.GatherCellsMatching(cuboid, key, PointLookup::kScan);
  if (gathered.total_cells == 0) return SnapshotNoDataError();
  if (gathered.cells.empty()) {
    return SnapshotNoMembersError(engine.lattice(), cuboid, key);
  }
  return SnapshotCellSeriesOf(gathered.cells, engine.lattice(), num_levels,
                              cuboid, key, level);
}

class FacadePointQueryFuzzTest : public ::testing::TestWithParam<int> {};

TEST_P(FacadePointQueryFuzzTest, IndexedQueriesMatchScanOracle) {
  Pcg32 rng(static_cast<std::uint64_t>(GetParam()) + 11000);
  const int fanout = 3 + static_cast<int>(rng.Uniform(2));
  // Clamp to the m-layer key space ((fanout^2)^2 for 2 dims, 2 levels),
  // leaving room for the fresh-cell churn below.
  const auto space = static_cast<std::int64_t>(fanout) * fanout * fanout *
                     fanout;
  const std::int64_t tuples = std::min(
      30 + static_cast<std::int64_t>(rng.Uniform(70)), space - 5);
  const int shards = std::array<int, 3>{1, 2, 8}[GetParam() % 3];
  WorkloadSpec spec = equivalence::ChurnWorkload(
      tuples, /*ticks=*/16, static_cast<std::uint64_t>(GetParam()) + 11500,
      fanout);
  auto schema = MakeWorkloadSchemaPtr(spec);
  ASSERT_TRUE(schema.ok());

  // The facade engine under test and a scan-path oracle engine, fed the
  // identical stream — engine state is deterministic, so agreeing answers
  // must agree bit for bit, not merely numerically.
  auto built = EngineBuilder()
                   .SetSchema(*schema)
                   .SetTiltPolicy(equivalence::SmallTiltPolicy())
                   .SetExceptionPolicy(ExceptionPolicy(0.02))
                   .SetShardCount(shards)
                   .Build();
  ASSERT_TRUE(built.ok()) << built.status().ToString();
  Engine facade = std::move(built).value();
  ShardedStreamEngine oracle(*schema, equivalence::ChurnEngineOptions(),
                             shards);
  StreamGenerator gen(spec);
  const std::vector<StreamTuple> stream = gen.GenerateStream();
  ASSERT_TRUE(facade.IngestBatch(stream).ok());
  ASSERT_TRUE(oracle.IngestBatch(stream).ok());
  ASSERT_TRUE(facade.SealThrough(spec.series_length - 1).ok());
  ASSERT_TRUE(oracle.SealThrough(spec.series_length - 1).ok());

  const CuboidLattice& lattice = oracle.lattice();
  const int num_cuboids = static_cast<int>(lattice.num_cuboids());
  const int num_levels =
      equivalence::ChurnEngineOptions().tilt_policy->num_levels();
  const int value_space = fanout * fanout;  // per-dim m-layer cardinality

  // Random probes, regenerated per round so keys probed before churn are
  // re-probed after it (a maintained index must never serve stale frames
  // or stale member sets).
  auto probe = [&](int trials) {
    for (int t = 0; t < trials; ++t) {
      // Out-of-range cuboids on both ends; projection only for valid ids.
      const CuboidId cuboid =
          static_cast<CuboidId>(rng.Uniform(
              static_cast<std::uint32_t>(num_cuboids + 2))) -
          1;
      CellKey key(2);
      if (cuboid >= 0 && cuboid < num_cuboids && rng.NextDouble() < 0.6) {
        // A real member's projection.
        const auto& cell = gen.cells()[static_cast<size_t>(
            rng.Uniform(static_cast<std::uint32_t>(gen.cells().size())))];
        key = lattice.ProjectMLayerKey(cell.key, cuboid);
      } else {
        // Random values: often zero members, sometimes whole-space misses.
        key.set(0, rng.Uniform(static_cast<std::uint32_t>(value_space)));
        key.set(1, rng.Uniform(static_cast<std::uint32_t>(value_space)));
      }
      const int level = static_cast<int>(rng.Uniform(
          static_cast<std::uint32_t>(num_levels + 1)));  // may be invalid
      const int k = 1 + static_cast<int>(rng.Uniform(3));

      auto facade_cell = facade.Query(QuerySpec::Cell(cuboid, key, level, k));
      auto oracle_cell =
          ScanOracleCell(oracle, num_levels, cuboid, key, level, k);
      ASSERT_EQ(facade_cell.ok(), oracle_cell.ok())
          << "cuboid " << cuboid << " key " << key.ToString() << " level "
          << level << ": " << facade_cell.status().ToString() << " vs "
          << oracle_cell.status().ToString();
      if (facade_cell.ok()) {
        EXPECT_EQ(facade_cell->cell(), *oracle_cell) << key.ToString();
      } else {
        EXPECT_EQ(facade_cell.status().code(), oracle_cell.status().code());
      }

      auto facade_series =
          facade.Query(QuerySpec::CellSeries(cuboid, key, level));
      auto oracle_series =
          ScanOracleSeries(oracle, num_levels, cuboid, key, level);
      ASSERT_EQ(facade_series.ok(), oracle_series.ok())
          << "cuboid " << cuboid << " key " << key.ToString();
      if (facade_series.ok()) {
        EXPECT_EQ(facade_series->series(), *oracle_series);
      } else {
        EXPECT_EQ(facade_series.status().code(),
                  oracle_series.status().code());
      }
    }
  };

  probe(20);

  // Churn both engines identically (late + advancing data, a brand-new
  // cell, a seal that rolls the epoch), then re-probe: previously indexed
  // keys are now stale and must refresh through the same dirty
  // bookkeeping every gather uses.
  for (int round = 0; round < 3; ++round) {
    const TimeTick tick = spec.series_length + round;
    for (int j = 0; j < 20; ++j) {
      const auto& cell = gen.cells()[static_cast<size_t>(
          rng.Uniform(static_cast<std::uint32_t>(gen.cells().size())))];
      const StreamTuple tuple{cell.key, tick, 1.0 + j};
      ASSERT_TRUE(facade.Ingest(tuple).ok());
      ASSERT_TRUE(oracle.Ingest(tuple).ok());
    }
    if (round == 1) {
      const StreamTuple fresh{equivalence::FreshKeyOutside(gen, value_space),
                              tick, 3.0};
      ASSERT_TRUE(facade.Ingest(fresh).ok());
      ASSERT_TRUE(oracle.Ingest(fresh).ok());
    }
    if (round == 2) {
      ASSERT_TRUE(facade.SealThrough(tick).ok());
      ASSERT_TRUE(oracle.SealThrough(tick).ok());
    }
    probe(10);
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, FacadePointQueryFuzzTest,
                         ::testing::Range(0, 9));

}  // namespace
}  // namespace regcube
