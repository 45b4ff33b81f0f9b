// ShardedStreamEngine contract tests: shard-count invariance (results for
// N in {1, 2, 8} shards are identical to the reference store fed the same
// stream — not merely close) and deterministic concurrent ingest.
// Comparators, the reference store and the shared engine defaults come
// from the equivalence harness (tests/equivalence_harness.h); shard
// invariance is a determinism claim, so every comparison is bitwise.

#include "regcube/core/sharded_engine.h"

#include <memory>
#include <thread>
#include <vector>

#include "gtest/gtest.h"
#include "regcube/gen/stream_generator.h"
#include "equivalence_harness.h"
#include "test_util.h"

namespace regcube {
namespace {

using equivalence::ChurnEngineOptions;
using equivalence::ChurnWorkload;
using equivalence::ExpectCubesIdentical;
using equivalence::ExpectGathersIdentical;
using testing_util::ReferenceStore;

WorkloadSpec ShardSpec(std::int64_t tuples = 60, std::int64_t ticks = 32) {
  return ChurnWorkload(tuples, ticks, /*seed=*/17, /*fanout=*/3);
}

StreamCubeEngine::Options ShardOptions(double threshold = 0.02) {
  return ChurnEngineOptions(threshold);
}

/// Builds an N-shard engine over the generated stream, sealed. (The
/// engine holds mutexes and atomics, so it lives on the heap.)
std::unique_ptr<ShardedStreamEngine> MakeSealed(const WorkloadSpec& spec,
                                                int shards) {
  auto schema = MakeWorkloadSchemaPtr(spec);
  EXPECT_TRUE(schema.ok());
  auto engine =
      std::make_unique<ShardedStreamEngine>(*schema, ShardOptions(), shards);
  StreamGenerator gen(spec);
  EXPECT_TRUE(engine->IngestBatch(gen.GenerateStream()).ok());
  EXPECT_TRUE(engine->SealThrough(spec.series_length - 1).ok());
  return engine;
}

/// The reference store fed the same sealed stream.
ReferenceStore MakeSealedReference(const WorkloadSpec& spec) {
  auto schema = MakeWorkloadSchemaPtr(spec);
  EXPECT_TRUE(schema.ok());
  ReferenceStore reference(*schema, ShardOptions());
  StreamGenerator gen(spec);
  EXPECT_TRUE(reference.IngestBatch(gen.GenerateStream()).ok());
  EXPECT_TRUE(reference.SealThrough(spec.series_length - 1).ok());
  return reference;
}

TEST(ShardedEngineTest, CubeIdenticalAcrossShardCounts) {
  WorkloadSpec spec = ShardSpec();
  const ReferenceStore reference = MakeSealedReference(spec);
  auto ref_cube = reference.ComputeCube(0, 8);
  ASSERT_TRUE(ref_cube.ok()) << ref_cube.status().ToString();

  for (int shards : {1, 2, 8}) {
    auto engine = MakeSealed(spec, shards);
    EXPECT_EQ(engine->num_shards(), shards);
    EXPECT_EQ(engine->num_cells(), reference.num_cells());
    auto cube = engine->ComputeCube(0, 8);
    ASSERT_TRUE(cube.ok()) << cube.status().ToString();
    ExpectCubesIdentical(*ref_cube, *cube);
  }
}

TEST(ShardedEngineTest, QueriesIdenticalAcrossShardCounts) {
  WorkloadSpec spec = ShardSpec();
  const ReferenceStore reference = MakeSealedReference(spec);
  const CuboidLattice& lattice = reference.lattice();
  const int num_levels = ShardOptions().tilt_policy->num_levels();

  auto ref_deck = reference.ObservationDeck(1);
  ASSERT_TRUE(ref_deck.ok());
  auto ref_changes = reference.DetectTrendChanges(0, 0.02);
  ASSERT_TRUE(ref_changes.ok());

  StreamGenerator gen(spec);
  const CellKey o_key =
      lattice.ProjectMLayerKey(gen.cells()[0].key, lattice.o_layer_id());
  auto ref_cell = reference.QueryCell(lattice.o_layer_id(), o_key, 0, 8);
  ASSERT_TRUE(ref_cell.ok());
  auto ref_series = reference.QueryCellSeries(lattice.o_layer_id(), o_key, 1);
  ASSERT_TRUE(ref_series.ok());

  for (int shards : {1, 2, 8}) {
    auto engine = MakeSealed(spec, shards);

    // The gather carries every slot of every level: the window, deck and
    // trend reads are pure functions of it.
    const auto gathered = engine->GatherAlignedCells();
    ExpectGathersIdentical(gathered, reference.Gather(), num_levels);

    auto cell = engine->QueryCell(lattice.o_layer_id(), o_key, 0, 8);
    ASSERT_TRUE(cell.ok());
    EXPECT_EQ(*ref_cell, *cell);

    auto series = engine->QueryCellSeries(lattice.o_layer_id(), o_key, 1);
    ASSERT_TRUE(series.ok());
    EXPECT_EQ(*ref_series, *series);

    auto deck = SnapshotDeckOf(*gathered.cells, lattice, num_levels, 1);
    ASSERT_TRUE(deck.ok());
    EXPECT_EQ(*ref_deck, *deck);

    auto changes = SnapshotTrendChangesOf(*gathered.cells, lattice,
                                          num_levels, 0, 0.02);
    ASSERT_TRUE(changes.ok());
    ASSERT_EQ(changes->size(), ref_changes->size());
    for (size_t i = 0; i < changes->size(); ++i) {
      EXPECT_EQ((*ref_changes)[i].key, (*changes)[i].key);
      EXPECT_EQ((*ref_changes)[i].previous, (*changes)[i].previous);
      EXPECT_EQ((*ref_changes)[i].current, (*changes)[i].current);
    }
  }
}

TEST(ShardedEngineTest, ConcurrentIngestIsDeterministicAfterSeal) {
  WorkloadSpec spec = ShardSpec(/*tuples=*/80, /*ticks=*/32);
  auto schema = MakeWorkloadSchemaPtr(spec);
  ASSERT_TRUE(schema.ok());
  StreamGenerator gen(spec);
  const std::vector<StreamTuple> stream = gen.GenerateStream();

  auto want = MakeSealedReference(spec).ComputeCube(0, 8);
  ASSERT_TRUE(want.ok());

  // 4 writer threads, each owning a disjoint slice of the cells (so
  // per-cell tick order is preserved within its writer).
  constexpr int kThreads = 4;
  std::vector<std::vector<StreamTuple>> slices(kThreads);
  for (const StreamTuple& t : stream) {
    slices[t.key.Hash() % kThreads].push_back(t);
  }

  for (int round = 0; round < 3; ++round) {
    ShardedStreamEngine concurrent(*schema, ShardOptions(), 8);
    std::vector<std::thread> writers;
    writers.reserve(kThreads);
    for (int i = 0; i < kThreads; ++i) {
      writers.emplace_back([&concurrent, &slices, i] {
        ASSERT_TRUE(concurrent.IngestBatch(slices[static_cast<size_t>(i)]).ok());
      });
    }
    for (std::thread& w : writers) w.join();
    ASSERT_TRUE(concurrent.SealThrough(spec.series_length - 1).ok());
    EXPECT_EQ(concurrent.num_cells(), spec.num_tuples);

    auto cube = concurrent.ComputeCube(0, 8);
    ASSERT_TRUE(cube.ok()) << cube.status().ToString();
    ExpectCubesIdentical(*want, *cube);
  }
}

TEST(ShardedEngineTest, ConcurrentSingleTupleIngestAlsoDeterministic) {
  // Same claim with per-tuple Ingest (finer lock churn than IngestBatch).
  WorkloadSpec spec = ShardSpec(/*tuples=*/40, /*ticks=*/16);
  auto schema = MakeWorkloadSchemaPtr(spec);
  ASSERT_TRUE(schema.ok());
  StreamGenerator gen(spec);
  const std::vector<StreamTuple> stream = gen.GenerateStream();

  constexpr int kThreads = 4;
  ShardedStreamEngine concurrent(*schema, ShardOptions(), 4);
  std::vector<std::thread> writers;
  for (int i = 0; i < kThreads; ++i) {
    writers.emplace_back([&concurrent, &stream, i] {
      for (const StreamTuple& t : stream) {
        if (t.key.Hash() % kThreads != static_cast<std::uint64_t>(i)) continue;
        ASSERT_TRUE(concurrent.Ingest(t).ok());
      }
    });
  }
  for (std::thread& w : writers) w.join();
  ASSERT_TRUE(concurrent.SealThrough(spec.series_length - 1).ok());

  ExpectGathersIdentical(concurrent.GatherAlignedCells(),
                         MakeSealedReference(spec).Gather(),
                         ShardOptions().tilt_policy->num_levels());
}

TEST(ShardedEngineTest, ErrorsSurfaceCleanly) {
  WorkloadSpec spec = ShardSpec(10, 16);
  auto schema = MakeWorkloadSchemaPtr(spec);
  ASSERT_TRUE(schema.ok());
  ShardedStreamEngine engine(*schema, ShardOptions(), 4);

  // No data yet.
  EXPECT_EQ(engine.ComputeCube(0, 1).status().code(),
            StatusCode::kFailedPrecondition);

  CellKey k(2);
  ASSERT_TRUE(engine.Ingest({k, 10, 1.0}).ok());
  // Past tick for the same cell.
  EXPECT_FALSE(engine.Ingest({k, 3, 1.0}).ok());
  // Too many slots requested.
  ASSERT_TRUE(engine.SealThrough(11).ok());
  EXPECT_FALSE(engine.ComputeCube(0, 100).ok());
  // Bad tilt level (cube, deck and trend reads) and bad cuboid id.
  EXPECT_EQ(engine.ComputeCube(99, 1).status().code(),
            StatusCode::kInvalidArgument);
  const int num_levels = ShardOptions().tilt_policy->num_levels();
  auto gathered = engine.GatherAlignedCells();
  EXPECT_EQ(SnapshotDeckOf(*gathered.cells, engine.lattice(), num_levels, 99)
                .status()
                .code(),
            StatusCode::kInvalidArgument);
  EXPECT_EQ(SnapshotTrendChangesOf(*gathered.cells, engine.lattice(),
                                   num_levels, 99, 0.0)
                .status()
                .code(),
            StatusCode::kInvalidArgument);
  EXPECT_EQ(engine.QueryCell(-1, k, 0, 1).status().code(),
            StatusCode::kInvalidArgument);
}

TEST(ShardedEngineTest, LaggingShardAlignsToGlobalClock) {
  // One cell races ahead in time on its shard; a query about a cell on a
  // lagging shard must still see slot structures aligned to the global
  // clock (backfilled with zeros), exactly like the single engine.
  auto h = std::make_shared<FanoutHierarchy>(1, 8);
  auto schema_result = CubeSchema::Create({Dimension("A", h)}, {1}, {1});
  ASSERT_TRUE(schema_result.ok());
  auto schema = std::make_shared<CubeSchema>(std::move(schema_result).value());
  ShardedStreamEngine engine(schema, ShardOptions(), 4);

  CellKey ahead(1), behind(1);
  ahead.set(0, 0);
  behind.set(0, 1);
  for (TimeTick t = 0; t < 32; ++t) {
    ASSERT_TRUE(engine.Ingest({ahead, t, 2.0}).ok());
    if (t < 8) {
      ASSERT_TRUE(engine.Ingest({behind, t, 3.0}).ok());
    }
  }
  ASSERT_TRUE(engine.SealThrough(31).ok());
  auto gathered = engine.GatherAlignedCells();
  auto window = SnapshotWindowOf(*gathered.cells, 0, 8);  // full 32 ticks
  ASSERT_TRUE(window.ok()) << window.status().ToString();
  ASSERT_EQ(window->size(), 2u);
  for (const MLayerTuple& t : *window) {
    EXPECT_EQ(t.measure.interval.tb, 0);
    EXPECT_EQ(t.measure.interval.te, 31);
    if (t.key == behind) {
      EXPECT_NEAR(t.measure.SeriesSum(), 8 * 3.0, 1e-9);
    }
  }
}

// SealThrough(t) closes every tick <= t in every cell, also on a shard
// whose own clock a writer already pushed past t: with the cell that ran
// ahead and a lagging cell on one shard, the lagging one must refuse a
// sealed tick exactly as it does when the two sit on different shards.
TEST(ShardedEngineTest, SealClosesLaggingCellsOnAShardThatRanAhead) {
  WorkloadSpec spec = ShardSpec(10, 16);
  auto schema = MakeWorkloadSchemaPtr(spec);
  ASSERT_TRUE(schema.ok());
  const CellKey lagging = equivalence::Key2(0, 0);
  const CellKey ahead = equivalence::Key2(1, 1);
  for (int shards : {1, 2, 8}) {
    SCOPED_TRACE(shards);
    ShardedStreamEngine engine(*schema, ShardOptions(), shards);
    ASSERT_TRUE(engine.Ingest({lagging, 0, 1.0}).ok());
    ASSERT_TRUE(engine.Ingest({ahead, 10, 1.0}).ok());
    ASSERT_TRUE(engine.SealThrough(5).ok());
    EXPECT_EQ(engine.Ingest({lagging, 3, 1.0}).code(),
              StatusCode::kOutOfRange);
    EXPECT_TRUE(engine.Ingest({lagging, 10, 1.0}).ok());
  }
}

// A batch that fails part-way keeps what the earlier shards absorbed, and
// now() must follow those tuples in both write modes: shard 0 takes a tuple
// ahead of the sealed clock, then shard 1 refuses a late one.
TEST(ShardedEngineTest, ClockFollowsAbsorbedPrefixOfAFailedBatch) {
  WorkloadSpec spec = ShardSpec(10, 16);
  auto schema = MakeWorkloadSchemaPtr(spec);
  ASSERT_TRUE(schema.ok());
  std::vector<CellKey> by_shard;  // one key per shard of a 2-shard engine
  for (ValueId a = 0; by_shard.size() < 2; ++a) {
    const CellKey key = equivalence::Key2(a, 0);
    if (key.Hash() % 2 == by_shard.size()) by_shard.push_back(key);
  }
  constexpr TimeTick kSealed = 15;

  for (IngestMode mode : {IngestMode::kSync, IngestMode::kAsync}) {
    SCOPED_TRACE(mode == IngestMode::kSync ? "sync" : "async");
    IngestConfig ingest;
    ingest.mode = mode;
    ShardedStreamEngine engine(*schema, ShardOptions(), 2, nullptr, ingest);
    ASSERT_TRUE(
        engine.IngestBatch({{by_shard[0], 0, 1.0}, {by_shard[1], 0, 1.0}})
            .ok());
    ASSERT_TRUE(engine.SealThrough(kSealed).ok());

    const IngestReport report = engine.IngestBatch(
        {{by_shard[0], kSealed + 5, 2.0}, {by_shard[1], kSealed - 1, 2.0}});
    if (mode == IngestMode::kSync) {
      EXPECT_FALSE(report.ok());
      EXPECT_EQ(report.absorbed, 1);
    } else {
      EXPECT_FALSE(engine.Flush().ok());
      EXPECT_EQ(engine.IngestStats().total.absorbed, 3);
    }
    EXPECT_GE(engine.now(), kSealed + 5);
  }
}

}  // namespace
}  // namespace regcube
