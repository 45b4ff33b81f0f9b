// O(changed-cells) gather contracts: the delta gather (frozen blocks shared
// for clean cells, dirty cells spliced into each shard's publication) must
// stay bit-identical to the reference store's full gather and from-scratch
// cube under randomized ingest interleaved with snapshots, for shard counts
// {1, 2, 8}; a gather at the cube memo's revision must return the memo's
// run itself, and never once a write moved the revision; seals that change
// nothing must not move the revision; point queries routed through the
// member-only gather must match the reference store's scan and keep the
// error contract; concurrent churn + TakeSnapshot must be race-free (this
// test runs in the TSan CI job); publishing must share the cells' own
// copy-on-write frames (only a write changes a frame pointer); and the
// frame / publication bytes must show up in the facade's memory tracker,
// each frame counted once.
//
// The randomized churn and the oracle comparators come from the shared
// equivalence harness (tests/equivalence_harness.h).

#include <atomic>
#include <memory>
#include <thread>
#include <vector>

#include "gtest/gtest.h"
#include "regcube/api/regcube.h"
#include "equivalence_harness.h"
#include "test_util.h"

namespace regcube {
namespace {

using equivalence::ChurnEngineOptions;
using equivalence::ChurnWorkload;
using equivalence::ExpectCellMapsIdentical;
using equivalence::ExpectGathersIdentical;
using equivalence::Key2;
using equivalence::SmallTiltPolicy;
using equivalence::UnusedMLayerKey;
using testing_util::ReferenceStore;

WorkloadSpec ChurnSpec(std::int64_t tuples = 120, std::int64_t ticks = 16) {
  return ChurnWorkload(tuples, ticks, /*seed=*/23);
}

/// Cells whose frame object differs between two runs of the same keys.
int ChangedFramePointers(const SnapshotCells& before,
                         const SnapshotCells& after) {
  EXPECT_EQ(before.size(), after.size());
  int changed = 0;
  for (size_t i = 0; i < before.size() && i < after.size(); ++i) {
    EXPECT_EQ(before[i].key, after[i].key);
    if (before[i].frame.get() != after[i].frame.get()) ++changed;
  }
  return changed;
}

// ------------------------------------------------------------ equivalence

TEST(DeltaGatherTest, MatchesFullGatherUnderRandomizedChurn) {
  WorkloadSpec spec = ChurnSpec();
  auto schema = MakeWorkloadSchemaPtr(spec);
  ASSERT_TRUE(schema.ok());
  StreamGenerator gen(spec);
  const std::vector<StreamTuple> stream = gen.GenerateStream();
  const int num_levels = ChurnEngineOptions().tilt_policy->num_levels();

  // Churn rounds with advancing ticks: some cross quarter/hour unit
  // boundaries (forcing re-alignment of carried blocks), some stay inside
  // the open unit (exercising boundary-free block sharing); a snapshot is
  // taken and checked every round, and periodic seals and a brand-new
  // mid-churn cell stress the patch/insert paths.
  equivalence::ChurnPlan plan;
  plan.rounds = 10;
  plan.seed = 23;
  plan.base_tick = spec.series_length;
  plan.advance_ticks = true;
  plan.seal_every = 3;
  plan.fresh_round = 4;
  plan.fresh_key = Key2(15, 15);

  // The reference store sees the identical writes (RunChurnRounds is a
  // pure function of the plan) and answers every read the plain way.
  ReferenceStore reference(*schema, ChurnEngineOptions());
  ASSERT_TRUE(reference.IngestBatch(stream).ok());
  ASSERT_TRUE(reference.SealThrough(spec.series_length - 1).ok());
  std::vector<ShardedStreamEngine::GatheredCells> want;
  equivalence::RunChurnRounds(reference, gen.cells(), plan, [&](int) {
    want.push_back(reference.Gather());
  });

  for (int shards : {1, 2, 8}) {
    auto pool = std::make_shared<ThreadPool>(3);
    ShardedStreamEngine engine(*schema, ChurnEngineOptions(), shards, pool);
    ASSERT_TRUE(engine.IngestBatch(stream).ok());
    ASSERT_TRUE(engine.SealThrough(spec.series_length - 1).ok());

    equivalence::RunChurnRounds(engine, gen.cells(), plan, [&](int round) {
      ExpectGathersIdentical(engine.GatherAlignedCells(),
                             want[static_cast<size_t>(round)], num_levels);
    });

    // End-state: the delta-gathered window also cubes bit for bit like
    // the reference store's from-scratch cube (m-layer and o-layer).
    auto snapshot_cube = engine.ComputeCube(0, 4);
    auto reference_cube = reference.ComputeCube(0, 4);
    ASSERT_TRUE(snapshot_cube.ok()) << snapshot_cube.status().ToString();
    ASSERT_TRUE(reference_cube.ok()) << reference_cube.status().ToString();
    ExpectCellMapsIdentical(reference_cube->m_layer(),
                            snapshot_cube->m_layer());
    ExpectCellMapsIdentical(reference_cube->o_layer(),
                            snapshot_cube->o_layer());
  }
}

TEST(DeltaGatherTest, DeltaGatherCopiesOnlyDirtyCells) {
  WorkloadSpec spec = ChurnSpec();
  auto schema = MakeWorkloadSchemaPtr(spec);
  ASSERT_TRUE(schema.ok());
  StreamGenerator gen(spec);
  ShardedStreamEngine engine(*schema, ChurnEngineOptions(), 4);
  ASSERT_TRUE(engine.IngestBatch(gen.GenerateStream()).ok());
  ASSERT_TRUE(engine.SealThrough(spec.series_length - 1).ok());

  // The first publish shares every cell's own frame: nothing is copied.
  auto warm = engine.GatherAlignedCells();
  EXPECT_EQ(warm.stats.cells, engine.num_cells());
  EXPECT_EQ(warm.stats.materialized, 0);
  EXPECT_EQ(warm.stats.bytes_copied, 0);

  // Clean repeat: pure cache reuse, nothing copied.
  auto clean = engine.GatherAlignedCells();
  EXPECT_EQ(clean.stats.materialized, 0);
  EXPECT_EQ(clean.stats.bytes_copied, 0);
  EXPECT_EQ(clean.stats.shards_reused, 4);
  EXPECT_EQ(ChangedFramePointers(*warm.cells, *clean.cells), 0);

  // One write at the open tick: the writer clones that one shared frame,
  // so exactly one frame pointer moves and every other cell keeps its own.
  ASSERT_TRUE(
      engine.Ingest({gen.cells()[0].key, spec.series_length, 5.0}).ok());
  auto delta = engine.GatherAlignedCells();
  EXPECT_EQ(delta.stats.materialized, 0);
  EXPECT_EQ(ChangedFramePointers(*clean.cells, *delta.cells), 1);

  // A seal across no tilt-unit boundary only moves next_tick, which no
  // read can see: shared frames are left lagging, none is cloned.
  ASSERT_FALSE(
      SmallTiltPolicy()->AnyUnitEndIn(spec.series_length,
                                      spec.series_length + 1));
  ASSERT_TRUE(engine.SealThrough(spec.series_length).ok());
  auto sealed = engine.GatherAlignedCells();
  EXPECT_EQ(sealed.stats.materialized, 0);
  EXPECT_EQ(ChangedFramePointers(*delta.cells, *sealed.cells), 0);

  // The next write behind that seal is refused even though the frame it
  // lands on was never advanced in place.
  const Status late =
      engine.Ingest({gen.cells()[1].key, spec.series_length, 1.0});
  EXPECT_EQ(late.code(), StatusCode::kOutOfRange) << late.ToString();
}

// ------------------------------------------------------ revision hygiene

TEST(DeltaGatherTest, NoOpSealKeepsRevisionAndMemoizedSnapshot) {
  WorkloadSpec spec = ChurnSpec();
  auto schema = MakeWorkloadSchemaPtr(spec);
  ASSERT_TRUE(schema.ok());
  auto built = EngineBuilder()
                   .SetSchema(*schema)
                   .SetTiltPolicy(SmallTiltPolicy())
                   .SetShardCount(4)
                   .Build();
  ASSERT_TRUE(built.ok());
  Engine engine = std::move(built).value();
  StreamGenerator gen(spec);
  ASSERT_TRUE(engine.IngestBatch(gen.GenerateStream()).ok());
  ASSERT_TRUE(engine.SealThrough(spec.series_length - 1).ok());

  auto snap = engine.TakeSnapshot();
  // Re-sealing through the same (or an earlier) tick changes nothing any
  // read can see: the memoized snapshot must survive.
  ASSERT_TRUE(engine.SealThrough(spec.series_length - 1).ok());
  ASSERT_TRUE(engine.SealThrough(spec.series_length - 5).ok());
  EXPECT_EQ(engine.TakeSnapshot().get(), snap.get())
      << "no-op seal invalidated the revision-memoized snapshot";

  // Sealing into the open quarter advances the clock but crosses no unit
  // boundary: the snapshot refreshes (its now() must report the new
  // clock) yet every frozen block is shared — nothing is re-copied and
  // the query results are unchanged.
  auto window_before = snap->Window(0, 4);
  ASSERT_TRUE(window_before.ok());
  ASSERT_TRUE(engine.SealThrough(spec.series_length).ok());
  auto advanced = engine.TakeSnapshot();
  EXPECT_NE(advanced.get(), snap.get());
  EXPECT_EQ(advanced->now(), spec.series_length + 1);
  auto window_after = advanced->Window(0, 4);
  ASSERT_TRUE(window_after.ok());
  ASSERT_EQ(window_before->size(), window_after->size());
  for (size_t i = 0; i < window_after->size(); ++i) {
    EXPECT_EQ((*window_before)[i].key, (*window_after)[i].key);
    EXPECT_EQ((*window_before)[i].measure, (*window_after)[i].measure);
  }

  // Sealing across a quarter boundary seals a slot: a real refresh.
  ASSERT_TRUE(engine.SealThrough(spec.series_length + 4).ok());
  auto fresh = engine.TakeSnapshot();
  EXPECT_NE(fresh.get(), advanced.get());
  EXPECT_GT(fresh->revision(), snap->revision());
}

// ------------------------------------------------------ point-query path

TEST(DeltaGatherTest, MemberOnlyPointQueriesMatchReferenceScan) {
  WorkloadSpec spec = ChurnSpec();
  auto schema = MakeWorkloadSchemaPtr(spec);
  ASSERT_TRUE(schema.ok());
  StreamGenerator gen(spec);
  ReferenceStore reference(*schema, ChurnEngineOptions());
  ASSERT_TRUE(reference.IngestBatch(gen.GenerateStream()).ok());
  ASSERT_TRUE(reference.SealThrough(spec.series_length - 1).ok());
  for (int shards : {1, 2, 8}) {
    ShardedStreamEngine engine(*schema, ChurnEngineOptions(), shards);
    ASSERT_TRUE(engine.IngestBatch(gen.GenerateStream()).ok());
    ASSERT_TRUE(engine.SealThrough(spec.series_length - 1).ok());

    const CuboidLattice& lattice = engine.lattice();
    const CuboidId o_id = lattice.o_layer_id();
    const CellKey o_key =
        lattice.ProjectMLayerKey(gen.cells()[0].key, o_id);

    auto scan_cell = reference.QueryCell(o_id, o_key, 0, 4);
    auto member_cell = engine.QueryCell(o_id, o_key, 0, 4);
    ASSERT_TRUE(scan_cell.ok());
    ASSERT_TRUE(member_cell.ok()) << member_cell.status().ToString();
    EXPECT_EQ(*scan_cell, *member_cell);

    auto scan_series = reference.QueryCellSeries(o_id, o_key, 1);
    auto member_series = engine.QueryCellSeries(o_id, o_key, 1);
    ASSERT_TRUE(scan_series.ok());
    ASSERT_TRUE(member_series.ok());
    EXPECT_EQ(*scan_series, *member_series);
  }
}

TEST(DeltaGatherTest, FacadePointQueriesSkipFullSnapshots) {
  WorkloadSpec spec = ChurnSpec();
  auto schema = MakeWorkloadSchemaPtr(spec);
  ASSERT_TRUE(schema.ok());
  auto built = EngineBuilder()
                   .SetSchema(*schema)
                   .SetTiltPolicy(SmallTiltPolicy())
                   .SetShardCount(4)
                   .Build();
  ASSERT_TRUE(built.ok());
  Engine engine = std::move(built).value();
  StreamGenerator gen(spec);
  ASSERT_TRUE(engine.IngestBatch(gen.GenerateStream()).ok());
  ASSERT_TRUE(engine.SealThrough(spec.series_length - 1).ok());

  const CuboidLattice& lattice = engine.lattice();
  const CuboidId o_id = lattice.o_layer_id();
  const CellKey o_key = lattice.ProjectMLayerKey(gen.cells()[0].key, o_id);

  // Same numbers through Engine::Query (member-only) and the snapshot.
  auto snap = engine.TakeSnapshot();
  auto via_query = engine.Query(QuerySpec::Cell(o_id, o_key, 0, 4));
  auto via_snapshot = snap->QueryCell(o_id, o_key, 0, 4);
  ASSERT_TRUE(via_query.ok()) << via_query.status().ToString();
  ASSERT_TRUE(via_snapshot.ok());
  EXPECT_EQ(via_query->cell(), *via_snapshot);

  auto series_query = engine.Query(QuerySpec::CellSeries(o_id, o_key, 1));
  auto series_snapshot = snap->QueryCellSeries(o_id, o_key, 1);
  ASSERT_TRUE(series_query.ok());
  ASSERT_TRUE(series_snapshot.ok());
  EXPECT_EQ(series_query->series(), *series_snapshot);
}

TEST(DeltaGatherTest, MemberOnlyPointQueriesKeepErrorContract) {
  WorkloadSpec spec = ChurnSpec();
  auto schema = MakeWorkloadSchemaPtr(spec);
  ASSERT_TRUE(schema.ok());
  ShardedStreamEngine empty(*schema, ChurnEngineOptions(), 4);

  // Cuboid validation precedes the no-data check.
  EXPECT_EQ(empty.QueryCell(-1, CellKey(2), 0, 1).status().code(),
            StatusCode::kInvalidArgument);
  EXPECT_EQ(empty.QueryCell(0, CellKey(2), 0, 1).status().code(),
            StatusCode::kFailedPrecondition);
  EXPECT_EQ(empty.QueryCellSeries(-1, CellKey(2), 0).status().code(),
            StatusCode::kInvalidArgument);

  ShardedStreamEngine engine(*schema, ChurnEngineOptions(), 4);
  StreamGenerator gen(spec);
  ASSERT_TRUE(engine.IngestBatch(gen.GenerateStream()).ok());
  ASSERT_TRUE(engine.SealThrough(spec.series_length - 1).ok());
  // An m-layer key no stream cell uses (valid ids, absent combination):
  // NotFound, as before.
  const CellKey missing = UnusedMLayerKey(gen);
  EXPECT_EQ(engine.QueryCell(engine.lattice().m_layer_id(), missing, 0, 4)
                .status()
                .code(),
            StatusCode::kNotFound);
}

// A cube query leaves its run in the memo: the gathers after it at the
// same revision return that run itself (the memo's diff base, shared, no
// shard touched), and the first gather after a write folds the write in
// instead of serving the memo's older run.
TEST(DeltaGatherTest, GatherAtTheMemoRevisionServesTheMemoRun) {
  WorkloadSpec spec = ChurnSpec();
  auto schema = MakeWorkloadSchemaPtr(spec);
  ASSERT_TRUE(schema.ok());
  StreamGenerator gen(spec);
  const std::vector<StreamTuple> stream = gen.GenerateStream();
  const int num_levels = ChurnEngineOptions().tilt_policy->num_levels();

  for (int shards : {1, 2, 8}) {
    SCOPED_TRACE(shards);
    ReferenceStore reference(*schema, ChurnEngineOptions());
    ShardedStreamEngine engine(*schema, ChurnEngineOptions(), shards);
    ASSERT_TRUE(engine.IngestBatch(stream).ok());
    ASSERT_TRUE(reference.IngestBatch(stream).ok());
    ASSERT_TRUE(engine.SealThrough(spec.series_length - 1).ok());
    ASSERT_TRUE(reference.SealThrough(spec.series_length - 1).ok());

    // No memo yet: a fold of the publications.
    const auto folded = engine.GatherAlignedCells();
    ASSERT_TRUE(folded.status.ok()) << folded.status.ToString();
    ASSERT_TRUE(engine.ComputeCubeShared(0, 4).ok());
    const std::int64_t hits = engine.cube_memo_stats().hits;

    const auto first = engine.GatherAlignedCells();
    const auto second = engine.GatherAlignedCells();
    ASSERT_TRUE(first.status.ok()) << first.status.ToString();
    ASSERT_TRUE(second.status.ok()) << second.status.ToString();
    EXPECT_NE(first.cells, folded.cells);   // the cube query's own gather
    EXPECT_EQ(second.cells, first.cells);   // the memo's run itself
    EXPECT_EQ(first.revision, engine.revision());
    EXPECT_EQ(first.stats.shards_reused, shards);
    EXPECT_EQ(first.stats.materialized, 0);
    EXPECT_EQ(engine.cube_memo_stats().hits, hits);  // a probe is no hit
    ExpectGathersIdentical(first, reference.Gather(), num_levels);

    // A write moves the revision past the memo's: the memo's run is no
    // longer the gather.
    const StreamTuple late{gen.cells()[0].key, spec.series_length, 3.0};
    ASSERT_TRUE(engine.Ingest(late).ok());
    ASSERT_TRUE(reference.Ingest(late).ok());
    const auto after_write = engine.GatherAlignedCells();
    ASSERT_TRUE(after_write.status.ok()) << after_write.status.ToString();
    EXPECT_NE(after_write.cells, first.cells);
    EXPECT_EQ(after_write.revision, engine.revision());
    ASSERT_TRUE(engine.SealThrough(spec.series_length + 3).ok());
    ASSERT_TRUE(reference.SealThrough(spec.series_length + 3).ok());
    ExpectGathersIdentical(engine.GatherAlignedCells(), reference.Gather(),
                           num_levels);
  }
}

// ------------------------------------------------- concurrency (TSan'd)

TEST(DeltaGatherTest, ConcurrentChurnAndSnapshotLoop) {
  WorkloadSpec spec = ChurnSpec(/*tuples=*/80, /*ticks=*/16);
  auto schema = MakeWorkloadSchemaPtr(spec);
  ASSERT_TRUE(schema.ok());
  auto built = EngineBuilder()
                   .SetSchema(*schema)
                   .SetTiltPolicy(SmallTiltPolicy())
                   .SetShardCount(8)
                   .SetReadThreads(3)
                   .Build();
  ASSERT_TRUE(built.ok());
  Engine engine = std::move(built).value();
  StreamGenerator gen(spec);
  const auto& cells = gen.cells();
  ASSERT_TRUE(engine.IngestBatch(gen.GenerateStream()).ok());
  ASSERT_TRUE(engine.SealThrough(spec.series_length - 1).ok());

  const CuboidLattice& lattice = engine.lattice();
  const CuboidId o_id = lattice.o_layer_id();
  const CellKey o_key = lattice.ProjectMLayerKey(cells[0].key, o_id);

  // Writers churn disjoint cell slices at advancing ticks while readers
  // take snapshots and run point queries — the full delta machinery
  // (patch exports, cached-run folding, member gathers) under real races.
  constexpr int kWriters = 3;
  constexpr int kRoundsPerWriter = 40;
  std::vector<std::thread> workers;
  for (int w = 0; w < kWriters; ++w) {
    workers.emplace_back([&, w] {
      for (int round = 0; round < kRoundsPerWriter; ++round) {
        const TimeTick tick = spec.series_length + round;
        for (size_t c = static_cast<size_t>(w); c < cells.size();
             c += kWriters) {
          ASSERT_TRUE(engine.Ingest({cells[c].key, tick, 2.0}).ok());
        }
      }
    });
  }
  std::atomic<bool> stop{false};
  std::vector<std::thread> readers;
  for (int r = 0; r < 2; ++r) {
    readers.emplace_back([&] {
      std::uint64_t last_revision = 0;
      while (!stop.load(std::memory_order_relaxed)) {
        auto snap = engine.TakeSnapshot();
        ASSERT_GE(snap->revision(), last_revision)
            << "snapshot revisions must be monotone";
        last_revision = snap->revision();
        auto window = snap->Window(0, 2);
        ASSERT_TRUE(window.ok()) << window.status().ToString();
        auto cell = engine.Query(QuerySpec::Cell(o_id, o_key, 0, 2));
        ASSERT_TRUE(cell.ok()) << cell.status().ToString();
      }
    });
  }
  for (std::thread& w : workers) w.join();
  stop.store(true, std::memory_order_relaxed);
  for (std::thread& r : readers) r.join();

  // Quiesced end state: the snapshot's window equals the reference
  // store's after the same writes (each cell had one writer, so replaying
  // them round by round preserves every cell's tick order).
  ReferenceStore reference(*schema, ChurnEngineOptions());
  ASSERT_TRUE(reference.IngestBatch(gen.GenerateStream()).ok());
  ASSERT_TRUE(reference.SealThrough(spec.series_length - 1).ok());
  for (int round = 0; round < kRoundsPerWriter; ++round) {
    for (const auto& cell : cells) {
      ASSERT_TRUE(
          reference.Ingest({cell.key, spec.series_length + round, 2.0}).ok());
    }
  }
  auto final_window = engine.TakeSnapshot()->Window(0, 2);
  auto want_window = reference.Window(0, 2);
  ASSERT_TRUE(final_window.ok()) << final_window.status().ToString();
  ASSERT_TRUE(want_window.ok()) << want_window.status().ToString();
  ASSERT_EQ(final_window->size(), want_window->size());
  for (size_t i = 0; i < want_window->size(); ++i) {
    EXPECT_EQ((*want_window)[i].key, (*final_window)[i].key);
    EXPECT_EQ((*want_window)[i].measure, (*final_window)[i].measure);
  }
}

// ------------------------------------------------------ memory accounting

TEST(DeltaGatherTest, FrozenAndGatherBytesAreTracked) {
  // Snapshots share the cells' own frames, counted once under
  // stream.tilt_frames (nothing under snapshot.frozen_frames), and the
  // shard publications stay bounded under churn.
  WorkloadSpec spec = ChurnSpec();
  auto schema = MakeWorkloadSchemaPtr(spec);
  ASSERT_TRUE(schema.ok());
  auto built = EngineBuilder()
                   .SetSchema(*schema)
                   .SetTiltPolicy(SmallTiltPolicy())
                   .SetShardCount(4)
                   .Build();
  ASSERT_TRUE(built.ok());
  Engine engine = std::move(built).value();
  StreamGenerator gen(spec);
  ASSERT_TRUE(engine.IngestBatch(gen.GenerateStream()).ok());
  ASSERT_TRUE(engine.SealThrough(spec.series_length - 1).ok());

  const std::int64_t frames_before = engine.MemoryBytes();
  auto snap = engine.TakeSnapshot();
  const std::int64_t cached =
      engine.memory_tracker().category_bytes("snapshot.gather_cache");
  EXPECT_EQ(engine.memory_tracker().category_bytes("snapshot.frozen_frames"),
            0);
  // The shard publications are the only gather state: one entry per cell.
  EXPECT_EQ(cached, snap->num_cells() *
                        static_cast<std::int64_t>(sizeof(CellSnapshot)));
  EXPECT_EQ(engine.MemoryBytes(), frames_before)
      << "publishing copies no frame";

  // Churn + re-snapshot: accounting stays balanced (Release would abort on
  // underflow) and the totals stay in the same ballpark, not accumulating.
  for (int round = 0; round < 5; ++round) {
    ASSERT_TRUE(
        engine.Ingest({gen.cells()[0].key, spec.series_length + round, 1.0})
            .ok());
    snap = engine.TakeSnapshot();
  }
  EXPECT_EQ(engine.memory_tracker().category_bytes("snapshot.frozen_frames"),
            0);
  EXPECT_GT(engine.memory_tracker().category_bytes("snapshot.gather_cache"),
            0);
  EXPECT_LE(engine.memory_tracker().category_bytes("snapshot.gather_cache"),
            2 * cached);

  // MemoryReport carries the live frames alongside the other categories
  // (all tracker-maintained now; no synthesized entries).
  auto report = engine.MemoryReport();
  ASSERT_FALSE(report.empty());
  std::int64_t tilt_bytes = -1;
  for (const auto& entry : report) {
    if (entry.first == "stream.tilt_frames") tilt_bytes = entry.second;
  }
  EXPECT_GT(tilt_bytes, 0);
  EXPECT_EQ(tilt_bytes, engine.MemoryBytes());
}

}  // namespace
}  // namespace regcube
