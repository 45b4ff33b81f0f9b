// The memory-governed storage tier's contracts: the mmap frame store must
// round-trip tilt-frame state bitwise (spill -> fault-in is lossless); an
// engine running under a byte budget with a spill directory must stay
// bit-identical to an unbounded all-RAM oracle through randomized churn
// for shard counts {1, 2, 8} while actually spilling and faulting in;
// after SealThrough(t) every cell — resident, spilled or new — refuses a
// tick <= t, also after Checkpoint -> OpenFrom (the manifest carries the
// seal clock to lagging, spilled and new cells);
// Checkpoint -> OpenFrom must reproduce identical query results (including
// after resumed ingest, and across a different shard count); cube queries
// at the maintained cube's revision must be answered without gather work
// (no fault-in, no enforcement) even under a budget the cube cannot fit;
// corrupt / truncated / older-version checkpoint files must fail with the
// typed error contract (InvalidArgument / OutOfRange / NotFound), never
// mid-query; and a spill dir serves one live engine at a time.
//
// The randomized churn and the bitwise comparators come from the shared
// equivalence harness (tests/equivalence_harness.h).

#include <algorithm>
#include <atomic>
#include <cstdio>
#include <memory>
#include <optional>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "gtest/gtest.h"
#include "regcube/api/regcube.h"
#include "equivalence_harness.h"
#include "test_util.h"
#include "tilt_frame_state.h"

namespace regcube {
namespace {

using equivalence::ChurnEngineOptions;
using equivalence::ChurnPlan;
using equivalence::ChurnWorkload;
using equivalence::ExpectGathersIdentical;
using equivalence::Key2;
using equivalence::RunChurnRounds;
using equivalence::SmallTiltPolicy;
using testing_util::EncodeFrameBytes;

std::string FreshDir(const std::string& name) {
  const std::string dir = ::testing::TempDir() + "/" + name;
  // Scrub leftovers from a previous run so attach/restore sees only what
  // this test wrote.
  std::remove(CheckpointManifestPath(dir).c_str());
  for (int i = 0; i < 16; ++i) {
    std::remove(CheckpointShardFilePath(dir, i).c_str());
    std::remove((dir + "/spill-" + std::to_string(i) + ".rcs").c_str());
  }
  return dir;
}

std::shared_ptr<const CubeSchema> TinySchema() {
  auto schema = MakeWorkloadSchemaPtr(ChurnWorkload(4, 8, 1));
  EXPECT_TRUE(schema.ok());
  return *schema;
}

TiltTimeFrame MakeFrame(std::uint64_t seed, TimeTick ticks) {
  StreamCubeEngine engine(TinySchema(), ChurnEngineOptions());
  Pcg32 rng(seed, 3);
  const CellKey key = Key2(1, 2);
  for (TimeTick t = 0; t < ticks; ++t) {
    EXPECT_TRUE(engine.Ingest({key, t, rng.NextDouble()}).ok());
  }
  std::vector<CellSnapshot> cells;
  engine.ExportCellsFull(&cells, nullptr);
  EXPECT_EQ(cells.size(), 1u);
  return *cells[0].frame;
}

// ------------------------------------------------------------- store basics

TEST(FrameStoreTest, AppendReadRoundTripsBitwise) {
  auto store = FrameStore::Open(FreshDir("frame_store_roundtrip"));
  ASSERT_TRUE(store.ok()) << store.status().ToString();

  const auto policy = ChurnEngineOptions().tilt_policy;
  std::vector<TiltTimeFrame> frames;
  std::vector<BlockRef> refs;
  for (int i = 0; i < 8; ++i) {
    frames.push_back(MakeFrame(/*seed=*/100 + i, /*ticks=*/5 + 3 * i));
    auto ref = (*store)->AppendFrame(i % 3, frames.back());
    ASSERT_TRUE(ref.ok()) << ref.status().ToString();
    ASSERT_TRUE(ref->valid());
    refs.push_back(*ref);
  }
  // Read back out of order: offsets are independent.
  for (int i = 7; i >= 0; --i) {
    auto frame = (*store)->ReadFrame(refs[i], policy);
    ASSERT_TRUE(frame.ok()) << frame.status().ToString();
    EXPECT_EQ(EncodeFrameBytes(frames[i]), EncodeFrameBytes(*frame));
  }
  const FrameStoreStats stats = (*store)->Stats();
  EXPECT_EQ(stats.spilled_blocks, 8);
  EXPECT_EQ(stats.live_blocks, 8);
  EXPECT_EQ(stats.fault_ins, 8);
  EXPECT_EQ(stats.garbage_bytes, 0);
  EXPECT_GT(stats.disk_bytes, 0);
}

TEST(FrameStoreTest, ReleaseTurnsBytesIntoGarbage) {
  auto store = FrameStore::Open(FreshDir("frame_store_release"));
  ASSERT_TRUE(store.ok()) << store.status().ToString();

  auto ref = (*store)->AppendFrame(0, MakeFrame(7, 12));
  ASSERT_TRUE(ref.ok());
  EXPECT_EQ((*store)->Stats().garbage_bytes, 0);
  (*store)->Release(*ref);
  const FrameStoreStats stats = (*store)->Stats();
  EXPECT_EQ(stats.live_blocks, 0);
  EXPECT_EQ(stats.garbage_bytes, stats.spilled_bytes);
  // A released ref is stale: reading it is a typed error, not UB.
  EXPECT_EQ((*store)->ReadFrame(*ref, ChurnEngineOptions().tilt_policy)
                .status()
                .code(),
            StatusCode::kInvalidArgument);
}

TEST(FrameStoreTest, AttachOnlyStoreRefusesAppends) {
  auto store = FrameStore::Open("");
  ASSERT_TRUE(store.ok()) << store.status().ToString();
  EXPECT_EQ((*store)->AppendFrame(0, MakeFrame(9, 6)).status().code(),
            StatusCode::kFailedPrecondition);
}

TEST(FrameStoreTest, InvalidRefsAreTypedErrors) {
  auto store = FrameStore::Open(FreshDir("frame_store_badref"));
  ASSERT_TRUE(store.ok()) << store.status().ToString();
  auto ref = (*store)->AppendFrame(0, MakeFrame(11, 10));
  ASSERT_TRUE(ref.ok());
  const auto policy = ChurnEngineOptions().tilt_policy;

  BlockRef bad_file = *ref;
  bad_file.file = 99;
  EXPECT_EQ((*store)->ReadFrame(bad_file, policy).status().code(),
            StatusCode::kInvalidArgument);

  BlockRef past_end = *ref;
  past_end.offset += (*store)->DiskBytes();
  EXPECT_FALSE((*store)->ReadFrame(past_end, policy).ok());
}

TEST(FrameStoreTest, SpillDirHoldsOneLiveStore) {
  const std::string dir = FreshDir("frame_store_lock");
  auto first = FrameStore::Open(dir);
  ASSERT_TRUE(first.ok()) << first.status().ToString();
  auto ref = (*first)->AppendFrame(0, MakeFrame(13, 9));
  ASSERT_TRUE(ref.ok());
  auto second = FrameStore::Open(dir);
  ASSERT_FALSE(second.ok());
  EXPECT_EQ(second.status().code(), StatusCode::kFailedPrecondition);
  // The refused open touched nothing: the first store's block still reads.
  EXPECT_TRUE(
      (*first)->ReadFrame(*ref, ChurnEngineOptions().tilt_policy).ok());
  first->reset();
  auto reused = FrameStore::Open(dir);
  EXPECT_TRUE(reused.ok()) << reused.status().ToString();
}

// ---------------------------------------------- budgeted churn equivalence

/// Drives the shared churn plan through a budgeted+spilling engine and an
/// unbounded oracle in lockstep, comparing full gathers after every round.
void RunBudgetedChurnEquivalence(int num_shards) {
  WorkloadSpec spec = ChurnWorkload(/*tuples=*/150, /*ticks=*/16,
                                    /*seed=*/71);
  StreamGenerator gen(spec);
  const auto seeded = gen.GenerateStream();
  auto schema = MakeWorkloadSchemaPtr(spec);
  ASSERT_TRUE(schema.ok());

  ShardedStreamEngine oracle(*schema, ChurnEngineOptions(), num_shards);
  ShardedStreamEngine budgeted(*schema, ChurnEngineOptions(), num_shards);
  ASSERT_TRUE(oracle.IngestBatch(seeded).ok());
  ASSERT_TRUE(budgeted.IngestBatch(seeded).ok());

  // A budget far below the seeded working set, so every enforcement walks
  // the ladder down to the spill rung.
  MemoryBudgetConfig config;
  config.budget_bytes = budgeted.MemoryBytes() / 4;
  config.spill_dir = FreshDir("frame_store_churn_" +
                              std::to_string(num_shards));
  ASSERT_TRUE(budgeted.ConfigureStorage(config).ok());

  ChurnPlan plan;
  plan.rounds = 12;
  plan.seed = 201;
  plan.advance_ticks = true;
  plan.base_tick = 16;
  plan.seal_every = 3;
  const int num_levels = ChurnEngineOptions().tilt_policy->num_levels();
  // Gather every other round: gathers clean the dirty set (dirty cells
  // are pinned resident), so later enforcements always find cold clean
  // cells to spill — the steady-state read/write mix.
  RunChurnRounds(budgeted, gen.cells(), plan, [&](int round) {
    if (round % 2 == 1) (void)budgeted.GatherAlignedCells();
  });
  // Re-drive the identical plan into the oracle (RunChurnRounds is a pure
  // function of the plan, so the write sequences are identical; gathers
  // are reads and change nothing observable).
  RunChurnRounds(oracle, gen.cells(), plan, [](int) {});

  // Budget actually bit: enforcements ran, cells were spilled, fault-ins
  // brought them back for the interleaved gathers.
  const SpillStats spill = budgeted.SpillStats();
  EXPECT_GT(spill.enforcements, 0);
  EXPECT_GT(spill.spill_evictions, 0);
  EXPECT_GT(spill.fault_ins, 0);
  EXPECT_GT(spill.disk_bytes, 0);

  // Bit-identity: the gather faults in every still-cold cell and the
  // result matches the all-RAM oracle exactly.
  auto got = budgeted.GatherAlignedCells();
  auto want = oracle.GatherAlignedCells();
  ExpectGathersIdentical(got, want, num_levels);

  // After the fault-ins, a second gather is served hot and still matches.
  ExpectGathersIdentical(budgeted.GatherAlignedCells(), want, num_levels);
}

TEST(FrameStoreChurnTest, BudgetedEngineMatchesOracleOneShard) {
  RunBudgetedChurnEquivalence(1);
}

TEST(FrameStoreChurnTest, BudgetedEngineMatchesOracleTwoShards) {
  RunBudgetedChurnEquivalence(2);
}

TEST(FrameStoreChurnTest, BudgetedEngineMatchesOracleEightShards) {
  RunBudgetedChurnEquivalence(8);
}

// ------------------------------------------------------- facade budget run

TEST(MemoryBudgetTest, FacadeStaysUnderBudgetAndAnswersIdentically) {
  WorkloadSpec spec = ChurnWorkload(/*tuples=*/200, /*ticks=*/24,
                                    /*seed=*/33);
  StreamGenerator gen(spec);
  const auto stream = gen.GenerateStream();

  EngineBuilder builder;
  builder.SetSchema(*MakeWorkloadSchemaPtr(spec))
      .SetTiltPolicy(SmallTiltPolicy())
      .SetExceptionPolicy(ExceptionPolicy(0.02))
      .SetShardCount(4);

  // Unbounded first: measure the peak the budget will be set against and
  // capture the oracle answers.
  auto oracle = builder.Build();
  ASSERT_TRUE(oracle.ok()) << oracle.status().ToString();
  ASSERT_TRUE(oracle->IngestBatch(stream).ok());
  ASSERT_TRUE(oracle->SealThrough(spec.series_length - 1).ok());
  auto oracle_snap = oracle->TakeSnapshot();
  const std::int64_t peak =
      oracle->memory_tracker().category_peak_bytes("stream.tilt_frames");
  ASSERT_GT(peak, 0);

  // Budget = 25% of the unbounded frame peak.
  auto engine = builder.SetMemoryBudget(peak / 4)
                    .SetSpillDir(FreshDir("mem_budget_facade"))
                    .Build();
  ASSERT_TRUE(engine.ok()) << engine.status().ToString();
  // Ingest in slices with interleaved snapshots, the steady-state shape:
  // snapshots clean the dirty set, so enforcement points always have cold
  // clean cells to spill. Zero ingest failures throughout.
  const size_t slice = stream.size() / 8 + 1;
  for (size_t at = 0; at < stream.size(); at += slice) {
    const std::vector<StreamTuple> chunk(
        stream.begin() + at,
        stream.begin() + std::min(at + slice, stream.size()));
    IngestReport report = engine->IngestBatch(chunk);
    ASSERT_TRUE(report.ok()) << report.status.ToString();
    ASSERT_EQ(report.absorbed, static_cast<std::int64_t>(chunk.size()));
    (void)engine->TakeSnapshot();
  }
  ASSERT_TRUE(engine->SealThrough(spec.series_length - 1).ok());

  // The budget bit: enforcements ran, cells sit on disk, and resident
  // frame bytes ended at/below budget.
  const SpillStats spill = engine->SpillStats();
  EXPECT_EQ(spill.budget_bytes, peak / 4);
  EXPECT_GT(spill.enforcements, 0);
  EXPECT_GT(spill.spilled_cells, 0);
  std::int64_t frame_bytes = -1, disk_bytes = -1;
  for (const auto& [name, bytes] : engine->MemoryReport()) {
    if (name == "stream.tilt_frames") frame_bytes = bytes;
    if (name == "spill.disk_bytes") disk_bytes = bytes;
  }
  EXPECT_GE(frame_bytes, 0);
  EXPECT_LE(frame_bytes, spill.budget_bytes);
  EXPECT_GT(disk_bytes, 0);

  // Bit-identical answers: the snapshot faults in the cold cells and
  // matches the all-RAM oracle cell for cell, and the cube-side drill
  // agrees too.
  auto snap = engine->TakeSnapshot();
  EXPECT_GT(snap->gather_stats().fault_ins, 0);
  ASSERT_EQ(snap->num_cells(), oracle_snap->num_cells());
  auto want_window = oracle_snap->Window(0, 4);
  auto got_window = snap->Window(0, 4);
  ASSERT_TRUE(want_window.ok());
  ASSERT_TRUE(got_window.ok());
  ASSERT_EQ(want_window->size(), got_window->size());
  for (size_t i = 0; i < want_window->size(); ++i) {
    EXPECT_EQ((*want_window)[i].key, (*got_window)[i].key);
    testing_util::ExpectIsbNear((*want_window)[i].measure, (*got_window)[i].measure,
                                /*tolerance=*/0.0);
  }
  auto want_top = oracle_snap->Query(QuerySpec::TopExceptions(10, 0, 4));
  auto got_top = snap->Query(QuerySpec::TopExceptions(10, 0, 4));
  ASSERT_TRUE(want_top.ok());
  ASSERT_TRUE(got_top.ok());
  ASSERT_EQ(want_top->cells().size(), got_top->cells().size());
  for (size_t i = 0; i < want_top->cells().size(); ++i) {
    EXPECT_EQ(want_top->cells()[i].key, got_top->cells()[i].key);
    EXPECT_EQ(want_top->cells()[i].isb, got_top->cells()[i].isb);
  }
}

// ---------------------------------------- same-revision cube queries

std::int64_t ReportedBytes(const Engine& engine, const std::string& name) {
  for (const auto& [category, bytes] : engine.MemoryReport()) {
    if (category == name) return bytes;
  }
  return 0;
}

/// A budget below memo + frames makes every enforcement drop the memo, and
/// every gather ends in an enforcement. Cube queries at the revision the
/// memo was built at must still be answered from it: no gather, so no
/// fault-in and no enforcement, and every answer bit-identical to a
/// from-scratch cube. The first query after a write must decline the memo.
/// The memo's retained run is reported while the memo lives and released
/// with it.
void RunSameRevisionCubeQueries(int num_shards) {
  WorkloadSpec spec = ChurnWorkload(/*tuples=*/200, /*ticks=*/24,
                                    /*seed=*/33);
  StreamGenerator gen(spec);
  const auto stream = gen.GenerateStream();
  const ExceptionPolicy policy(0.02);
  EngineBuilder builder;
  builder.SetSchema(*MakeWorkloadSchemaPtr(spec))
      .SetTiltPolicy(SmallTiltPolicy())
      .SetExceptionPolicy(policy)
      .SetShardCount(num_shards);

  std::int64_t peak = 0;
  {
    auto unbounded = builder.Build();
    ASSERT_TRUE(unbounded.ok()) << unbounded.status().ToString();
    ASSERT_TRUE(unbounded->IngestBatch(stream).ok());
    peak = unbounded->memory_tracker().category_peak_bytes(
        "stream.tilt_frames");
  }
  ASSERT_GT(peak, 0);
  auto built = builder.SetMemoryBudget(peak / 4)
                   .SetSpillDir(FreshDir("same_revision_" +
                                         std::to_string(num_shards)))
                   .Build();
  ASSERT_TRUE(built.ok()) << built.status().ToString();
  Engine engine = std::move(built).value();
  ASSERT_TRUE(engine.IngestBatch(stream).ok());
  ASSERT_TRUE(engine.SealThrough(spec.series_length - 1).ok());

  constexpr int kLevel = 0;
  constexpr int kSlots = 4;
  auto top = engine.Query(QuerySpec::TopExceptions(5, kLevel, kSlots));
  ASSERT_TRUE(top.ok()) << top.status().ToString();
  ASSERT_FALSE(top->cells().empty()) << "no exceptions to drill into";
  const SpillStats before = engine.SpillStats();
  ASSERT_GT(before.enforcements, 0);
  ASSERT_GT(before.spill_evictions, 0);
  const std::int64_t hits_before = engine.cube_memo_stats().hits;
  EXPECT_GT(ReportedBytes(engine, "cube.memo.pinned_frames"), 0);

  const auto specs = equivalence::CubeSessionSpecs(
      engine.lattice(), top->cells(), kLevel, kSlots);
  std::vector<Result<QueryResult>> answers;
  for (const QuerySpec& q : specs) answers.push_back(engine.Query(q));

  const SpillStats after = engine.SpillStats();
  EXPECT_EQ(after.fault_ins, before.fault_ins);
  EXPECT_EQ(after.enforcements, before.enforcements);
  EXPECT_EQ(engine.cube_memo_stats().hits,
            hits_before + static_cast<std::int64_t>(specs.size()));

  // The oracle's gather faults the spilled cells back in and enforces;
  // rung 10 drops the memo, and its pinned frames with it.
  auto scratch = engine.TakeSnapshot()->ComputeCube(kLevel, kSlots);
  ASSERT_TRUE(scratch.ok()) << scratch.status().ToString();
  equivalence::ExpectAnswersMatchCube(*scratch, policy, specs, answers);
  EXPECT_GT(engine.SpillStats().memo_evictions, after.memo_evictions);
  EXPECT_EQ(ReportedBytes(engine, "cube.memo.pinned_frames"), 0);

  // A write moves the revision: the next drill is no hit, and still exact.
  ASSERT_TRUE(engine.Ingest({gen.cells()[0].key, spec.series_length, 1.0})
                  .ok());
  const std::int64_t hits_after = engine.cube_memo_stats().hits;
  const QuerySpec drill = QuerySpec::DrillDown(
      top->cells()[0].cuboid, top->cells()[0].key, kLevel, kSlots);
  std::vector<Result<QueryResult>> drilled;
  drilled.push_back(engine.Query(drill));
  EXPECT_EQ(engine.cube_memo_stats().hits, hits_after);
  auto rescratch = engine.TakeSnapshot()->ComputeCube(kLevel, kSlots);
  ASSERT_TRUE(rescratch.ok()) << rescratch.status().ToString();
  equivalence::ExpectAnswersMatchCube(*rescratch, policy, {drill}, drilled);
}

TEST(MemoryBudgetTest, SameRevisionCubeQueriesDoNoGatherWorkOneShard) {
  RunSameRevisionCubeQueries(1);
}

TEST(MemoryBudgetTest, SameRevisionCubeQueriesDoNoGatherWorkTwoShards) {
  RunSameRevisionCubeQueries(2);
}

TEST(MemoryBudgetTest, SameRevisionCubeQueriesDoNoGatherWorkEightShards) {
  RunSameRevisionCubeQueries(8);
}

// ------------------------------------------------- all-dirty convergence

/// Randomized churn with NO interleaved reads: every resident cell stays
/// dirty-queued, so the spill rung alone has zero candidates and the
/// ladder converges only through the export.dirty rung (clean the queues,
/// then sweep). The engine must return to its budget within a bounded
/// number of enforcement cycles, and compaction must keep the cold tier's
/// footprint proportional to its live bytes despite the re-spill churn.
void RunAllDirtyConvergence(int num_shards) {
  WorkloadSpec spec = ChurnWorkload(/*tuples=*/150, /*ticks=*/20,
                                    /*seed=*/61);
  StreamGenerator gen(spec);
  const auto stream = gen.GenerateStream();

  EngineBuilder builder;
  builder.SetSchema(*MakeWorkloadSchemaPtr(spec))
      .SetTiltPolicy(SmallTiltPolicy())
      .SetExceptionPolicy(ExceptionPolicy(0.02))
      .SetShardCount(num_shards);

  // Measure the unbounded frame peak, then re-run under a quarter of it.
  auto oracle = builder.Build();
  ASSERT_TRUE(oracle.ok());
  ASSERT_TRUE(oracle->IngestBatch(stream).ok());
  const std::int64_t peak =
      oracle->memory_tracker().category_peak_bytes("stream.tilt_frames");
  ASSERT_GT(peak, 0);

  auto built =
      builder.SetMemoryBudget(peak / 4)
          .SetSpillDir(FreshDir("all_dirty_conv_" +
                                std::to_string(num_shards)))
          .SetCompactThreshold(0.5)
          .SetCompactMinBytes(1)
          .Build();
  ASSERT_TRUE(built.ok()) << built.status().ToString();
  Engine engine = std::move(built).value();
  ASSERT_TRUE(engine.IngestBatch(stream).ok());

  // Randomized write-only churn: no snapshot ever cleans the dirty set.
  Pcg32 rng(613, 5);
  for (int round = 0; round < 10; ++round) {
    const std::uint32_t writes = 20 + rng.Uniform(40);
    for (std::uint32_t j = 0; j < writes; ++j) {
      const auto& cell = gen.cells()[static_cast<size_t>(
          rng.Uniform(static_cast<std::uint32_t>(gen.cells().size())))];
      ASSERT_TRUE(
          engine.Ingest({cell.key, spec.series_length + round, 0.5}).ok());
    }
  }

  // Convergence within N cycles: each probe write lands one enforcement;
  // the ladder must put resident frames at/under budget almost at once
  // (one run cleans + sweeps; the bound leaves slack for the probe's own
  // dirtying).
  constexpr int kMaxCycles = 6;
  std::int64_t frame_bytes = -1;
  for (int cycle = 0; cycle < kMaxCycles; ++cycle) {
    ASSERT_TRUE(
        engine.Ingest({gen.cells()[0].key, spec.series_length + 10, 0.25})
            .ok());
    frame_bytes = -1;
    for (const auto& [name, bytes] : engine.MemoryReport()) {
      if (name == "stream.tilt_frames") frame_bytes = bytes;
    }
    if (frame_bytes >= 0 && frame_bytes <= peak / 4) break;
  }
  EXPECT_GE(frame_bytes, 0);
  EXPECT_LE(frame_bytes, peak / 4)
      << "still over budget after " << kMaxCycles << " cycles";

  const SpillStats spill = engine.SpillStats();
  // The export.dirty rung did the converging: nothing else could, with
  // every cell dirty.
  EXPECT_GT(spill.export_evictions, 0);
  EXPECT_GT(spill.spilled_cells, 0);

  // Disk stays proportional to live bytes: the re-spill churn turned old
  // blocks into garbage, and compaction sheds it.
  engine.CompactSegments();
  const SpillStats compacted = engine.SpillStats();
  EXPECT_LE(compacted.disk_bytes,
            3 * std::max<std::int64_t>(compacted.live_bytes, 1))
      << "garbage " << compacted.garbage_bytes << " live "
      << compacted.live_bytes;

  // And the survivor still answers every cell.
  auto snap = engine.TakeSnapshot();
  ASSERT_TRUE(snap->status().ok()) << snap->status().ToString();
  ASSERT_TRUE(snap->Window(0, 4).ok());
  EXPECT_EQ(snap->num_cells(), static_cast<std::int64_t>(gen.cells().size()));
}

TEST(GovernorConvergenceTest, AllDirtyChurnConvergesOneShard) {
  RunAllDirtyConvergence(1);
}

TEST(GovernorConvergenceTest, AllDirtyChurnConvergesTwoShards) {
  RunAllDirtyConvergence(2);
}

TEST(GovernorConvergenceTest, AllDirtyChurnConvergesEightShards) {
  RunAllDirtyConvergence(8);
}

// ------------------------------------------------------ sealed late ticks

/// Both m-layer CellSeries answers for `key` (level 0), which must match.
void ExpectSameCellSeries(Engine& a, Engine& b, const CellKey& key) {
  const QuerySpec q =
      QuerySpec::CellSeries(a.lattice().m_layer_id(), key, /*level=*/0);
  auto want = a.Query(q);
  auto got = b.Query(q);
  ASSERT_TRUE(want.ok()) << want.status().ToString();
  ASSERT_TRUE(got.ok()) << got.status().ToString();
  EXPECT_EQ(want->series(), got->series()) << key.ToString();
}

TEST(LateTickTest, SealedTicksAreRefusedBySpilledAndNewCells) {
  // After SealThrough(t) every cell refuses a tick <= t: one the seal
  // advanced in place, one that sat spilled through the seal (alignment
  // is deferred to fault-in), and one created after it.
  WorkloadSpec spec = ChurnWorkload(/*tuples=*/4, /*ticks=*/8, /*seed=*/5,
                                    /*fanout=*/3);
  StreamGenerator gen(spec);
  const std::vector<StreamTuple> stream = gen.GenerateStream();
  EngineBuilder builder;
  builder.SetSchema(*MakeWorkloadSchemaPtr(spec))
      .SetTiltPolicy(SmallTiltPolicy())
      .SetExceptionPolicy(ExceptionPolicy(0.02))
      .SetShardCount(2);
  auto unbounded = builder.Build();
  ASSERT_TRUE(unbounded.ok()) << unbounded.status().ToString();
  // A 1-byte budget spills every clean cell at each enforcement point.
  auto budgeted = builder.SetMemoryBudget(1)
                      .SetSpillDir(FreshDir("late_tick_spill"))
                      .Build();
  ASSERT_TRUE(budgeted.ok()) << budgeted.status().ToString();

  for (Engine* engine : {&*unbounded, &*budgeted}) {
    ASSERT_TRUE(engine->IngestBatch(stream).ok());
    ASSERT_TRUE(engine->SealThrough(7).ok());
    (void)engine->TakeSnapshot();  // cleans every cell
  }
  ASSERT_EQ(budgeted->SpillStats().spilled_cells, budgeted->num_cells());

  const CellKey spilled = gen.cells()[0].key;
  const CellKey fresh = equivalence::UnusedMLayerKey(gen);
  for (Engine* engine : {&*unbounded, &*budgeted}) {
    ASSERT_TRUE(engine->SealThrough(20).ok());
    for (const CellKey& key : {spilled, fresh}) {
      const Status late = engine->Ingest({key, 15, 1.0});
      EXPECT_EQ(late.code(), StatusCode::kOutOfRange)
          << key.ToString() << ": " << late.ToString();
    }
    // The open tick is still accepted.
    ASSERT_TRUE(engine->Ingest({spilled, 21, 2.0}).ok());
    ASSERT_TRUE(engine->SealThrough(31).ok());
  }
  EXPECT_GT(budgeted->SpillStats().fault_ins, 0);
  EXPECT_EQ(unbounded->num_cells(), budgeted->num_cells());
  for (const CellKey& key : {spilled, fresh}) {
    ExpectSameCellSeries(*unbounded, *budgeted, key);
  }
}

// --------------------------------------------------- checkpoint / restart

TEST(CheckpointTest, ReopenReproducesIdenticalResults) {
  WorkloadSpec spec = ChurnWorkload(/*tuples=*/120, /*ticks=*/20,
                                    /*seed=*/55);
  StreamGenerator gen(spec);

  EngineBuilder builder;
  builder.SetSchema(*MakeWorkloadSchemaPtr(spec))
      .SetTiltPolicy(SmallTiltPolicy())
      .SetExceptionPolicy(ExceptionPolicy(0.02))
      .SetShardCount(4);
  auto engine = builder.Build();
  ASSERT_TRUE(engine.ok());
  ASSERT_TRUE(engine->IngestBatch(gen.GenerateStream()).ok());
  ASSERT_TRUE(engine->SealThrough(spec.series_length - 1).ok());

  const std::string dir = FreshDir("checkpoint_reopen");
  ASSERT_TRUE(engine->Checkpoint(dir).ok());

  // Reopen under a *different* shard count: the checkpoint is sharding-
  // agnostic (cells re-route by the current hash).
  auto reopened = builder.SetShardCount(2).OpenFrom(dir);
  ASSERT_TRUE(reopened.ok()) << reopened.status().ToString();
  EXPECT_EQ(reopened->num_cells(), engine->num_cells());
  EXPECT_EQ(reopened->now(), engine->now());

  auto want = engine->TakeSnapshot();
  auto got = reopened->TakeSnapshot();
  ASSERT_EQ(want->num_cells(), got->num_cells());
  for (int level = 0; level < 2; ++level) {
    const int k = level == 0 ? 4 : 1;  // the hour level sealed one slot
    auto w = want->Window(level, k);
    auto g = got->Window(level, k);
    ASSERT_TRUE(w.ok());
    ASSERT_TRUE(g.ok());
    ASSERT_EQ(w->size(), g->size());
    for (size_t i = 0; i < w->size(); ++i) {
      EXPECT_EQ((*w)[i].key, (*g)[i].key);
      EXPECT_EQ((*w)[i].measure, (*g)[i].measure);
    }
  }

  // Resumed ingest: the same post-checkpoint writes land identically on
  // both engines (clock and tilt positions survived the round trip).
  const TimeTick resume = spec.series_length;
  for (int i = 0; i < 10; ++i) {
    const StreamTuple tuple{gen.cells()[i].key, resume + (i % 3),
                            0.5 * (i + 1)};
    ASSERT_TRUE(engine->Ingest(tuple).ok());
    ASSERT_TRUE(reopened->Ingest(tuple).ok());
  }
  ASSERT_TRUE(engine->SealThrough(resume + 2).ok());
  ASSERT_TRUE(reopened->SealThrough(resume + 2).ok());
  auto want2 = engine->TakeSnapshot()->Window(0, 4);
  auto got2 = reopened->TakeSnapshot()->Window(0, 4);
  ASSERT_TRUE(want2.ok());
  ASSERT_TRUE(got2.ok());
  ASSERT_EQ(want2->size(), got2->size());
  for (size_t i = 0; i < want2->size(); ++i) {
    EXPECT_EQ((*want2)[i].key, (*got2)[i].key);
    EXPECT_EQ((*want2)[i].measure, (*got2)[i].measure);
  }
}

TEST(CheckpointTest, CheckpointOfSpilledEngineIsComplete) {
  // Spilled cells must be checkpointed from their raw disk blocks, not
  // silently dropped.
  WorkloadSpec spec = ChurnWorkload(/*tuples=*/100, /*ticks=*/16,
                                    /*seed=*/77);
  StreamGenerator gen(spec);

  EngineBuilder builder;
  builder.SetSchema(*MakeWorkloadSchemaPtr(spec))
      .SetTiltPolicy(SmallTiltPolicy())
      .SetExceptionPolicy(ExceptionPolicy(0.02))
      .SetShardCount(2);
  // A 1-byte budget keeps the engine permanently over it, so every
  // post-write enforcement spills whatever the last snapshot left clean.
  auto budgeted = builder.SetMemoryBudget(1)
                      .SetSpillDir(FreshDir("checkpoint_spilled_spill"))
                      .Build();
  ASSERT_TRUE(budgeted.ok());
  ASSERT_TRUE(budgeted->IngestBatch(gen.GenerateStream()).ok());
  (void)budgeted->TakeSnapshot();  // cleans the dirty set
  ASSERT_TRUE(
      budgeted->Ingest({gen.cells()[0].key, spec.series_length, 0.125}).ok());
  ASSERT_GT(budgeted->SpillStats().spilled_cells, 0);

  const std::string dir = FreshDir("checkpoint_spilled");
  ASSERT_TRUE(budgeted->Checkpoint(dir).ok());
  // Reopen unbounded (and with a different spill dir story entirely): the
  // checkpoint owes nothing to the writer's spill segments.
  EngineBuilder unbounded;
  unbounded.SetSchema(*MakeWorkloadSchemaPtr(spec))
      .SetTiltPolicy(SmallTiltPolicy())
      .SetExceptionPolicy(ExceptionPolicy(0.02))
      .SetShardCount(2);
  auto reopened = unbounded.OpenFrom(dir);
  ASSERT_TRUE(reopened.ok()) << reopened.status().ToString();
  EXPECT_EQ(reopened->num_cells(), budgeted->num_cells());

  auto want = budgeted->TakeSnapshot()->Window(0, 4);
  auto got = reopened->TakeSnapshot()->Window(0, 4);
  ASSERT_TRUE(want.ok());
  ASSERT_TRUE(got.ok());
  ASSERT_EQ(want->size(), got->size());
  for (size_t i = 0; i < want->size(); ++i) {
    EXPECT_EQ((*want)[i].key, (*got)[i].key);
    EXPECT_EQ((*want)[i].measure, (*got)[i].measure);
  }
}

TEST(CheckpointTest, SecondEngineOnALiveSpillDirIsRefused) {
  // A second engine on the writer's spill dir (here: OpenFrom through the
  // writer's own builder) would truncate the writer's segments. It is
  // refused, the writer keeps faulting its cells in, and the directory is
  // free again once the writer is gone.
  WorkloadSpec spec = ChurnWorkload(/*tuples=*/100, /*ticks=*/16,
                                    /*seed=*/78);
  StreamGenerator gen(spec);
  EngineBuilder builder;
  builder.SetSchema(*MakeWorkloadSchemaPtr(spec))
      .SetTiltPolicy(SmallTiltPolicy())
      .SetExceptionPolicy(ExceptionPolicy(0.02))
      .SetShardCount(2)
      .SetMemoryBudget(1)
      .SetSpillDir(FreshDir("spill_dir_shared"));
  auto writer = builder.Build();
  ASSERT_TRUE(writer.ok()) << writer.status().ToString();
  ASSERT_TRUE(writer->IngestBatch(gen.GenerateStream()).ok());
  (void)writer->TakeSnapshot();  // cleans the dirty set
  ASSERT_TRUE(
      writer->Ingest({gen.cells()[0].key, spec.series_length, 0.5}).ok());
  ASSERT_GT(writer->SpillStats().spilled_cells, 0);
  const std::string dir = FreshDir("spill_dir_shared_ckpt");
  ASSERT_TRUE(writer->Checkpoint(dir).ok());

  auto second = builder.Build();
  ASSERT_FALSE(second.ok());
  EXPECT_EQ(second.status().code(), StatusCode::kFailedPrecondition)
      << second.status().ToString();
  auto reopened = builder.OpenFrom(dir);
  ASSERT_FALSE(reopened.ok());
  EXPECT_EQ(reopened.status().code(), StatusCode::kFailedPrecondition)
      << reopened.status().ToString();

  const std::int64_t faults_before = writer->SpillStats().fault_ins;
  auto want = writer->TakeSnapshot()->Window(0, 4);
  ASSERT_TRUE(want.ok()) << want.status().ToString();
  EXPECT_GT(writer->SpillStats().fault_ins, faults_before);

  std::optional<Engine> live(std::move(writer).value());
  live.reset();
  reopened = builder.OpenFrom(dir);
  ASSERT_TRUE(reopened.ok()) << reopened.status().ToString();
  auto got = reopened->TakeSnapshot()->Window(0, 4);
  ASSERT_TRUE(got.ok());
  ASSERT_EQ(want->size(), got->size());
  for (size_t i = 0; i < want->size(); ++i) {
    EXPECT_EQ((*want)[i].key, (*got)[i].key);
    EXPECT_EQ((*want)[i].measure, (*got)[i].measure);
  }
}

TEST(CheckpointTest, OlderFileVersionIsInvalidArgument) {
  // Version 2 files carry FNV-1a block checksums this build does not
  // compute: they are refused up front, not misread as torn blocks.
  WorkloadSpec spec = ChurnWorkload(/*tuples=*/40, /*ticks=*/12, /*seed=*/9);
  StreamGenerator gen(spec);
  EngineBuilder builder;
  builder.SetSchema(*MakeWorkloadSchemaPtr(spec))
      .SetTiltPolicy(SmallTiltPolicy());
  auto engine = builder.Build();
  ASSERT_TRUE(engine.ok());
  ASSERT_TRUE(engine->IngestBatch(gen.GenerateStream()).ok());
  const std::string dir = FreshDir("ckpt_old_version");
  ASSERT_TRUE(engine->Checkpoint(dir).ok());

  const std::string victim = CheckpointShardFilePath(dir, 0);
  auto bytes = ReadFile(victim);
  ASSERT_TRUE(bytes.ok());
  std::string old = *bytes;
  ASSERT_EQ(old[4], 3) << "the version word follows the file magic";
  old[4] = 2;
  ASSERT_TRUE(WriteFile(victim, old).ok());
  auto opened = builder.OpenFrom(dir);
  ASSERT_FALSE(opened.ok());
  EXPECT_EQ(opened.status().code(), StatusCode::kInvalidArgument);
  EXPECT_NE(opened.status().message().find("version 2"), std::string::npos)
      << opened.status().ToString();
}

TEST(CheckpointTest, RestartKeepsRefusingSealedTicks) {
  // A seal across no tilt-unit boundary leaves shared frames lagging
  // behind it; the reopened engine must still treat them as sealed, or it
  // would accept ticks the live one refuses.
  WorkloadSpec spec = ChurnWorkload(/*tuples=*/60, /*ticks=*/16,
                                    /*seed=*/91);
  StreamGenerator gen(spec);
  EngineBuilder builder;
  builder.SetSchema(*MakeWorkloadSchemaPtr(spec))
      .SetTiltPolicy(SmallTiltPolicy())
      .SetExceptionPolicy(ExceptionPolicy(0.02))
      .SetShardCount(2);
  auto engine = builder.Build();
  ASSERT_TRUE(engine.ok());
  ASSERT_TRUE(engine->IngestBatch(gen.GenerateStream()).ok());
  const TimeTick boundary = spec.series_length - 1;  // a quarter ends here
  ASSERT_TRUE(SmallTiltPolicy()->AnyUnitEndIn(boundary, boundary + 1));
  ASSERT_TRUE(engine->SealThrough(boundary).ok());
  (void)engine->TakeSnapshot();  // every frame is now shared
  const TimeTick seal = boundary + 1;
  ASSERT_FALSE(SmallTiltPolicy()->AnyUnitEndIn(seal, seal + 1));
  ASSERT_TRUE(engine->SealThrough(seal).ok());

  const QuerySpec top = QuerySpec::TopExceptions(5, /*level=*/0, /*k=*/4);
  auto want = engine->Query(top);
  ASSERT_TRUE(want.ok()) << want.status().ToString();
  ASSERT_FALSE(want->cells().empty());

  const std::string dir = FreshDir("checkpoint_late_tick");
  ASSERT_TRUE(engine->Checkpoint(dir).ok());
  auto reopened = builder.OpenFrom(dir);
  ASSERT_TRUE(reopened.ok()) << reopened.status().ToString();

  auto got = reopened->Query(top);
  ASSERT_TRUE(got.ok()) << got.status().ToString();
  ASSERT_EQ(want->cells().size(), got->cells().size());
  for (size_t i = 0; i < want->cells().size(); ++i) {
    EXPECT_EQ(want->cells()[i].cuboid, got->cells()[i].cuboid);
    EXPECT_EQ(want->cells()[i].key, got->cells()[i].key);
    EXPECT_EQ(want->cells()[i].isb, got->cells()[i].isb);
  }
  for (Engine* e : {&*engine, &*reopened}) {
    const Status late = e->Ingest({gen.cells()[0].key, seal, 1.0});
    EXPECT_EQ(late.code(), StatusCode::kOutOfRange) << late.ToString();
    EXPECT_TRUE(e->Ingest({gen.cells()[0].key, seal + 1, 1.0}).ok());
  }
}

TEST(CheckpointTest, RestartKeepsTheSealClockForSpilledAndNewCells) {
  // A cell that sat spilled through the last seal is checkpointed as its
  // raw (lagging) block, and a cell created after the reopen starts at the
  // engine's start tick: both catch up to the seal only if the manifest
  // carries the seal clock across the restart.
  WorkloadSpec spec = ChurnWorkload(/*tuples=*/4, /*ticks=*/8, /*seed=*/5,
                                    /*fanout=*/3);
  StreamGenerator gen(spec);
  EngineBuilder builder;
  builder.SetSchema(*MakeWorkloadSchemaPtr(spec))
      .SetTiltPolicy(SmallTiltPolicy())
      .SetExceptionPolicy(ExceptionPolicy(0.02))
      .SetShardCount(2)
      .SetMemoryBudget(1)  // every enforcement spills every clean cell
      .SetSpillDir(FreshDir("checkpoint_seal_clock_spill"));
  auto engine = builder.Build();
  ASSERT_TRUE(engine.ok()) << engine.status().ToString();
  ASSERT_TRUE(engine->IngestBatch(gen.GenerateStream()).ok());
  ASSERT_TRUE(engine->SealThrough(7).ok());
  (void)engine->TakeSnapshot();  // cleans every cell, which then spills
  ASSERT_EQ(engine->SpillStats().spilled_cells, engine->num_cells());
  ASSERT_TRUE(engine->SealThrough(20).ok());  // spilled cells stay behind

  const std::string dir = FreshDir("checkpoint_seal_clock");
  ASSERT_TRUE(engine->Checkpoint(dir).ok());
  // Its own spill dir: the writer still holds the lock on its own.
  auto reopened =
      builder.SetSpillDir(FreshDir("checkpoint_seal_clock_reopen_spill"))
          .OpenFrom(dir);
  ASSERT_TRUE(reopened.ok()) << reopened.status().ToString();
  EXPECT_EQ(reopened->now(), engine->now());

  const CellKey spilled = gen.cells()[0].key;
  const CellKey fresh = equivalence::UnusedMLayerKey(gen);
  for (Engine* e : {&*engine, &*reopened}) {
    for (const CellKey& key : {spilled, fresh}) {
      const Status late = e->Ingest({key, 15, 1.0});
      EXPECT_EQ(late.code(), StatusCode::kOutOfRange)
          << key.ToString() << ": " << late.ToString();
    }
    EXPECT_TRUE(e->Ingest({spilled, 21, 2.0}).ok());
  }
  for (const CellKey& key : {spilled, fresh}) {
    ExpectSameCellSeries(*engine, *reopened, key);
  }
}

// ----------------------------------------------------- concurrent spill

TEST(MemoryBudgetTest, ConcurrentChurnSnapshotsAndEnforcement) {
  // Writers churn while readers snapshot on a tightly-budgeted engine:
  // every gather both cleans cells (arming the next spill) and faults
  // spilled ones back in, so spill / fault-in / eviction race real reads
  // and writes. Runs in the TSan CI job via the "concurrency" label.
  WorkloadSpec spec = ChurnWorkload(/*tuples=*/80, /*ticks=*/16, /*seed=*/44);
  auto schema = MakeWorkloadSchemaPtr(spec);
  ASSERT_TRUE(schema.ok());
  StreamGenerator gen(spec);
  const auto& cells = gen.cells();

  EngineBuilder builder;
  builder.SetSchema(*schema)
      .SetTiltPolicy(SmallTiltPolicy())
      .SetShardCount(8)
      .SetReadThreads(3)
      .SetMemoryBudget(16 << 10)
      .SetSpillDir(FreshDir("mem_budget_concurrent"));
  auto built = builder.Build();
  ASSERT_TRUE(built.ok()) << built.status().ToString();
  Engine engine = std::move(built).value();
  ASSERT_TRUE(engine.IngestBatch(gen.GenerateStream()).ok());
  ASSERT_TRUE(engine.SealThrough(spec.series_length - 1).ok());

  constexpr int kWriters = 3;
  constexpr int kRoundsPerWriter = 30;
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
      while (!stop.load(std::memory_order_relaxed)) {
        auto snap = engine.TakeSnapshot();
        auto window = snap->Window(0, 2);
        ASSERT_TRUE(window.ok()) << window.status().ToString();
      }
    });
  }
  for (std::thread& w : workers) w.join();
  stop.store(true, std::memory_order_relaxed);
  for (std::thread& r : readers) r.join();

  // Quiesced: the budget machinery ran, and the end state still answers.
  const SpillStats spill = engine.SpillStats();
  EXPECT_GT(spill.enforcements, 0);
  auto snap = engine.TakeSnapshot();
  auto final_window = snap->Window(0, 2);
  ASSERT_TRUE(final_window.ok());
  EXPECT_EQ(snap->num_cells(), static_cast<std::int64_t>(cells.size()));
}

// ------------------------------------------------------ typed error paths

TEST(CheckpointTest, MissingDirectoryIsNotFound) {
  EngineBuilder builder;
  WorkloadSpec spec = ChurnWorkload(10, 8, 3);
  builder.SetSchema(*MakeWorkloadSchemaPtr(spec))
      .SetTiltPolicy(SmallTiltPolicy());
  auto opened = builder.OpenFrom(::testing::TempDir() + "/no_such_ckpt");
  EXPECT_EQ(opened.status().code(), StatusCode::kNotFound);
}

TEST(CheckpointTest, CorruptManifestIsInvalidArgument) {
  const std::string dir = FreshDir("ckpt_corrupt_manifest");
  ASSERT_TRUE(EnsureDirectory(dir).ok());
  ASSERT_TRUE(
      WriteFile(CheckpointManifestPath(dir), "definitely not a manifest")
          .ok());
  EngineBuilder builder;
  WorkloadSpec spec = ChurnWorkload(10, 8, 3);
  builder.SetSchema(*MakeWorkloadSchemaPtr(spec))
      .SetTiltPolicy(SmallTiltPolicy());
  auto opened = builder.OpenFrom(dir);
  EXPECT_FALSE(opened.ok());
  EXPECT_EQ(opened.status().code(), StatusCode::kInvalidArgument);
}

TEST(CheckpointTest, TruncatedShardFileIsTypedError) {
  // Write a real checkpoint, then truncate a shard file: AttachCheckpoint
  // validation must catch it at OpenFrom with a typed error.
  WorkloadSpec spec = ChurnWorkload(/*tuples=*/60, /*ticks=*/12, /*seed=*/5);
  StreamGenerator gen(spec);
  EngineBuilder builder;
  builder.SetSchema(*MakeWorkloadSchemaPtr(spec))
      .SetTiltPolicy(SmallTiltPolicy())
      .SetShardCount(2);
  auto engine = builder.Build();
  ASSERT_TRUE(engine.ok());
  ASSERT_TRUE(engine->IngestBatch(gen.GenerateStream()).ok());
  const std::string dir = FreshDir("ckpt_truncated");
  ASSERT_TRUE(engine->Checkpoint(dir).ok());

  const std::string victim = CheckpointShardFilePath(dir, 0);
  auto bytes = ReadFile(victim);
  ASSERT_TRUE(bytes.ok());
  ASSERT_TRUE(WriteFile(victim, bytes->substr(0, bytes->size() / 2)).ok());

  auto opened = builder.OpenFrom(dir);
  EXPECT_FALSE(opened.ok());
  EXPECT_TRUE(opened.status().code() == StatusCode::kOutOfRange ||
              opened.status().code() == StatusCode::kInvalidArgument)
      << opened.status().ToString();
}

TEST(CheckpointTest, GarbledShardFileIsInvalidArgument) {
  WorkloadSpec spec = ChurnWorkload(/*tuples=*/60, /*ticks=*/12, /*seed=*/6);
  StreamGenerator gen(spec);
  EngineBuilder builder;
  builder.SetSchema(*MakeWorkloadSchemaPtr(spec))
      .SetTiltPolicy(SmallTiltPolicy())
      .SetShardCount(2);
  auto engine = builder.Build();
  ASSERT_TRUE(engine.ok());
  ASSERT_TRUE(engine->IngestBatch(gen.GenerateStream()).ok());
  const std::string dir = FreshDir("ckpt_garbled");
  ASSERT_TRUE(engine->Checkpoint(dir).ok());

  const std::string victim = CheckpointShardFilePath(dir, 1);
  auto bytes = ReadFile(victim);
  ASSERT_TRUE(bytes.ok());
  std::string garbled = *bytes;
  for (size_t i = 0; i < garbled.size() && i < 64; ++i) garbled[i] ^= 0x5A;
  ASSERT_TRUE(WriteFile(victim, garbled).ok());

  auto opened = builder.OpenFrom(dir);
  EXPECT_FALSE(opened.ok());
  EXPECT_EQ(opened.status().code(), StatusCode::kInvalidArgument);
}

TEST(CheckpointTest, SchemaMismatchIsInvalidArgument) {
  WorkloadSpec spec = ChurnWorkload(/*tuples=*/40, /*ticks=*/12, /*seed=*/8);
  StreamGenerator gen(spec);
  EngineBuilder builder;
  builder.SetSchema(*MakeWorkloadSchemaPtr(spec))
      .SetTiltPolicy(SmallTiltPolicy());
  auto engine = builder.Build();
  ASSERT_TRUE(engine.ok());
  ASSERT_TRUE(engine->IngestBatch(gen.GenerateStream()).ok());
  const std::string dir = FreshDir("ckpt_schema_mismatch");
  ASSERT_TRUE(engine->Checkpoint(dir).ok());

  // 3 dims vs the checkpoint's 2.
  WorkloadSpec other = spec;
  other.num_dims = 3;
  EngineBuilder mismatched;
  mismatched.SetSchema(*MakeWorkloadSchemaPtr(other))
      .SetTiltPolicy(SmallTiltPolicy());
  auto opened = mismatched.OpenFrom(dir);
  EXPECT_FALSE(opened.ok());
  EXPECT_EQ(opened.status().code(), StatusCode::kInvalidArgument);
}

}  // namespace
}  // namespace regcube
