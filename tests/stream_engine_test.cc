// StreamCubeEngine — the per-shard write half of the on-line engine. It
// has no read API of its own, so each test reads what it published
// (Publish, aligned to the engine clock the way a gather aligns) through
// the snapshot_reads kernels every library read uses, and checks the §4.5
// semantics against direct fits of the raw series; the write rules
// themselves are checked bit for bit against the reference store
// (tests/reference_store.h).

#include "regcube/core/stream_engine.h"

#include <memory>

#include "equivalence_harness.h"
#include "gtest/gtest.h"
#include "regcube/core/snapshot_reads.h"
#include "regcube/gen/stream_generator.h"
#include "test_util.h"

namespace regcube {
namespace {

using testing_util::ExpectCellMapsEqual;
using testing_util::ExpectIsbNear;
using testing_util::MustFit;

/// The engine's published run with every frame copied and advanced to the
/// engine clock — the cells a gather of a one-shard engine reads.
SnapshotCells AlignedRun(StreamCubeEngine& engine) {
  auto published = engine.Publish(nullptr);
  EXPECT_TRUE(published.ok()) << published.status().ToString();
  SnapshotCells cells;
  if (!published.ok()) return cells;
  for (const CellSnapshot& cell : *(*published)->cells) {
    auto frame = std::make_shared<TiltTimeFrame>(*cell.frame);
    EXPECT_TRUE(frame->AdvanceTo(engine.now()).ok());
    cells.push_back({cell.key, std::move(frame)});
  }
  return cells;
}

std::shared_ptr<const TiltPolicy> SmallPolicy() {
  // quarter = 4 ticks, hour = 16 ticks.
  return MakeUniformTiltPolicy({{"quarter", 8}, {"hour", 8}}, {4, 16});
}

WorkloadSpec EngineSpec(std::int64_t tuples = 60, std::int64_t ticks = 64) {
  WorkloadSpec spec;
  spec.num_dims = 2;
  spec.num_levels = 2;
  spec.fanout = 3;
  spec.num_tuples = tuples;
  spec.series_length = ticks;
  spec.seed = 11;
  return spec;
}

TEST(StreamEngineTest, SnapshotMatchesDirectFitOfWindow) {
  WorkloadSpec spec = EngineSpec();
  auto schema = MakeWorkloadSchemaPtr(spec);
  ASSERT_TRUE(schema.ok());
  StreamGenerator gen(spec);

  StreamCubeEngine::Options options;
  options.tilt_policy = SmallPolicy();
  StreamCubeEngine engine(*schema, options);
  ASSERT_TRUE(engine.IngestBatch(gen.GenerateStream()).ok());
  ASSERT_TRUE(engine.SealThrough(spec.series_length - 1).ok());
  EXPECT_EQ(engine.num_cells(), spec.num_tuples);

  // Window: last 8 sealed quarters = ticks [32, 64).
  auto window = SnapshotWindowOf(AlignedRun(engine), /*level=*/0, /*k=*/8);
  ASSERT_TRUE(window.ok()) << window.status().ToString();
  ASSERT_EQ(window->size(), static_cast<size_t>(spec.num_tuples));

  StreamGenerator gen2(spec);
  CellMap expected;
  for (size_t i = 0; i < gen2.cells().size(); ++i) {
    TimeSeries series = gen2.SeriesFor(i);
    auto slice = series.Slice(32, 63);
    ASSERT_TRUE(slice.ok());
    expected.emplace(gen2.cells()[i].key, MustFit(*slice));
  }
  for (const MLayerTuple& t : *window) {
    auto it = expected.find(t.key);
    ASSERT_NE(it, expected.end());
    ExpectIsbNear(it->second, t.measure, 1e-7);
  }
}

TEST(StreamEngineTest, ComputeCubeMatchesBatchAlgorithm) {
  WorkloadSpec spec = EngineSpec(50, 32);
  auto schema = MakeWorkloadSchemaPtr(spec);
  ASSERT_TRUE(schema.ok());
  StreamGenerator gen(spec);

  StreamCubeEngine::Options options;
  options.tilt_policy = SmallPolicy();
  options.policy = ExceptionPolicy(0.02);
  StreamCubeEngine engine(*schema, options);
  ASSERT_TRUE(engine.IngestBatch(gen.GenerateStream()).ok());
  ASSERT_TRUE(engine.SealThrough(31).ok());

  const SnapshotCells cells = AlignedRun(engine);
  auto cube = SnapshotCubeOf(*schema, cells, options, /*level=*/0, /*k=*/8,
                             nullptr);  // full 32 ticks
  ASSERT_TRUE(cube.ok()) << cube.status().ToString();

  auto window = SnapshotWindowOf(cells, 0, 8);
  ASSERT_TRUE(window.ok());
  MoCubingOptions mo;
  mo.policy = ExceptionPolicy(0.02);
  auto direct = ComputeMoCubing(*schema, *window, mo);
  ASSERT_TRUE(direct.ok());
  ExpectCellMapsEqual(direct->o_layer(), cube->o_layer(), 1e-9);
  EXPECT_EQ(direct->exceptions().total_cells(),
            cube->exceptions().total_cells());
}

TEST(StreamEngineTest, PopularPathAlgorithmSelectable) {
  WorkloadSpec spec = EngineSpec(40, 32);
  auto schema = MakeWorkloadSchemaPtr(spec);
  ASSERT_TRUE(schema.ok());
  StreamGenerator gen(spec);

  StreamCubeEngine::Options options;
  options.tilt_policy = SmallPolicy();
  options.policy = ExceptionPolicy(0.02);
  options.algorithm = StreamCubeEngine::Algorithm::kPopularPath;
  StreamCubeEngine engine(*schema, options);
  ASSERT_TRUE(engine.IngestBatch(gen.GenerateStream()).ok());
  ASSERT_TRUE(engine.SealThrough(31).ok());
  auto cube = SnapshotCubeOf(*schema, AlignedRun(engine), options, 0, 4,
                             nullptr);
  ASSERT_TRUE(cube.ok()) << cube.status().ToString();
  EXPECT_FALSE(cube->o_layer().empty());
}

TEST(StreamEngineTest, ObservationDeckAggregatesOLayer) {
  WorkloadSpec spec = EngineSpec(30, 32);
  auto schema = MakeWorkloadSchemaPtr(spec);
  ASSERT_TRUE(schema.ok());
  StreamGenerator gen(spec);

  StreamCubeEngine::Options options;
  options.tilt_policy = SmallPolicy();
  StreamCubeEngine engine(*schema, options);
  ASSERT_TRUE(engine.IngestBatch(gen.GenerateStream()).ok());
  ASSERT_TRUE(engine.SealThrough(31).ok());

  auto deck = SnapshotDeckOf(AlignedRun(engine), engine.lattice(),
                             /*num_levels=*/2,
                             /*level=*/1);  // hour slots (2 sealed)
  ASSERT_TRUE(deck.ok()) << deck.status().ToString();
  ASSERT_FALSE(deck->empty());

  // Reference: sum the raw series per o-layer key, fit per hour window.
  StreamGenerator gen2(spec);
  CuboidLattice lattice(**schema);
  std::unordered_map<CellKey, std::vector<double>, CellKeyHash> sums;
  for (size_t i = 0; i < gen2.cells().size(); ++i) {
    CellKey o_key =
        lattice.ProjectMLayerKey(gen2.cells()[i].key, lattice.o_layer_id());
    auto& acc = sums[o_key];
    TimeSeries s = gen2.SeriesFor(i);
    if (acc.empty()) acc.assign(static_cast<size_t>(s.size()), 0.0);
    for (TimeTick t = 0; t < s.size(); ++t) {
      acc[static_cast<size_t>(t)] += s.at(t);
    }
  }
  EXPECT_EQ(deck->size(), sums.size());
  for (const auto& [key, series] : *deck) {
    auto it = sums.find(key);
    ASSERT_NE(it, sums.end());
    ASSERT_EQ(series.size(), 2u);  // two sealed hours in 32 ticks
    std::vector<double> hour0(it->second.begin(), it->second.begin() + 16);
    std::vector<double> hour1(it->second.begin() + 16, it->second.end());
    ExpectIsbNear(MustFit(TimeSeries(0, std::move(hour0))), series[0], 1e-7);
    ExpectIsbNear(MustFit(TimeSeries(16, std::move(hour1))), series[1], 1e-7);
  }
}

TEST(StreamEngineTest, DetectTrendChangesFindsInjectedBreak) {
  // Two cells; one flips slope violently between hour 1 and hour 2.
  auto h = std::make_shared<FanoutHierarchy>(1, 4);
  auto schema_result =
      CubeSchema::Create({Dimension("A", h)}, {1}, {1});
  ASSERT_TRUE(schema_result.ok());
  auto schema = std::make_shared<CubeSchema>(std::move(schema_result).value());

  StreamCubeEngine::Options options;
  options.tilt_policy = SmallPolicy();
  StreamCubeEngine engine(schema, options);

  CellKey steady(1), breaker(1);
  steady.set(0, 0);
  breaker.set(0, 1);
  for (TimeTick t = 0; t < 32; ++t) {
    ASSERT_TRUE(engine.Ingest({steady, t, 5.0}).ok());
    // breaker: flat for the first hour, steep rise for the second.
    double v = t < 16 ? 1.0 : static_cast<double>(t - 15) * 3.0;
    ASSERT_TRUE(engine.Ingest({breaker, t, v}).ok());
  }
  ASSERT_TRUE(engine.SealThrough(31).ok());

  auto changes = SnapshotTrendChangesOf(AlignedRun(engine), engine.lattice(),
                                        /*num_levels=*/2, /*level=*/1,
                                        /*threshold=*/1.0);
  ASSERT_TRUE(changes.ok()) << changes.status().ToString();
  ASSERT_EQ(changes->size(), 1u);
  EXPECT_EQ((*changes)[0].key, breaker);
  EXPECT_NEAR((*changes)[0].previous.slope, 0.0, 1e-9);
  EXPECT_NEAR((*changes)[0].current.slope, 3.0, 1e-9);
}

TEST(StreamEngineTest, KeyMapperRollsPrimitiveKeysUp) {
  // Primitive keys at level-2 granularity mapped to m-layer level 1 via a
  // custom mapper (user -> user-group).
  auto h = std::make_shared<FanoutHierarchy>(2, 3);
  auto schema_result = CubeSchema::Create({Dimension("A", h)}, {1}, {1});
  ASSERT_TRUE(schema_result.ok());
  auto schema = std::make_shared<CubeSchema>(std::move(schema_result).value());

  StreamCubeEngine::Options options;
  options.tilt_policy = SmallPolicy();
  options.key_mapper = [&h](const CellKey& primitive) {
    CellKey m(1);
    m.set(0, h->Parent(2, primitive[0]));
    return m;
  };
  StreamCubeEngine engine(schema, options);

  CellKey u0(1), u1(1);
  u0.set(0, 0);  // both map to group 0
  u1.set(0, 1);
  for (TimeTick t = 0; t < 8; ++t) {
    ASSERT_TRUE(engine.Ingest({u0, t, 1.0}).ok());
    ASSERT_TRUE(engine.Ingest({u1, t, 2.0}).ok());
  }
  ASSERT_TRUE(engine.SealThrough(7).ok());
  EXPECT_EQ(engine.num_cells(), 1);  // merged into one m-layer cell
  auto window = SnapshotWindowOf(AlignedRun(engine), 0, 2);
  ASSERT_TRUE(window.ok());
  EXPECT_NEAR((*window)[0].measure.SeriesSum(), 8 * 3.0, 1e-9);
}

TEST(StreamEngineTest, ErrorsSurfaceCleanly) {
  WorkloadSpec spec = EngineSpec(10, 16);
  auto schema = MakeWorkloadSchemaPtr(spec);
  ASSERT_TRUE(schema.ok());
  StreamCubeEngine::Options options;
  options.tilt_policy = SmallPolicy();
  StreamCubeEngine engine(*schema, options);

  // No data yet: nothing published.
  EXPECT_TRUE(AlignedRun(engine).empty());
  EXPECT_EQ(SnapshotWindowOf(AlignedRun(engine), 0, 1).status().code(),
            StatusCode::kFailedPrecondition);

  CellKey k(2);
  ASSERT_TRUE(engine.Ingest({k, 10, 1.0}).ok());
  // Past tick for the same cell.
  EXPECT_FALSE(engine.Ingest({k, 3, 1.0}).ok());
  // Too many slots requested.
  ASSERT_TRUE(engine.SealThrough(11).ok());
  EXPECT_FALSE(SnapshotWindowOf(AlignedRun(engine), 0, 100).ok());
  // A tick the seal closed is refused.
  EXPECT_EQ(engine.Ingest({k, 11, 1.0}).code(), StatusCode::kOutOfRange);
}

TEST(StreamEngineTest, LateCellsBackfillWithZeros) {
  // A cell first seen in hour 2 still aligns with cells seen from tick 0.
  WorkloadSpec spec = EngineSpec(10, 16);
  auto schema = MakeWorkloadSchemaPtr(spec);
  ASSERT_TRUE(schema.ok());
  StreamCubeEngine::Options options;
  options.tilt_policy = SmallPolicy();
  StreamCubeEngine engine(*schema, options);

  CellKey early(2), late(2);
  early.set(0, 0);
  early.set(1, 0);
  late.set(0, 1);
  late.set(1, 1);
  for (TimeTick t = 0; t < 32; ++t) {
    ASSERT_TRUE(engine.Ingest({early, t, 1.0}).ok());
    if (t >= 20) {
      ASSERT_TRUE(engine.Ingest({late, t, 2.0}).ok());
    }
  }
  ASSERT_TRUE(engine.SealThrough(31).ok());
  auto window = SnapshotWindowOf(AlignedRun(engine), 0, 8);  // 32 ticks
  ASSERT_TRUE(window.ok()) << window.status().ToString();
  ASSERT_EQ(window->size(), 2u);
  for (const MLayerTuple& t : *window) {
    EXPECT_EQ(t.measure.interval.tb, 0);
    EXPECT_EQ(t.measure.interval.te, 31);
    if (t.key == late) {
      EXPECT_NEAR(t.measure.SeriesSum(), 12 * 2.0, 1e-9);
    }
  }
}

TEST(StreamEngineTest, QueryCellMatchesCubeCells) {
  WorkloadSpec spec = EngineSpec(40, 32);
  auto schema = MakeWorkloadSchemaPtr(spec);
  ASSERT_TRUE(schema.ok());
  StreamGenerator gen(spec);

  StreamCubeEngine::Options options;
  options.tilt_policy = SmallPolicy();
  options.policy = ExceptionPolicy(0.0);  // retain everything
  StreamCubeEngine engine(*schema, options);
  ASSERT_TRUE(engine.IngestBatch(gen.GenerateStream()).ok());
  ASSERT_TRUE(engine.SealThrough(31).ok());

  const SnapshotCells cells = AlignedRun(engine);
  auto cube = SnapshotCubeOf(*schema, cells, options, 0, 8, nullptr);
  ASSERT_TRUE(cube.ok());
  const CuboidLattice& lattice = engine.lattice();

  // Every retained cell of every cuboid must equal the on-the-fly query.
  for (CuboidId c = 0; c < lattice.num_cuboids(); ++c) {
    const CellMap* retained = cube->CellsAt(c);
    if (retained == nullptr) continue;
    for (const auto& [key, isb] : *retained) {
      auto queried = SnapshotCellOf(cells, lattice, c, key, 0, 8);
      ASSERT_TRUE(queried.ok()) << queried.status().ToString();
      ExpectIsbNear(isb, *queried, 1e-8);
    }
  }

  // Unknown cell.
  CellKey bogus(2);
  bogus.set(0, 7);
  bogus.set(1, 7);
  EXPECT_EQ(SnapshotCellOf(cells, lattice, lattice.o_layer_id(), bogus, 0, 8)
                .status()
                .code(),
            StatusCode::kNotFound);
}

TEST(StreamEngineTest, QueryCellSeriesMatchesPerSlotQueries) {
  WorkloadSpec spec = EngineSpec(20, 32);
  auto schema = MakeWorkloadSchemaPtr(spec);
  ASSERT_TRUE(schema.ok());
  StreamGenerator gen(spec);

  StreamCubeEngine::Options options;
  options.tilt_policy = SmallPolicy();
  StreamCubeEngine engine(*schema, options);
  ASSERT_TRUE(engine.IngestBatch(gen.GenerateStream()).ok());
  ASSERT_TRUE(engine.SealThrough(31).ok());

  const CuboidLattice& lattice = engine.lattice();
  const CellKey o_key =
      lattice.ProjectMLayerKey(gen.cells()[0].key, lattice.o_layer_id());
  const SnapshotCells cells = AlignedRun(engine);
  auto series = SnapshotCellSeriesOf(cells, lattice, /*num_levels=*/2,
                                     lattice.o_layer_id(), o_key, 1);
  ASSERT_TRUE(series.ok()) << series.status().ToString();
  ASSERT_EQ(series->size(), 2u);  // two sealed hours

  // The last element must match QueryCell over k=1.
  auto last = SnapshotCellOf(cells, lattice, lattice.o_layer_id(), o_key, 1, 1);
  ASSERT_TRUE(last.ok());
  ExpectIsbNear(*last, series->back(), 1e-12);
}

TEST(StreamEngineTest, PublishedRunMatchesReferenceStoreWriteRules) {
  // The reference store is only an oracle if it writes like the engine:
  // the key mapper runs first, a refused Add still creates its cell, and a
  // frame catches up to the seal clock before its Add (so a cell created
  // or left behind after a seal refuses a sealed tick too).
  const WorkloadSpec spec = equivalence::ChurnWorkload(40, 16, /*seed=*/5);
  auto schema = MakeWorkloadSchemaPtr(spec);
  ASSERT_TRUE(schema.ok());
  StreamCubeEngine::Options options = equivalence::ChurnEngineOptions();
  options.key_mapper = [](const CellKey& primitive) {
    return equivalence::Key2(primitive[0], primitive[1] / 2);
  };
  StreamCubeEngine engine(*schema, options);
  testing_util::ReferenceStore reference(*schema, options);
  auto both = [&](const StreamTuple& tuple) {
    const Status engine_status = engine.Ingest(tuple);
    EXPECT_EQ(engine_status.code(), reference.Ingest(tuple).code())
        << tuple.key.ToString() << " at " << tuple.tick;
    return engine_status;
  };

  StreamGenerator gen(spec);
  for (const StreamTuple& tuple : gen.GenerateStream()) {
    ASSERT_TRUE(both(tuple).ok());
  }
  ASSERT_TRUE(engine.SealThrough(spec.series_length + 2).ok());
  ASSERT_TRUE(reference.SealThrough(spec.series_length + 2).ok());

  // A brand-new cell behind the seal: refused, but created.
  const CellKey fresh = equivalence::FreshKeyOutside(gen, 16);
  EXPECT_EQ(both({fresh, spec.series_length, 1.0}).code(),
            StatusCode::kOutOfRange);
  // An existing cell behind the seal is refused as well; ahead of it, a
  // write lands after the catch-up.
  EXPECT_EQ(both({gen.cells()[0].key, spec.series_length + 1, 1.0}).code(),
            StatusCode::kOutOfRange);
  EXPECT_TRUE(both({gen.cells()[0].key, spec.series_length + 5, 2.0}).ok());
  EXPECT_TRUE(both({fresh, spec.series_length + 6, 3.0}).ok());

  EXPECT_EQ(engine.num_cells(), reference.num_cells());
  EXPECT_EQ(engine.now(), reference.now());
  equivalence::ExpectCellRunsIdentical(
      AlignedRun(engine), *reference.Gather().cells,
      options.tilt_policy->num_levels());
}

TEST(StreamEngineTest, CleanDirtyCellsRetiresThePublication) {
  // CleanDirtyCells drops the dirty list the next publish would patch the
  // publication from, so the publication must go with it: a patch over it
  // would miss every cleaned cell and answer stale. Publish, write and
  // seal, clean with no read in between, then publish again.
  const WorkloadSpec spec = equivalence::ChurnWorkload(40, 16, /*seed=*/9);
  auto schema = MakeWorkloadSchemaPtr(spec);
  ASSERT_TRUE(schema.ok());
  const StreamCubeEngine::Options options = equivalence::ChurnEngineOptions();
  StreamCubeEngine engine(*schema, options);
  testing_util::ReferenceStore reference(*schema, options);
  StreamGenerator gen(spec);
  const auto stream = gen.GenerateStream();
  ASSERT_TRUE(engine.IngestBatch(stream).ok());
  ASSERT_TRUE(reference.IngestBatch(stream).ok());
  ASSERT_TRUE(engine.SealThrough(spec.series_length - 1).ok());
  ASSERT_TRUE(reference.SealThrough(spec.series_length - 1).ok());
  ASSERT_TRUE(engine.Publish(nullptr).ok());
  ASSERT_NE(engine.Published(), nullptr);

  // Writes the next seal closes, so they show in the sealed slots.
  for (size_t i = 0; i < 5; ++i) {
    const StreamTuple tuple{gen.cells()[i].key, spec.series_length,
                            4.0 + static_cast<double>(i)};
    ASSERT_TRUE(engine.Ingest(tuple).ok());
    ASSERT_TRUE(reference.Ingest(tuple).ok());
  }
  ASSERT_TRUE(engine.SealThrough(spec.series_length + 3).ok());
  ASSERT_TRUE(reference.SealThrough(spec.series_length + 3).ok());

  EXPECT_GT(engine.CleanDirtyCells(), 0);
  EXPECT_EQ(engine.Published(), nullptr);
  equivalence::ExpectCellRunsIdentical(
      AlignedRun(engine), *reference.Gather().cells,
      options.tilt_policy->num_levels());
}

TEST(StreamEngineTest, MemoryBytesBoundedByTiltFrames) {
  WorkloadSpec spec = EngineSpec(20, 64);
  auto schema = MakeWorkloadSchemaPtr(spec);
  ASSERT_TRUE(schema.ok());
  StreamGenerator gen(spec);
  StreamCubeEngine::Options options;
  options.tilt_policy = SmallPolicy();
  StreamCubeEngine engine(*schema, options);
  ASSERT_TRUE(engine.IngestBatch(gen.GenerateStream()).ok());
  const std::int64_t bytes = engine.MemoryBytes();
  EXPECT_GT(bytes, 0);
  // 20 cells, 16 slots max each: comfortably under a megabyte.
  EXPECT_LT(bytes, 1 << 20);
}

}  // namespace
}  // namespace regcube
