// M1 — micro-benchmarks of the regression-measure primitives: direct LSE
// fit, the two lossless aggregations, moment round trips, tilt-frame
// ingestion, the frame block codec and its checksum, NCR updates/solves,
// H-tree construction, filling a cube from a kept tree (H-cubing vs the
// roll's fold-index refold), and the exception-guided drill (one
// DrillDown step and a supporters walk). Complements the figure harnesses
// with per-operation costs.

#include <algorithm>
#include <cmath>
#include <memory>
#include <optional>
#include <string>

#include "benchmark/benchmark.h"
#include "regcube/common/pcg_random.h"
#include "regcube/core/mo_cubing.h"
#include "regcube/core/query.h"
#include "regcube/gen/stream_generator.h"
#include "regcube/htree/htree.h"
#include "regcube/io/binary_io.h"
#include "regcube/io/cube_io.h"
#include "regcube/io/frame_store.h"
#include "regcube/regression/aggregate.h"
#include "regcube/regression/linear_fit.h"
#include "regcube/regression/ncr.h"
#include "regcube/time/tilt_frame.h"

namespace regcube {
namespace {

TimeSeries MakeSeries(std::int64_t n) {
  Pcg32 rng(7);
  std::vector<double> v;
  v.reserve(static_cast<size_t>(n));
  for (std::int64_t i = 0; i < n; ++i) {
    v.push_back(1.0 + 0.01 * static_cast<double>(i) + rng.NextGaussian());
  }
  return TimeSeries(0, std::move(v));
}

void BM_FitLeastSquares(benchmark::State& state) {
  TimeSeries series = MakeSeries(state.range(0));
  for (auto _ : state) {
    auto fit = FitLeastSquares(series);
    benchmark::DoNotOptimize(fit);
  }
  state.SetItemsProcessed(state.iterations() * state.range(0));
}
BENCHMARK(BM_FitLeastSquares)->Arg(16)->Arg(256)->Arg(4096);

void BM_AggregateStandardDim(benchmark::State& state) {
  std::vector<Isb> children;
  for (std::int64_t i = 0; i < state.range(0); ++i) {
    children.push_back(Isb{{0, 31}, 1.0 + static_cast<double>(i), 0.01});
  }
  for (auto _ : state) {
    auto agg = AggregateStandardDim(children);
    benchmark::DoNotOptimize(agg);
  }
  state.SetItemsProcessed(state.iterations() * state.range(0));
}
BENCHMARK(BM_AggregateStandardDim)->Arg(2)->Arg(16)->Arg(256);

void BM_AggregateTimeDim(benchmark::State& state) {
  std::vector<Isb> children;
  TimeTick tb = 0;
  for (std::int64_t i = 0; i < state.range(0); ++i) {
    children.push_back(Isb{{tb, tb + 9}, 1.0, 0.01 * static_cast<double>(i)});
    tb += 10;
  }
  for (auto _ : state) {
    auto agg = AggregateTimeDim(children);
    benchmark::DoNotOptimize(agg);
  }
  state.SetItemsProcessed(state.iterations() * state.range(0));
}
BENCHMARK(BM_AggregateTimeDim)->Arg(2)->Arg(16)->Arg(256);

void BM_MomentRoundTrip(benchmark::State& state) {
  Isb isb{{100, 163}, 2.5, -0.03};
  for (auto _ : state) {
    Isb back = FitFromMoments(ToMoments(isb));
    benchmark::DoNotOptimize(back);
  }
}
BENCHMARK(BM_MomentRoundTrip);

void BM_TiltFrameIngest(benchmark::State& state) {
  auto policy = std::shared_ptr<const TiltPolicy>(
      MakeUniformTiltPolicy(
          {{"quarter", 4}, {"hour", 24}, {"day", 31}}, {1, 4, 96}));
  for (auto _ : state) {
    state.PauseTiming();
    TiltTimeFrame frame(policy, 0);
    state.ResumeTiming();
    for (TimeTick t = 0; t < state.range(0); ++t) {
      benchmark::DoNotOptimize(frame.Add(t, 1.0));
    }
  }
  state.SetItemsProcessed(state.iterations() * state.range(0));
}
BENCHMARK(BM_TiltFrameIngest)->Arg(96)->Arg(960);

// The paper's Fig 4 frame after a year of quarter-hour ticks: every level
// full (4 + 24 + 31 + 12 = 71 sealed slots).
TiltTimeFrame FullCalendarFrame() {
  TiltTimeFrame frame(MakeNaturalCalendarTiltPolicy(), 0);
  Pcg32 rng(3);
  for (TimeTick t = 0; t < 35040; t += 7) {
    (void)frame.Add(t, rng.NextGaussian());
  }
  (void)frame.AdvanceTo(35040);
  return frame;
}

// One frame copy: what every freeze, publish and snapshot of a cell pays.
void BM_TiltFrameCopy(benchmark::State& state) {
  const TiltTimeFrame frame = FullCalendarFrame();
  for (auto _ : state) {
    TiltTimeFrame copy = frame;
    benchmark::DoNotOptimize(copy);
  }
}
BENCHMARK(BM_TiltFrameCopy);

// Window regression over the last k sealed hours (Theorem 3.3 from slots).
void BM_RegressLastSlots(benchmark::State& state) {
  const TiltTimeFrame frame = FullCalendarFrame();
  const int k = static_cast<int>(state.range(0));
  for (auto _ : state) {
    auto isb = frame.RegressLastSlots(1, k);
    benchmark::DoNotOptimize(isb);
  }
}
BENCHMARK(BM_RegressLastSlots)->Arg(1)->Arg(4)->Arg(8);

// One frame block written straight from the slot block: what every spill
// and every resident cell of a checkpoint pays.
void BM_FrameEncode(benchmark::State& state) {
  const TiltTimeFrame frame = FullCalendarFrame();
  const std::size_t bytes = frame.BlockSize();
  for (auto _ : state) {
    ByteWriter w;
    w.Reserve(bytes);
    frame.AppendBlock(&w);
    benchmark::DoNotOptimize(w.buffer().data());
  }
  state.SetBytesProcessed(state.iterations() *
                          static_cast<std::int64_t>(bytes));
}
BENCHMARK(BM_FrameEncode);

// One frame rebuilt from its block with every check: what every fault-in
// pays.
void BM_FrameDecode(benchmark::State& state) {
  const TiltTimeFrame frame = FullCalendarFrame();
  ByteWriter w;
  frame.AppendBlock(&w);
  const std::string block = w.Release();
  const auto policy = std::shared_ptr<const TiltPolicy>(
      MakeNaturalCalendarTiltPolicy());
  for (auto _ : state) {
    auto decoded = TiltTimeFrame::FromBlock(policy, block);
    benchmark::DoNotOptimize(decoded);
  }
  state.SetBytesProcessed(state.iterations() *
                          static_cast<std::int64_t>(block.size()));
}
BENCHMARK(BM_FrameDecode);

// The checkpoint table checksum over one block (2.4 KB) and over a
// shard-sized run of bytes (4 MB), hashed once on write and once on open.
void BM_BlockChecksum(benchmark::State& state) {
  Pcg32 rng(5);
  std::string data(static_cast<std::size_t>(state.range(0)), '\0');
  for (char& c : data) c = static_cast<char>(rng.Next());
  for (auto _ : state) {
    benchmark::DoNotOptimize(BlockChecksum(data));
  }
  state.SetBytesProcessed(state.iterations() * state.range(0));
}
BENCHMARK(BM_BlockChecksum)->Arg(2476)->Arg(4 << 20);

void BM_NcrAddObservation(benchmark::State& state) {
  auto basis = MakePolynomialTimeBasis(static_cast<int>(state.range(0)));
  NcrMeasure m(basis->num_features());
  double t = 0.0;
  for (auto _ : state) {
    m.AddObservation(*basis, {t}, 1.0 + t);
    t += 1.0;
  }
}
BENCHMARK(BM_NcrAddObservation)->Arg(1)->Arg(3)->Arg(5);

void BM_NcrSolve(benchmark::State& state) {
  auto basis = MakePolynomialTimeBasis(static_cast<int>(state.range(0)));
  NcrMeasure m(basis->num_features());
  for (int t = 0; t < 256; ++t) {
    m.AddObservation(*basis, {static_cast<double>(t)},
                     1.0 + 0.1 * t - 0.001 * t * t);
  }
  for (auto _ : state) {
    auto fit = m.Solve();
    benchmark::DoNotOptimize(fit);
  }
}
BENCHMARK(BM_NcrSolve)->Arg(1)->Arg(3)->Arg(5);

void BM_HTreeBuild(benchmark::State& state) {
  WorkloadSpec spec;
  spec.num_dims = 3;
  spec.num_levels = 2;
  spec.fanout = 10;
  spec.num_tuples = state.range(0);
  spec.series_length = 16;
  StreamGenerator gen(spec);
  auto schema = MakeWorkloadSchemaPtr(spec);
  std::vector<MLayerTuple> tuples = gen.GenerateMLayerTuples();
  for (auto _ : state) {
    HTree::Options options;
    options.attribute_order = CardinalityAscendingOrder(**schema);
    auto tree = HTree::Build(**schema, tuples, std::move(options));
    benchmark::DoNotOptimize(tree);
  }
  state.SetItemsProcessed(state.iterations() * state.range(0));
}
BENCHMARK(BM_HTreeBuild)->Arg(1000)->Arg(10000);

/// A 20k-cell D3L2C10 stored-measure H-tree (the drill workload's shape
/// and exception threshold, and the kind of tree the maintained cube
/// keeps), with a cube cubed from it and every non-m cuboid's fold index,
/// built once and shared.
struct RollTree {
  std::shared_ptr<const CubeSchema> schema;
  std::optional<HTree> tree;
  std::vector<std::optional<CuboidFoldIndex>> indexes;
  std::unique_ptr<RegressionCube> cube;
  MoCubingOptions options;
};

const RollTree& SharedRollTree() {
  static const RollTree* shared = [] {
    WorkloadSpec spec;
    spec.num_dims = 3;
    spec.num_levels = 2;
    spec.fanout = 10;
    spec.num_tuples = 20000;
    spec.series_length = 16;
    StreamGenerator gen(spec);
    auto* out = new RollTree;
    out->schema = *MakeWorkloadSchemaPtr(spec);
    out->options.policy = ExceptionPolicy(0.05);
    HTree::Options tree_options;
    tree_options.attribute_order = CardinalityAscendingOrder(*out->schema);
    tree_options.store_nonleaf_measures = true;
    out->tree.emplace(HTree::Build(*out->schema, gen.GenerateMLayerTuples(),
                                   std::move(tree_options))
                          .value());
    const CuboidLattice lattice(*out->schema);
    out->indexes.resize(static_cast<size_t>(lattice.num_cuboids()));
    for (CuboidId c = 0; c < lattice.num_cuboids(); ++c) {
      if (c == lattice.m_layer_id()) continue;
      out->indexes[static_cast<size_t>(c)] =
          CuboidFoldIndex::Build(*out->tree, lattice, c);
    }
    out->cube = std::make_unique<RegressionCube>(out->schema);
    MemoryTracker tracker;
    CubeFromTree(*out->tree, out->options, tracker, out->cube.get());
    return out;
  }();
  return *shared;
}

/// Filling a cube's o-layer and exception cells from the kept tree by
/// H-cubing every cuboid: the epoch roll's cost before fold indexes.
void BM_CubeFromTree(benchmark::State& state) {
  const RollTree& roll = SharedRollTree();
  for (auto _ : state) {
    RegressionCube cube(roll.schema);
    MemoryTracker tracker;
    CubeFromTree(*roll.tree, roll.options, tracker, &cube);
    benchmark::DoNotOptimize(cube);
  }
}
BENCHMARK(BM_CubeFromTree)->Unit(benchmark::kMillisecond);

/// The same o-layer and exception cells refolded from each cuboid's fold
/// index (RefoldCube, what a roll runs after rebasing the tree).
void BM_RollRefold(benchmark::State& state) {
  const RollTree& roll = SharedRollTree();
  RegressionCube cube = roll.cube->Clone();
  for (auto _ : state) {
    ExceptionStore replaced =
        RefoldCube(*roll.tree, roll.indexes, roll.options, &cube);
    benchmark::DoNotOptimize(replaced);
  }
}
BENCHMARK(BM_RollRefold)->Unit(benchmark::kMillisecond);

/// A 20k-cell D3L2C10 cube (3 dimensions, 2 levels, fan-out 10: the shape
/// of perfbench's drill workload), m/o-cubed once and shared.
struct DrillCube {
  ExceptionPolicy policy{0.02};
  std::unique_ptr<const RegressionCube> cube;
};

const DrillCube& SharedDrillCube() {
  static const DrillCube* shared = [] {
    WorkloadSpec spec;
    spec.num_dims = 3;
    spec.num_levels = 2;
    spec.fanout = 10;
    spec.num_tuples = 20000;
    spec.series_length = 16;
    StreamGenerator gen(spec);
    auto* out = new DrillCube;
    MoCubingOptions options;
    options.policy = out->policy;
    auto cube = ComputeMoCubing(*MakeWorkloadSchemaPtr(spec),
                                gen.GenerateMLayerTuples(), options);
    out->cube = std::make_unique<const RegressionCube>(std::move(cube).value());
    return out;
  }();
  return *shared;
}

/// One drill step from the strongest exception of (A1, B2, C2), one level
/// above the m-layer, into the 20k m-layer cells.
void BM_DrillDown(benchmark::State& state) {
  const DrillCube& drill = SharedDrillCube();
  const CubeView view(*drill.cube, drill.policy);
  const CuboidId cuboid = drill.cube->lattice().id({1, 2, 2});
  const std::vector<CellResult> exceptions = view.ExceptionsAt(cuboid);
  if (exceptions.empty()) {
    state.SkipWithError("no exception to drill");
    return;
  }
  const CellResult& from = *std::max_element(
      exceptions.begin(), exceptions.end(),
      [](const CellResult& a, const CellResult& b) {
        return std::fabs(a.isb.slope) < std::fabs(b.isb.slope);
      });
  std::size_t children = 0;
  for (auto _ : state) {
    auto cells = view.DrillDown(cuboid, from.key);
    children = cells.size();
    benchmark::DoNotOptimize(cells);
  }
  state.counters["children"] = static_cast<double>(children);
}
BENCHMARK(BM_DrillDown);

/// The whole supporters tree of the cube's strongest exception.
void BM_DrillSupporters(benchmark::State& state) {
  const DrillCube& drill = SharedDrillCube();
  const CubeView view(*drill.cube, drill.policy);
  const std::vector<CellResult> top = view.TopExceptions(1);
  if (top.empty()) {
    state.SkipWithError("no exception to drill");
    return;
  }
  std::size_t supporters = 0;
  for (auto _ : state) {
    auto cells = view.ExceptionSupporters(top[0].cuboid, top[0].key);
    supporters = cells.size();
    benchmark::DoNotOptimize(cells);
  }
  state.counters["supporters"] = static_cast<double>(supporters);
}
BENCHMARK(BM_DrillSupporters);

}  // namespace
}  // namespace regcube
