// M1 — micro-benchmarks of the regression-measure primitives: direct LSE
// fit, the two lossless aggregations, moment round trips, tilt-frame
// ingestion, NCR updates/solves, and H-tree construction. Complements the
// figure harnesses with per-operation costs.

#include <memory>

#include "benchmark/benchmark.h"
#include "regcube/common/pcg_random.h"
#include "regcube/gen/stream_generator.h"
#include "regcube/htree/htree.h"
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

}  // namespace
}  // namespace regcube
