#include "workload.h"

#include <cstdio>
#include <filesystem>

namespace perfbench {

using regcube::CellResult;
using regcube::Engine;
using regcube::QuerySpec;

regcube::WorkloadSpec MakeSpec(std::uint64_t seed, std::int64_t cells,
                               std::int64_t ticks) {
  regcube::WorkloadSpec spec;
  spec.num_dims = 3;
  spec.num_levels = 2;
  spec.fanout = 10;
  spec.num_tuples = cells;
  spec.series_length = ticks;
  spec.seed = seed;
  return spec;
}

regcube::EngineBuilder BaseBuilder(
    std::shared_ptr<const regcube::CubeSchema> schema,
    const ThreadBudget& threads) {
  regcube::EngineBuilder builder;
  builder.SetSchema(std::move(schema))
      .SetTiltPolicy(regcube::MakeUniformTiltPolicy(
          {{"quarter", 8}, {"hour", 8}}, {kLevel0Width, kLevel1Width}))
      .SetExceptionPolicy(regcube::ExceptionPolicy(kExceptionThreshold))
      .SetShardCount(threads.shards)
      .SetReadThreads(threads.read_threads);
  return builder;
}

std::vector<PointQuery> MakePointQueries(
    const regcube::CuboidLattice& lattice,
    const std::vector<regcube::StreamGenerator::CellParams>& cells,
    std::uint64_t seed, int n) {
  regcube::Pcg32 rng(seed, 0x9e3779b97f4a7c15ull);
  std::vector<PointQuery> out;
  out.reserve(static_cast<std::size_t>(n));
  for (int i = 0; i < n; ++i) {
    const auto cuboid = static_cast<regcube::CuboidId>(
        rng.Uniform(static_cast<std::uint32_t>(lattice.num_cuboids())));
    const auto& cell =
        cells[rng.Uniform(static_cast<std::uint32_t>(cells.size()))];
    out.push_back({cuboid, lattice.ProjectMLayerKey(cell.key, cuboid)});
  }
  return out;
}

void LayerStats::RecordSnapshot(const regcube::CubeSnapshot& snapshot) {
  const regcube::GatherStats& stats = snapshot.gather_stats();
  gather_cells.Add(static_cast<double>(stats.cells));
  gather_materialized.Add(static_cast<double>(stats.materialized));
  gather_copied_mb.Add(ToMb(stats.bytes_copied));
  gather_shards_reused.Add(static_cast<double>(stats.shards_reused));
}

void LayerStats::RecordRoundEnd(const Engine& engine) {
  const regcube::SpillStats now = engine.SpillStats();
  const regcube::SpillStats& was = last_spill;
  enforcements.Add(static_cast<double>(now.enforcements - was.enforcements));
  spill_evictions.Add(
      static_cast<double>(now.spill_evictions - was.spill_evictions));
  cache_evictions.Add(
      static_cast<double>(now.cache_evictions - was.cache_evictions));
  evicted_mb.Add(ToMb(now.evicted_bytes - was.evicted_bytes));
  fault_ins.Add(static_cast<double>(now.fault_ins - was.fault_ins));
  fault_in_mb.Add(ToMb(now.fault_in_bytes - was.fault_in_bytes));
  spilled_mb.Add(ToMb(now.spilled_bytes - was.spilled_bytes));
  last_spill = now;

  std::int64_t tilt = 0, frozen = 0, cache = 0, memo = 0, queue = 0;
  for (const auto& [name, bytes] : engine.MemoryReport()) {
    if (name == "stream.tilt_frames") tilt = bytes;
    if (name == "snapshot.frozen_frames") frozen = bytes;
    if (name == "snapshot.gather_cache") cache = bytes;
    if (name == "cube.memo") memo = bytes;
    if (name == "ingest.queue") queue = bytes;
  }
  tilt_mb.Add(ToMb(tilt));
  frozen_mb.Add(ToMb(frozen));
  gather_cache_mb.Add(ToMb(cache));
  memo_mb.Add(ToMb(memo));
  queue_mb.Add(ToMb(queue));
}

void LayerStats::RecordPhaseEnd(const Engine& engine) {
  const regcube::SpillStats spill = engine.SpillStats();
  fault_in_p99_us.Add(spill.fault_in_p99_us);
  disk_mb.Add(ToMb(spill.disk_bytes));
  compactions.Add(static_cast<double>(spill.compactions));
}

namespace {

// Per-layer metric from a span's durations: p50 (or the given quantile),
// scaled from microseconds by `scale`.
void SpanMetric(const Tracer& tracer, RunReport* report,
                const std::string& name, const std::string& unit,
                const char* span, const char* tag, double quantile,
                double scale) {
  const Samples samples = tracer.Durations(span, tag);
  report->Layer(name, unit, samples.Percentile(quantile) * scale,
                !samples.empty());
}

void MeanMetric(RunReport* report, const std::string& name,
                const std::string& unit, const Samples& samples) {
  report->Layer(name, unit, samples.Mean(), !samples.empty());
}

// Spans whose self time is reported as a share of the traced wall time.
constexpr const char* kSelfSpans[] = {
    "ingest_queue.submit",  "shard_writer.flush",     "stream_engine.batch",
    "stream_engine.seal",   "sharded_engine.take",    "query.deck",
    "incremental_cube.top", "query.drilldown",        "member_index.cell",
    "frame_store.compact",  "checkpoint.write",       "checkpoint.open",
    "checkpoint.first_query",
};

}  // namespace

void EmitLayerMetrics(const Tracer& tracer, const LayerStats& layer,
                      RunReport* report) {
  constexpr double kUs = 1.0, kMs = 1e-3;
  SpanMetric(tracer, report, "ingest_queue.submit_us.p50", "us",
             "ingest_queue.submit", nullptr, 50, kUs);
  SpanMetric(tracer, report, "ingest_queue.submit_us.p99", "us",
             "ingest_queue.submit", nullptr, 99, kUs);
  MeanMetric(report, "ingest_queue.blocked", "count", layer.queue_blocked);
  MeanMetric(report, "ingest_queue.high_water", "count",
             layer.queue_high_water);
  MeanMetric(report, "ingest_queue.p99_enqueue_us", "us",
             layer.queue_p99_enqueue_us);

  SpanMetric(tracer, report, "shard_writer.flush_ms", "ms",
             "shard_writer.flush", nullptr, 50, kMs);
  MeanMetric(report, "shard_writer.absorbed", "count", layer.absorbed);

  SpanMetric(tracer, report, "stream_engine.batch_ms", "ms",
             "stream_engine.batch", nullptr, 50, kMs);
  SpanMetric(tracer, report, "stream_engine.seal_ms.steady", "ms",
             "stream_engine.seal", "steady", 50, kMs);
  SpanMetric(tracer, report, "stream_engine.seal_ms.roll", "ms",
             "stream_engine.seal", "roll", 50, kMs);

  SpanMetric(tracer, report, "sharded_engine.take_us", "us",
             "sharded_engine.take", nullptr, 50, kUs);
  MeanMetric(report, "gather.cells", "count", layer.gather_cells);
  MeanMetric(report, "gather.materialized", "count",
             layer.gather_materialized);
  MeanMetric(report, "gather.bytes_copied_mb", "MB", layer.gather_copied_mb);
  MeanMetric(report, "gather.shards_reused", "count",
             layer.gather_shards_reused);

  SpanMetric(tracer, report, "incremental_cube.top_ms.steady", "ms",
             "incremental_cube.top", "steady", 50, kMs);
  SpanMetric(tracer, report, "incremental_cube.top_ms.roll", "ms",
             "incremental_cube.top", "roll", 50, kMs);

  SpanMetric(tracer, report, "query.drilldown_us", "us", "query.drilldown",
             nullptr, 50, kUs);
  MeanMetric(report, "query.drilldown_cells", "count", layer.drilldown_cells);

  SpanMetric(tracer, report, "member_index.cell_us.p50", "us",
             "member_index.cell", nullptr, 50, kUs);
  SpanMetric(tracer, report, "member_index.cell_us.p99", "us",
             "member_index.cell", nullptr, 99, kUs);

  MeanMetric(report, "memory_governor.enforcements", "count/round",
             layer.enforcements);
  MeanMetric(report, "memory_governor.spill_evictions", "count/round",
             layer.spill_evictions);
  MeanMetric(report, "memory_governor.cache_evictions", "count/round",
             layer.cache_evictions);
  MeanMetric(report, "memory_governor.evicted_mb", "MB/round",
             layer.evicted_mb);

  MeanMetric(report, "frame_store.fault_ins", "count/round", layer.fault_ins);
  MeanMetric(report, "frame_store.fault_in_mb", "MB/round",
             layer.fault_in_mb);
  MeanMetric(report, "frame_store.fault_in_p99_us", "us",
             layer.fault_in_p99_us);
  MeanMetric(report, "frame_store.spilled_mb", "MB/round", layer.spilled_mb);
  MeanMetric(report, "frame_store.disk_mb", "MB", layer.disk_mb);
  MeanMetric(report, "frame_store.compactions", "count", layer.compactions);
  SpanMetric(tracer, report, "frame_store.compact_ms", "ms",
             "frame_store.compact", nullptr, 50, kMs);

  SpanMetric(tracer, report, "checkpoint.write_ms", "ms", "checkpoint.write",
             nullptr, 50, kMs);
  SpanMetric(tracer, report, "checkpoint.open_ms", "ms", "checkpoint.open",
             nullptr, 50, kMs);
  SpanMetric(tracer, report, "checkpoint.first_query_ms", "ms",
             "checkpoint.first_query", nullptr, 50, kMs);

  MeanMetric(report, "memory.tilt_frames_mb", "MB", layer.tilt_mb);
  MeanMetric(report, "memory.frozen_frames_mb", "MB", layer.frozen_mb);
  MeanMetric(report, "memory.gather_cache_mb", "MB", layer.gather_cache_mb);
  MeanMetric(report, "memory.cube_memo_mb", "MB", layer.memo_mb);
  MeanMetric(report, "memory.ingest_queue_mb", "MB", layer.queue_mb);

  // Self time of each layer's calls as a share of all traced time (the
  // root spans: rounds, seal steps, ingest phases and restart cycles).
  double root_s = 0;
  for (const Tracer::Span& span : tracer.spans()) {
    if (span.parent < 0) {
      root_s += static_cast<double>(span.end_ns - span.start_ns) / 1e9;
    }
  }
  const std::vector<Tracer::SelfTime> self = tracer.SelfTimes();
  for (const char* span : kSelfSpans) {
    double self_s = 0;
    bool seen = false;
    for (const Tracer::SelfTime& entry : self) {
      if (entry.name == span) {
        self_s = entry.self_s;
        seen = true;
      }
    }
    report->Layer(std::string("self.") + span, "%",
                  root_s > 0 ? 100.0 * self_s / root_s : 0.0, seen);
  }
}

void ReportTimes(RunReport* report, const SpeedProbes& probes,
                 const std::vector<TimeMetric>& metrics) {
  for (const TimeMetric& m : metrics) {
    report->EndToEnd(m.name, m.unit,
                     m.samples->AtReferenceSpeed(probes, m.rate)
                         .Percentile(m.quantile));
    report->wall.push_back(
        {m.name, m.unit, m.samples->Percentile(m.quantile)});
  }
  report->Config("speed_probes", static_cast<std::int64_t>(probes.size()));
  report->Config("probe_median_us",
                 static_cast<std::int64_t>(probes.MedianMs() * 1e3));
}

void PrintSelfTimes(const Tracer& tracer) {
  std::printf("# self times (%zu spans)\n", tracer.spans().size());
  std::printf("#   %-26s %9s %12s %12s\n", "span", "count", "total_s",
              "self_s");
  for (const Tracer::SelfTime& entry : tracer.SelfTimes()) {
    std::printf("#   %-26s %9lld %12.4f %12.4f\n", entry.name.c_str(),
                static_cast<long long>(entry.count), entry.total_s,
                entry.self_s);
  }
}

double DrillSession(Engine& engine, const std::vector<CellResult>& top,
                    Tracer& tracer, OpCounts& ops, LayerStats& layer,
                    Digest& digest) {
  const Clock::time_point start = Clock::now();
  for (const CellResult& cell : top) {
    ScopedSpan span(tracer, "query.drilldown");
    auto children = engine.Query(
        QuerySpec::DrillDown(cell.cuboid, cell.key, kLevel, kWindow));
    if (!ops.Record(Op::kQuery, children.ok(),
                    children.ok() ? "" : children.status().ToString())) {
      continue;
    }
    layer.drilldown_cells.Add(static_cast<double>(children->cells().size()));
    digest.Add(children->cells());
  }
  return SecondsSince(start) * 1e3;
}

double PointBatch(Engine& engine, const std::vector<PointQuery>& points,
                  Tracer& tracer, OpCounts& ops, Digest& digest) {
  const Clock::time_point start = Clock::now();
  for (const PointQuery& point : points) {
    ScopedSpan span(tracer, "member_index.cell");
    auto cell =
        engine.Query(QuerySpec::Cell(point.cuboid, point.key, kLevel, kWindow));
    if (ops.Record(Op::kQuery, cell.ok(),
                   cell.ok() ? "" : cell.status().ToString())) {
      digest.Add(cell->cell());
    }
  }
  return SecondsSince(start) * 1e6 / static_cast<double>(points.size());
}

double RestartCycle(Engine& engine, const regcube::EngineBuilder& reopen,
                    const std::string& dir, Tracer& tracer, OpCounts& ops,
                    std::unique_ptr<Engine>* reopened,
                    std::vector<CellResult>* first_answer) {
  std::filesystem::remove_all(dir);
  reopened->reset();
  first_answer->clear();
  ScopedSpan cycle(tracer, "restart.cycle");
  const Clock::time_point start = Clock::now();
  {
    ScopedSpan span(tracer, "checkpoint.write");
    const regcube::Status status = engine.Checkpoint(dir);
    if (!ops.Record(Op::kCheckpoint, status.ok(), status.ToString())) {
      return SecondsSince(start) * 1e3;
    }
  }
  {
    ScopedSpan span(tracer, "checkpoint.open");
    auto opened = reopen.OpenFrom(dir);
    if (!ops.Record(Op::kOpen, opened.ok(),
                    opened.ok() ? "" : opened.status().ToString())) {
      return SecondsSince(start) * 1e3;
    }
    *reopened = std::make_unique<Engine>(std::move(opened).value());
  }
  {
    ScopedSpan span(tracer, "checkpoint.first_query");
    auto top =
        (*reopened)->Query(QuerySpec::TopExceptions(kTopN, kLevel, kWindow));
    if (ops.Record(Op::kQuery, top.ok(),
                   top.ok() ? "" : top.status().ToString())) {
      *first_answer = top->cells();
    }
  }
  return SecondsSince(start) * 1e3;
}

void CheckEqual(OpCounts& ops, const std::string& what,
                std::uint64_t expected, std::uint64_t actual) {
  ops.Record(Op::kOracle, expected == actual, what + " differs from oracle");
}

std::uint64_t DigestOf(const std::vector<CellResult>& cells) {
  Digest digest;
  digest.Add(cells);
  return digest.value();
}

}  // namespace perfbench
