// The `stream` workload: ingest-heavy. One producer pushes the generated
// stream tick by tick through Engine::IngestAsync (2 shards, kBlock) and
// every 4th tick flushes, seals and reads the observation deck. The write
// path (ingest queue, shard writers, absorb and publish) is the whole
// critical path; the cube layers are bypassed until the epilogue, which
// restarts the ingested engine from a checkpoint and drills into it.

#include <cmath>
#include <filesystem>

#include "workload.h"

namespace perfbench {
namespace {

using regcube::Engine;
using regcube::QuerySpec;
using regcube::StreamTuple;
using regcube::TimeTick;

constexpr std::int64_t kCells = 10'000;
constexpr std::int64_t kTicks = 96;
constexpr std::int64_t kWarmupTicks = 16;  // untimed, one level-1 unit
constexpr std::size_t kBatch = 1024;       // tuples per IngestAsync
constexpr std::int64_t kQueueCapacity = 4096;
constexpr TimeTick kSealEvery = kLevel0Width;
constexpr int kRestartCycles = 3;
constexpr int kPointBatches = 8;  // per restart cycle, each a fresh set
constexpr int kMaxReps = 64;

// One rep's answers: the last deck, the live engine's top exceptions, and
// per restart cycle the reopened engine's first answer, drills and points.
struct RepAnswers {
  std::uint64_t deck = 0;
  std::uint64_t top = 0;
  std::vector<std::uint64_t> reopened_top, reopened_drill, reopened_points;
};

struct StreamRun {
  // batches[tick] = that tick's IngestAsync batches.
  const std::vector<std::vector<std::vector<StreamTuple>>>* batches;
  Tracer* tracer;
  OpCounts* ops;
  LayerStats* layer;
  Samples* visible_ms;  // null during warm-up
  std::uint64_t* deck_digest;
  // Timed phase only: a speed probe after every seal step, while the
  // queues are drained and the engine idle; its time is kept out of the
  // ingest wall time.
  SpeedProbes* probes;
  double* probe_seconds;
};

bool IsSealTick(TimeTick t) { return (t + 1) % kSealEvery == 0; }

/// Ingests ticks [from, to): every tick's batches go through IngestAsync,
/// and every seal tick ends with Flush -> SealThrough -> snapshot -> deck.
void IngestTicks(Engine& engine, TimeTick from, TimeTick to,
                 const StreamRun& run) {
  Tracer& tracer = *run.tracer;
  OpCounts& ops = *run.ops;
  for (TimeTick t = from; t < to; ++t) {
    for (const std::vector<StreamTuple>& batch :
         (*run.batches)[static_cast<std::size_t>(t)]) {
      ScopedSpan span(tracer, "ingest_queue.submit");
      const regcube::IngestTicket ticket = engine.IngestAsync(batch);
      ops.Record(Op::kTicket,
                 ticket.ok() && ticket.dropped == 0 && ticket.rejected == 0 &&
                     ticket.enqueued == ticket.attempted,
                 ticket.status.ToString());
    }
    if (!IsSealTick(t)) continue;
    tracer.SetRound(t, (t + 1) % kLevel1Width == 0 ? "roll" : "steady");
    ScopedSpan step(tracer, "stream.seal_step");
    const double start = Now();
    {
      ScopedSpan span(tracer, "shard_writer.flush");
      const regcube::Status status = engine.Flush();
      ops.Record(Op::kTicket, status.ok(), status.ToString());
    }
    {
      ScopedSpan span(tracer, "stream_engine.seal");
      const regcube::Status status = engine.SealThrough(t);
      ops.Record(Op::kSeal, status.ok(), status.ToString());
    }
    std::shared_ptr<const regcube::CubeSnapshot> snapshot;
    {
      ScopedSpan span(tracer, "sharded_engine.take");
      snapshot = engine.TakeSnapshot();
    }
    {
      ScopedSpan span(tracer, "query.deck");
      auto deck = snapshot->Query(QuerySpec::ObservationDeck(kLevel));
      if (ops.Record(Op::kQuery, deck.ok(),
                     deck.ok() ? "" : deck.status().ToString())) {
        Digest digest;
        digest.Add(deck->deck());
        *run.deck_digest = digest.value();
      }
    }
    if (run.visible_ms != nullptr) {
      run.visible_ms->Add((Now() - start) * 1e3, start);
      run.layer->RecordSnapshot(*snapshot);
      if (tracer.enabled()) run.layer->RecordRoundEnd(engine);
    }
    if (run.probes != nullptr) {
      const double probe_start = Now();
      run.probes->Take();
      *run.probe_seconds += Now() - probe_start;
    }
  }
}

/// The epilogue's drill session: for every cuboid above the m-layer, list
/// its exceptions and drill into the strongest one. A DrillDown's cost
/// hinges on the cuboid of the cell drilled, so a fixed cuboid mix keeps
/// the session's cost from depending on where the seed's few strongest
/// exceptions happen to fall. Returns the session's wall time in ms.
double CuboidDrillSession(Engine& engine, Tracer& tracer, OpCounts& ops,
                          LayerStats& layer, Digest& digest) {
  const Clock::time_point start = Clock::now();
  const regcube::CuboidLattice& lattice = engine.lattice();
  std::vector<regcube::CellResult> strongest;
  for (regcube::CuboidId c = 0; c < lattice.num_cuboids(); ++c) {
    if (c == lattice.m_layer_id()) continue;
    ScopedSpan span(tracer, "query.exceptions_at");
    auto cells = engine.Query(QuerySpec::ExceptionsAt(c, kLevel, kWindow));
    if (!ops.Record(Op::kQuery, cells.ok(),
                    cells.ok() ? "" : cells.status().ToString())) {
      continue;
    }
    // Strongest |slope|, ties broken by key: the list's own order follows
    // the cube's hash maps and may differ between equal engines.
    const regcube::CellResult* best = nullptr;
    for (const regcube::CellResult& cell : cells->cells()) {
      const double a = std::fabs(cell.isb.slope);
      const double b = best == nullptr ? -1.0 : std::fabs(best->isb.slope);
      if (a > b || (a == b && KeyLess(cell.key, best->key))) best = &cell;
    }
    if (best != nullptr) strongest.push_back(*best);
  }
  digest.Add(strongest);
  DrillSession(engine, strongest, tracer, ops, layer, digest);
  return SecondsSince(start) * 1e3;
}

}  // namespace

bool RunStream(const Options& options, Tracer& tracer, RunReport* report) {
  const ThreadBudget threads{2, true, 1};
  if (!CheckThreadBudget(threads, options, report)) return false;
  const regcube::WorkloadSpec spec = MakeSpec(options.seed, kCells, kTicks);
  auto schema = regcube::MakeWorkloadSchemaPtr(spec);
  if (!schema.ok()) return false;
  regcube::StreamGenerator generator(spec);

  // Inputs, before any clock: the generated stream cut into per-tick
  // batches, and the point queries of the epilogue.
  std::vector<std::vector<std::vector<StreamTuple>>> batches(
      static_cast<std::size_t>(kTicks));
  std::int64_t timed_tuples = 0;
  for (StreamTuple& tuple : generator.GenerateStream()) {
    auto& tick = batches[static_cast<std::size_t>(tuple.tick)];
    if (tuple.tick >= kWarmupTicks) ++timed_tuples;
    if (tick.empty() || tick.back().size() == kBatch) {
      tick.emplace_back();
      tick.back().reserve(kBatch);
    }
    tick.back().push_back(std::move(tuple));
  }
  const regcube::CuboidLattice lattice(**schema);
  std::vector<std::vector<PointQuery>> points;
  for (int b = 0; b < kPointBatches; ++b) {
    points.push_back(MakePointQueries(lattice, generator.cells(),
                                      options.seed + b, kPointBatch));
  }

  report->Config("cells", kCells);
  report->Config("ticks", kTicks);
  report->Config("warmup_ticks", kWarmupTicks);
  report->Config("batch_tuples", static_cast<std::int64_t>(kBatch));
  report->Config("queue_capacity", kQueueCapacity);
  report->Config("backpressure", "block");
  report->Config("seal_every_ticks", kSealEvery);
  report->Config("restart_cycles_per_rep", kRestartCycles);
  report->Config("point_batches_per_cycle", kPointBatches);

  regcube::EngineBuilder builder = BaseBuilder(*schema, threads);
  builder.SetIngestMode(regcube::IngestMode::kAsync)
      .SetQueueCapacity(kQueueCapacity)
      .SetBackpressure(regcube::BackpressurePolicy::kBlock);
  const std::string ckpt_dir = options.work_dir + "/checkpoint";

  OpCounts& ops = report->ops;
  LayerStats layer;
  Samples setup_s, ingest_tps, visible_ms, restart_ms, drill_ms, point_us;
  SpeedProbes probes;
  std::vector<RepAnswers> answers;
  const Clock::time_point measure_start = Clock::now();
  while (answers.empty() ||
         (SecondsSince(measure_start) < options.seconds &&
          static_cast<int>(answers.size()) < kMaxReps)) {
    RepAnswers rep;
    double probe_seconds = 0;
    StreamRun run{&batches, &tracer,  &ops,    &layer,
                  nullptr,  &rep.deck, nullptr, &probe_seconds};

    for (int i = 0; i < 4; ++i) probes.Take();
    const double setup_start = Now();
    auto built = builder.Build();
    if (!built.ok()) return false;
    Engine engine = std::move(built).value();
    layer.last_spill = engine.SpillStats();
    IngestTicks(engine, 0, kWarmupTicks, run);
    setup_s.Add(Now() - setup_start, setup_start);

    run.visible_ms = &visible_ms;
    run.probes = &probes;
    const double ingest_start = Now();
    {
      tracer.SetRound(-1, "");
      ScopedSpan span(tracer, "stream.ingest_phase");
      IngestTicks(engine, kWarmupTicks, kTicks, run);
      ScopedSpan flush(tracer, "shard_writer.flush");
      const regcube::Status status = engine.Flush();
      ops.Record(Op::kTicket, status.ok(), status.ToString());
    }
    ingest_tps.Add(static_cast<double>(timed_tuples) /
                       (Now() - ingest_start - probe_seconds),
                   ingest_start);

    // kBlock must be lossless and Flush a full barrier.
    const regcube::IngestStats stats = engine.IngestStats();
    ops.Record(Op::kOracle,
               stats.total.dropped == 0 && stats.total.rejected == 0 &&
                   stats.total.absorb_errors == 0 &&
                   stats.total.absorbed == stats.total.enqueued,
               "ingest accounting not lossless after Flush");
    layer.queue_blocked.Add(static_cast<double>(stats.total.blocked));
    layer.queue_high_water.Add(static_cast<double>(stats.total.high_water));
    layer.queue_p99_enqueue_us.Add(stats.total.p99_enqueue_us);
    layer.absorbed.Add(static_cast<double>(stats.total.absorbed));
    layer.RecordPhaseEnd(engine);

    // Epilogue: restart the ingested engine and drill into it.
    for (int cycle = 0; cycle < kRestartCycles; ++cycle) {
      tracer.SetRound(cycle, "");
      std::unique_ptr<Engine> reopened;
      std::vector<regcube::CellResult> first;
      probes.Take();
      double start = Now();
      restart_ms.Add(RestartCycle(engine, builder, ckpt_dir, tracer, ops,
                                  &reopened, &first),
                     start);
      rep.reopened_top.push_back(DigestOf(first));
      if (reopened == nullptr) continue;
      Digest drills, point_answers;
      probes.Take();
      start = Now();
      drill_ms.Add(CuboidDrillSession(*reopened, tracer, ops, layer, drills),
                   start);
      for (const std::vector<PointQuery>& batch : points) {
        probes.Take();
        start = Now();
        point_us.Add(PointBatch(*reopened, batch, tracer, ops, point_answers),
                     start);
      }
      rep.reopened_drill.push_back(drills.value());
      rep.reopened_points.push_back(point_answers.value());
      reopened.reset();
      std::filesystem::remove_all(ckpt_dir);
    }
    auto top = engine.Query(QuerySpec::TopExceptions(kTopN, kLevel, kWindow));
    if (ops.Record(Op::kQuery, top.ok(),
                   top.ok() ? "" : top.status().ToString())) {
      rep.top = DigestOf(top->cells());
    }
    answers.push_back(std::move(rep));
  }
  const double peak_rss_mb = PeakRssMb();

  // Oracle: a sync engine fed the same stream on the same seal schedule.
  {
    auto built = BaseBuilder(*schema, ThreadBudget{1, false, 1}).Build();
    if (!built.ok()) return false;
    Engine oracle = std::move(built).value();
    std::uint64_t deck = 0;
    for (TimeTick t = 0; t < kTicks; ++t) {
      for (const auto& batch : batches[static_cast<std::size_t>(t)]) {
        const regcube::IngestReport ingest = oracle.IngestBatch(batch);
        ops.Record(Op::kReport, ingest.ok(), ingest.status.ToString());
      }
      if (!IsSealTick(t)) continue;
      ops.Record(Op::kSeal, oracle.SealThrough(t).ok(), "oracle seal");
      auto result = oracle.Query(QuerySpec::ObservationDeck(kLevel));
      if (ops.Record(Op::kQuery, result.ok(), "oracle deck")) {
        Digest digest;
        digest.Add(result->deck());
        deck = digest.value();
      }
    }
    auto top = oracle.Query(QuerySpec::TopExceptions(kTopN, kLevel, kWindow));
    std::vector<regcube::CellResult> top_cells;
    if (ops.Record(Op::kQuery, top.ok(), "oracle top")) top_cells = top->cells();
    Digest drills, point_answers;
    Tracer off(false);
    LayerStats unused;
    CuboidDrillSession(oracle, off, ops, unused, drills);
    for (const std::vector<PointQuery>& batch : points) {
      PointBatch(oracle, batch, off, ops, point_answers);
    }
    const std::uint64_t oracle_top = DigestOf(top_cells);
    for (const RepAnswers& rep : answers) {
      CheckEqual(ops, "stream deck", deck, rep.deck);
      CheckEqual(ops, "stream top", oracle_top, rep.top);
      for (std::size_t c = 0; c < rep.reopened_top.size(); ++c) {
        CheckEqual(ops, "reopened top", oracle_top, rep.reopened_top[c]);
      }
      for (std::size_t c = 0; c < rep.reopened_drill.size(); ++c) {
        CheckEqual(ops, "reopened drill", drills.value(),
                   rep.reopened_drill[c]);
        CheckEqual(ops, "reopened points", point_answers.value(),
                   rep.reopened_points[c]);
      }
    }
  }

  report->Config("reps", static_cast<std::int64_t>(answers.size()));
  ReportTimes(report, probes,
              {{"setup_s", "s", &setup_s, 50, false},
               {"ingest_tps", "1/s", &ingest_tps, 50, true},
               {"visible_ms", "ms", &visible_ms, 50, false},
               {"visible_p90_ms", "ms", &visible_ms, 90, false},
               {"drill_ms", "ms", &drill_ms, 50, false},
               {"point_us", "us", &point_us, 50, false},
               {"restart_ms", "ms", &restart_ms, 50, false}});
  report->EndToEnd("peak_rss_mb", "MB", peak_rss_mb);
  report->Config("visible_samples", static_cast<std::int64_t>(visible_ms.size()));
  report->Config("restart_samples", static_cast<std::int64_t>(restart_ms.size()));
  if (tracer.enabled()) EmitLayerMetrics(tracer, layer, report);
  return true;
}

}  // namespace perfbench
