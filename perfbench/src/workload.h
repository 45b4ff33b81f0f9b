#ifndef PERFBENCH_WORKLOAD_H_
#define PERFBENCH_WORKLOAD_H_

// What the three workloads share: the schema and tilt policy, the query
// window, point-query inputs, the per-layer accumulators and the calls
// every workload makes the same way (drill session, point batch, restart
// cycle).

#include <memory>
#include <string>
#include <vector>

#include "bench.h"

namespace perfbench {

// Tilt policy: level 0 = 4-tick units (8 kept), level 1 = 16-tick units
// (8 kept). A level-0 unit ends on every 4th tick, which is what makes
// every 4th drill round an epoch roll of the maintained cube's window.
inline constexpr regcube::TimeTick kLevel0Width = 4;
inline constexpr regcube::TimeTick kLevel1Width = 16;
// Cube-side queries read the last kWindow sealed level-0 slots.
inline constexpr int kLevel = 0;
inline constexpr int kWindow = 4;
inline constexpr std::size_t kTopN = 5;
inline constexpr double kExceptionThreshold = 0.05;
inline constexpr int kPointBatch = 64;

/// True iff a level-0 unit ends at `t`: sealing through `t` seals a new
/// level-0 slot and rolls the cube window.
inline bool IsRollTick(regcube::TimeTick t) {
  return (t + 1) % kLevel0Width == 0;
}

/// D3L2C10 with `cells` m-layer cells and `ticks` ticks of series.
regcube::WorkloadSpec MakeSpec(std::uint64_t seed, std::int64_t cells,
                               std::int64_t ticks);

/// The builder every workload starts from: schema, tilt policy, exception
/// policy, shard count and read-pool width set explicitly.
regcube::EngineBuilder BaseBuilder(
    std::shared_ptr<const regcube::CubeSchema> schema,
    const ThreadBudget& threads);

struct PointQuery {
  regcube::CuboidId cuboid;
  regcube::CellKey key;
};

/// `n` point queries on random cuboids, each keyed by the projection of a
/// random generated cell (so every queried cell has members).
std::vector<PointQuery> MakePointQueries(
    const regcube::CuboidLattice& lattice,
    const std::vector<regcube::StreamGenerator::CellParams>& cells,
    std::uint64_t seed, int n);

/// Per-layer observations a workload accumulates; EmitLayerMetrics turns
/// them, with the tracer's spans, into the per-layer metric list.
struct LayerStats {
  // Ingest queues, per async phase (IngestStats after the final Flush).
  Samples queue_blocked, queue_high_water, queue_p99_enqueue_us, absorbed;
  // GatherStats of each TakeSnapshot.
  Samples gather_cells, gather_materialized, gather_copied_mb,
      gather_shards_reused;
  Samples drilldown_cells;  // cells returned per DrillDown
  // SpillStats deltas per round (or seal step).
  Samples enforcements, spill_evictions, cache_evictions, evicted_mb,
      fault_ins, fault_in_mb, spilled_mb;
  // SpillStats at the end of each engine's timed phase.
  Samples fault_in_p99_us, disk_mb, compactions;
  // MemoryReport at each round end.
  Samples tilt_mb, frozen_mb, gather_cache_mb, memo_mb, queue_mb;

  regcube::SpillStats last_spill;  // baseline for the next delta

  void RecordSnapshot(const regcube::CubeSnapshot& snapshot);
  /// Round-end sample of SpillStats deltas and the memory report.
  void RecordRoundEnd(const regcube::Engine& engine);
  void RecordPhaseEnd(const regcube::Engine& engine);
};

void EmitLayerMetrics(const Tracer& tracer, const LayerStats& layer,
                      RunReport* report);

struct TimeMetric {
  const char* name;
  const char* unit;
  const Samples* samples;
  double quantile;
  bool rate;  // higher is better: scaled up, not down, by the slowdown
};

/// Reports each metric's quantile at the reference machine speed as the
/// end-to-end value, and its plain wall-clock quantile alongside.
void ReportTimes(RunReport* report, const SpeedProbes& probes,
                 const std::vector<TimeMetric>& metrics);

/// Prints the self-time table of every span name to stdout.
void PrintSelfTimes(const Tracer& tracer);

/// One DrillDown per cell of `top`; returns the session's wall time in ms
/// and folds every answer into `digest`.
double DrillSession(regcube::Engine& engine,
                    const std::vector<regcube::CellResult>& top,
                    Tracer& tracer, OpCounts& ops, LayerStats& layer,
                    Digest& digest);

/// Runs `points` as kCell queries; returns the mean latency per query in
/// microseconds (the batch is timed as a whole).
double PointBatch(regcube::Engine& engine,
                  const std::vector<PointQuery>& points, Tracer& tracer,
                  OpCounts& ops, Digest& digest);

/// Checkpoint -> OpenFrom -> first TopExceptions. Returns the restart time
/// in ms, hands back the reopened engine and folds its first answer into
/// `first_answer`. The checkpoint directory is emptied first.
double RestartCycle(regcube::Engine& engine,
                    const regcube::EngineBuilder& reopen,
                    const std::string& dir, Tracer& tracer, OpCounts& ops,
                    std::unique_ptr<regcube::Engine>* reopened,
                    std::vector<regcube::CellResult>* first_answer);

/// Checks `actual` against `expected` as one oracle operation.
void CheckEqual(OpCounts& ops, const std::string& what,
                std::uint64_t expected, std::uint64_t actual);

std::uint64_t DigestOf(const std::vector<regcube::CellResult>& cells);

}  // namespace perfbench

#endif  // PERFBENCH_WORKLOAD_H_
