#ifndef PERFBENCH_BENCH_H_
#define PERFBENCH_BENCH_H_

// Shared vocabulary of the regcube benchmark: run options, sample sets,
// operation accounting, the span recorder, answer digests and the run
// report every workload fills in.

#include <array>
#include <chrono>
#include <cstdint>
#include <string>
#include <utility>
#include <vector>

#include "regcube/api/regcube.h"

namespace perfbench {

using Clock = std::chrono::steady_clock;

inline double SecondsSince(Clock::time_point start) {
  return std::chrono::duration<double>(Clock::now() - start).count();
}

struct Options {
  std::string workload;
  std::uint64_t seed = 1;
  int seconds = 10;
  bool trace = false;
  std::string work_dir;  // spill segments and checkpoints; removed at exit
  int nproc = 1;
};

/// Seconds since the process's clock origin; samples and probes carry it.
double Now();

class SpeedProbes;

/// A bag of measurements, each stamped with the interval it covers;
/// percentiles are nearest-rank on a sorted copy.
class Samples {
 public:
  /// Adds a sample covering [start, now]; a negative start means now.
  void Add(double v, double start = -1);
  std::size_t size() const { return values_.size(); }
  bool empty() const { return values_.empty(); }
  /// q in [0, 100]; 0 when empty.
  double Percentile(double q) const;
  double Median() const { return Percentile(50); }
  double Mean() const;
  /// The samples at the reference machine speed: each time is divided by
  /// the slowdown the probes saw around it (a rate is multiplied by it).
  Samples AtReferenceSpeed(const SpeedProbes& probes, bool rate) const;

 private:
  std::vector<double> values_;
  std::vector<double> starts_, ends_;
};

/// The machine's own speed, measured next to the workload. The benchmark
/// runs on shared machines whose speed swings by up to 2-3x for seconds at
/// a time (other tenants' load), which no amount of averaging inside one
/// run removes. So a fixed probe kernel (random reads over 16 MB plus hash
/// map inserts, ~2 ms) runs at idle points between timed operations, and
/// every end-to-end time is divided by the probes' slowdown around it:
/// probe median over kReferenceProbeMs.
inline constexpr double kReferenceProbeMs = 2.0;

class SpeedProbes {
 public:
  /// Runs the probe kernel once (the engine must be idle) and records it.
  void Take();
  /// Probe slowdown over [start, end]: the median of the probes taken in
  /// that window widened by half a second (at least the 7 nearest ones),
  /// over kReferenceProbeMs. 1 when no probe was taken.
  double Slowdown(double start, double end) const;
  double MedianMs() const;
  std::size_t size() const { return ms_.size(); }

 private:
  std::vector<double> times_, ms_;
};

/// Every operation the benchmark hands the engine, by kind. A failure is a
/// non-OK status, a dropped or rejected tuple, or an oracle mismatch.
enum class Op { kTicket, kReport, kSeal, kQuery, kCheckpoint, kOpen, kOracle };
inline constexpr int kNumOps = 7;
const char* OpName(Op op);

struct OpCounts {
  std::array<std::int64_t, kNumOps> attempted{};
  std::array<std::int64_t, kNumOps> failed{};
  std::vector<std::string> first_failures;  // a few messages for the log

  /// Records one operation; returns `ok` so callers can branch on it.
  bool Record(Op op, bool ok, const std::string& what = "");
  std::int64_t TotalAttempted() const;
  std::int64_t TotalFailed() const;
};

/// Records spans (name, start, end, parent, round, tag) in memory when
/// tracing is on; every call is a no-op when it is off. The benchmark runs
/// its engine calls from one thread, so the open-span stack gives parents.
class Tracer {
 public:
  struct Span {
    const char* name;
    std::int64_t start_ns;
    std::int64_t end_ns;
    int parent;
    std::int64_t round;
    const char* tag;
  };

  explicit Tracer(bool enabled);
  bool enabled() const { return enabled_; }

  /// Round id and cause tag ("steady", "roll", or "") stamped on every
  /// span opened from now on.
  void SetRound(std::int64_t round, const char* tag) {
    round_ = round;
    tag_ = tag;
  }

  int Begin(const char* name);
  void End(int id);

  const std::vector<Span>& spans() const { return spans_; }

  /// Durations in microseconds of every span called `name` (and, when
  /// `tag` is non-null, carrying that tag).
  Samples Durations(const char* name, const char* tag = nullptr) const;

  /// Per span name: count, total and self time (duration minus the part
  /// its children cover), in seconds.
  struct SelfTime {
    std::string name;
    std::int64_t count = 0;
    double total_s = 0;
    double self_s = 0;
  };
  std::vector<SelfTime> SelfTimes() const;

  /// Tab-separated dump, one span per line.
  bool WriteTsv(const std::string& path) const;

 private:
  bool enabled_;
  Clock::time_point origin_;
  std::vector<Span> spans_;
  std::vector<int> open_;
  std::int64_t round_ = -1;
  const char* tag_ = "";
};

class ScopedSpan {
 public:
  ScopedSpan(Tracer& tracer, const char* name)
      : tracer_(tracer), id_(tracer.Begin(name)) {}
  ~ScopedSpan() { tracer_.End(id_); }
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;

 private:
  Tracer& tracer_;
  int id_;
};

/// Lexicographic order on cell keys (a canonical order for answers whose
/// own order may differ between equal engines).
bool KeyLess(const regcube::CellKey& a, const regcube::CellKey& b);

/// FNV-1a over the exact bits of query answers: two answers digest equal
/// iff they are bit-identical (up to hash collisions).
class Digest {
 public:
  void Add(std::uint64_t v);
  void Add(double v);
  void Add(const regcube::CellKey& key);
  void Add(const regcube::Isb& isb);
  /// Order-insensitive over cells: sorted by (cuboid, key) first, so ties
  /// in an answer's ranking cannot make equal answers differ.
  void Add(std::vector<regcube::CellResult> cells);
  void Add(const regcube::QueryResult::DeckSeries& deck);
  std::uint64_t value() const { return h_; }

 private:
  std::uint64_t h_ = 1469598103934665603ull;
};

struct Metric {
  std::string name;
  std::string unit;
  double value = 0;
};

/// What one run hands back to main: configuration, the end-to-end and
/// per-layer metrics, and the operation accounting.
struct RunReport {
  std::vector<std::pair<std::string, std::string>> config;
  std::vector<Metric> end_to_end;
  std::vector<Metric> per_layer;
  std::vector<Metric> wall;  // end-to-end times before speed correction
  std::vector<std::string> not_driven;  // per-layer metrics left at 0
  OpCounts ops;

  void Config(const std::string& key, const std::string& value) {
    config.emplace_back(key, value);
  }
  void Config(const std::string& key, std::int64_t value) {
    config.emplace_back(key, std::to_string(value));
  }
  void EndToEnd(const std::string& name, const std::string& unit,
                double value) {
    end_to_end.push_back({name, unit, value});
  }
  /// Per-layer metric; `driven` false records it as 0 and lists it as not
  /// reached by this workload.
  void Layer(const std::string& name, const std::string& unit, double value,
             bool driven = true);
};

/// Peak resident set of this process so far, in MB.
double PeakRssMb();

inline double ToMb(std::int64_t bytes) {
  return static_cast<double>(bytes) / (1024.0 * 1024.0);
}

/// The threads a workload runs: the producer (this thread), the async
/// shard-owner threads and the read pool's workers (width 1 means no pool:
/// reads run on the producer).
struct ThreadBudget {
  int shards = 1;
  bool async_owners = false;
  int read_threads = 1;
  int Total() const {
    return 1 + (async_owners ? shards : 0) +
           (read_threads > 1 ? read_threads : 0);
  }
};

/// Fails (returns false) when the workload would run more threads than the
/// machine has CPUs; records the counts in the report either way.
bool CheckThreadBudget(const ThreadBudget& budget, const Options& options,
                       RunReport* report);

// Workloads. Each returns false on a setup failure it cannot report as a
// counted operation (the caller prints no result then).
bool RunStream(const Options& options, Tracer& tracer, RunReport* report);
bool RunDrill(const Options& options, Tracer& tracer, RunReport* report);
bool RunCold(const Options& options, Tracer& tracer, RunReport* report);

}  // namespace perfbench

#endif  // PERFBENCH_BENCH_H_
