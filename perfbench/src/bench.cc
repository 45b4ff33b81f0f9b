#include "bench.h"

#include <sys/resource.h>

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <map>
#include <unordered_map>

namespace perfbench {

double Now() {
  static const Clock::time_point origin = Clock::now();
  return SecondsSince(origin);
}

void Samples::Add(double v, double start) {
  const double end = Now();
  values_.push_back(v);
  starts_.push_back(start < 0 ? end : start);
  ends_.push_back(end);
}

Samples Samples::AtReferenceSpeed(const SpeedProbes& probes,
                                  bool rate) const {
  Samples out;
  for (std::size_t i = 0; i < values_.size(); ++i) {
    const double slowdown = probes.Slowdown(starts_[i], ends_[i]);
    out.values_.push_back(rate ? values_[i] * slowdown
                               : values_[i] / slowdown);
    out.starts_.push_back(starts_[i]);
    out.ends_.push_back(ends_[i]);
  }
  return out;
}

namespace {

double MedianOf(std::vector<double> v) {
  if (v.empty()) return 0;
  std::nth_element(v.begin(), v.begin() + v.size() / 2, v.end());
  return v[v.size() / 2];
}

}  // namespace

namespace {

// The probe kernel: 50k random reads over a 16 MB buffer plus 15k hash-map
// inserts. Returns a value derived from all reads so none is optimized away.
std::uint64_t ProbeKernel() {
  static const std::vector<std::uint64_t> buffer = [] {
    std::vector<std::uint64_t> b(std::size_t{1} << 21);  // 16 MB
    for (std::size_t i = 0; i < b.size(); ++i) {
      b[i] = i * 0x9e3779b97f4a7c15ull;
    }
    return b;
  }();
  std::uint64_t x = 88172645463325252ull, sum = 0;
  for (int i = 0; i < 50000; ++i) {
    x ^= x << 13;
    x ^= x >> 7;
    x ^= x << 17;
    sum += buffer[x & (buffer.size() - 1)];
  }
  std::unordered_map<std::uint64_t, std::uint64_t> map;
  for (int i = 0; i < 15000; ++i) {
    x = x * 6364136223846793005ull + 1442695040888963407ull;
    map[x >> 49] += static_cast<std::uint64_t>(i);
  }
  return sum + map.size();
}

}  // namespace

void SpeedProbes::Take() {
  // The first pass reloads the buffer into cache, whatever the engine's
  // last call evicted; only the second is timed. So the probe sees the
  // machine's speed, not the cache footprint of the code under test.
  std::uint64_t result = ProbeKernel();
  const double start = Now();
  result += ProbeKernel();
  const double end = Now();
  if (result == 42) std::fputs("", stderr);  // keeps the kernel's result live
  times_.push_back(end);
  ms_.push_back((end - start) * 1e3);
}

double SpeedProbes::Slowdown(double start, double end) const {
  if (ms_.empty()) return 1.0;
  std::vector<double> window;
  for (std::size_t i = 0; i < ms_.size(); ++i) {
    if (times_[i] >= start - 0.5 && times_[i] <= end + 0.5) {
      window.push_back(ms_[i]);
    }
  }
  if (window.size() < 7) {
    // Too few inside the window: the 7 probes nearest its midpoint.
    const double mid = (start + end) / 2;
    std::vector<std::size_t> order(ms_.size());
    for (std::size_t i = 0; i < order.size(); ++i) order[i] = i;
    const std::size_t k = std::min<std::size_t>(7, order.size());
    std::partial_sort(order.begin(), order.begin() + k, order.end(),
                      [&](std::size_t a, std::size_t b) {
                        return std::fabs(times_[a] - mid) <
                               std::fabs(times_[b] - mid);
                      });
    window.clear();
    for (std::size_t i = 0; i < k; ++i) window.push_back(ms_[order[i]]);
  }
  return MedianOf(std::move(window)) / kReferenceProbeMs;
}

double SpeedProbes::MedianMs() const { return MedianOf(ms_); }

double Samples::Percentile(double q) const {
  if (values_.empty()) return 0;
  std::vector<double> sorted = values_;
  std::sort(sorted.begin(), sorted.end());
  const double rank = std::ceil(std::clamp(q, 0.0, 100.0) / 100.0 *
                                static_cast<double>(sorted.size()));
  const std::size_t index =
      rank < 1 ? 0 : static_cast<std::size_t>(rank) - 1;
  return sorted[std::min(index, sorted.size() - 1)];
}

double Samples::Mean() const {
  if (values_.empty()) return 0;
  double sum = 0;
  for (double v : values_) sum += v;
  return sum / static_cast<double>(values_.size());
}

const char* OpName(Op op) {
  switch (op) {
    case Op::kTicket: return "tickets";
    case Op::kReport: return "reports";
    case Op::kSeal: return "seals";
    case Op::kQuery: return "queries";
    case Op::kCheckpoint: return "checkpoints";
    case Op::kOpen: return "opens";
    case Op::kOracle: return "oracle_checks";
  }
  return "?";
}

bool OpCounts::Record(Op op, bool ok, const std::string& what) {
  const auto i = static_cast<std::size_t>(op);
  ++attempted[i];
  if (!ok) {
    ++failed[i];
    if (first_failures.size() < 8) {
      first_failures.push_back(std::string(OpName(op)) + ": " + what);
    }
  }
  return ok;
}

std::int64_t OpCounts::TotalAttempted() const {
  std::int64_t total = 0;
  for (std::int64_t n : attempted) total += n;
  return total;
}

std::int64_t OpCounts::TotalFailed() const {
  std::int64_t total = 0;
  for (std::int64_t n : failed) total += n;
  return total;
}

Tracer::Tracer(bool enabled) : enabled_(enabled), origin_(Clock::now()) {
  if (enabled_) spans_.reserve(1 << 20);
}

int Tracer::Begin(const char* name) {
  if (!enabled_) return -1;
  const int id = static_cast<int>(spans_.size());
  const std::int64_t now =
      std::chrono::duration_cast<std::chrono::nanoseconds>(Clock::now() -
                                                           origin_)
          .count();
  spans_.push_back(
      Span{name, now, now, open_.empty() ? -1 : open_.back(), round_, tag_});
  open_.push_back(id);
  return id;
}

void Tracer::End(int id) {
  if (id < 0) return;
  spans_[static_cast<std::size_t>(id)].end_ns =
      std::chrono::duration_cast<std::chrono::nanoseconds>(Clock::now() -
                                                           origin_)
          .count();
  if (!open_.empty() && open_.back() == id) open_.pop_back();
}

Samples Tracer::Durations(const char* name, const char* tag) const {
  Samples out;
  for (const Span& span : spans_) {
    if (std::strcmp(span.name, name) != 0) continue;
    if (tag != nullptr && std::strcmp(span.tag, tag) != 0) continue;
    out.Add(static_cast<double>(span.end_ns - span.start_ns) / 1e3);
  }
  return out;
}

std::vector<Tracer::SelfTime> Tracer::SelfTimes() const {
  std::vector<std::int64_t> self(spans_.size());
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    self[i] = spans_[i].end_ns - spans_[i].start_ns;
  }
  for (const Span& span : spans_) {
    if (span.parent >= 0) {
      self[static_cast<std::size_t>(span.parent)] -=
          span.end_ns - span.start_ns;
    }
  }
  std::map<std::string, SelfTime> by_name;
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    SelfTime& entry = by_name[spans_[i].name];
    entry.name = spans_[i].name;
    ++entry.count;
    entry.total_s +=
        static_cast<double>(spans_[i].end_ns - spans_[i].start_ns) / 1e9;
    entry.self_s += static_cast<double>(std::max<std::int64_t>(0, self[i])) /
                    1e9;
  }
  std::vector<SelfTime> out;
  for (auto& [name, entry] : by_name) out.push_back(entry);
  return out;
}

bool Tracer::WriteTsv(const std::string& path) const {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) return false;
  std::fprintf(f, "id\tname\tstart_ns\tend_ns\tparent\tround\ttag\n");
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    const Span& s = spans_[i];
    std::fprintf(f, "%zu\t%s\t%lld\t%lld\t%d\t%lld\t%s\n", i, s.name,
                 static_cast<long long>(s.start_ns),
                 static_cast<long long>(s.end_ns), s.parent,
                 static_cast<long long>(s.round), s.tag);
  }
  return std::fclose(f) == 0;
}

void Digest::Add(std::uint64_t v) {
  for (int i = 0; i < 8; ++i) {
    h_ ^= (v >> (8 * i)) & 0xff;
    h_ *= 1099511628211ull;
  }
}

void Digest::Add(double v) { Add(std::bit_cast<std::uint64_t>(v)); }

void Digest::Add(const regcube::CellKey& key) {
  Add(static_cast<std::uint64_t>(key.num_dims()));
  for (int d = 0; d < key.num_dims(); ++d) {
    Add(static_cast<std::uint64_t>(key[d]));
  }
}

void Digest::Add(const regcube::Isb& isb) {
  Add(static_cast<std::uint64_t>(isb.interval.tb));
  Add(static_cast<std::uint64_t>(isb.interval.te));
  Add(isb.base);
  Add(isb.slope);
}

bool KeyLess(const regcube::CellKey& a, const regcube::CellKey& b) {
  for (int d = 0; d < std::min(a.num_dims(), b.num_dims()); ++d) {
    if (a[d] != b[d]) return a[d] < b[d];
  }
  return a.num_dims() < b.num_dims();
}

void Digest::Add(std::vector<regcube::CellResult> cells) {
  std::sort(cells.begin(), cells.end(),
            [](const regcube::CellResult& a, const regcube::CellResult& b) {
              if (a.cuboid != b.cuboid) return a.cuboid < b.cuboid;
              return KeyLess(a.key, b.key);
            });
  Add(static_cast<std::uint64_t>(cells.size()));
  for (const regcube::CellResult& cell : cells) {
    Add(static_cast<std::uint64_t>(cell.cuboid));
    Add(cell.key);
    Add(cell.isb);
    Add(static_cast<std::uint64_t>(cell.is_exception));
  }
}

void Digest::Add(const regcube::QueryResult::DeckSeries& deck) {
  std::vector<const regcube::CellKey*> keys;
  keys.reserve(deck.size());
  for (const auto& entry : deck) keys.push_back(&entry.first);
  std::sort(keys.begin(), keys.end(),
            [](const regcube::CellKey* a, const regcube::CellKey* b) {
              return KeyLess(*a, *b);
            });
  Add(static_cast<std::uint64_t>(keys.size()));
  for (const regcube::CellKey* key : keys) {
    Add(*key);
    const std::vector<regcube::Isb>& series = deck.at(*key);
    Add(static_cast<std::uint64_t>(series.size()));
    for (const regcube::Isb& isb : series) Add(isb);
  }
}

void RunReport::Layer(const std::string& name, const std::string& unit,
                      double value, bool driven) {
  per_layer.push_back({name, unit, driven ? value : 0.0});
  if (!driven) not_driven.push_back(name);
}

double PeakRssMb() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // ru_maxrss is KiB
}

bool CheckThreadBudget(const ThreadBudget& budget, const Options& options,
                       RunReport* report) {
  report->Config("nproc", options.nproc);
  report->Config("shards", budget.shards);
  report->Config("owner_threads", budget.async_owners ? budget.shards : 0);
  report->Config("read_threads", budget.read_threads);
  report->Config("threads", budget.Total());
  if (budget.Total() > options.nproc) {
    std::fprintf(stderr,
                 "perfbench: workload %s needs %d threads but nproc is %d\n",
                 options.workload.c_str(), budget.Total(), options.nproc);
    return false;
  }
  return true;
}

}  // namespace perfbench
