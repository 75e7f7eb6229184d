// Measurement plumbing shared by the perfbench workloads: a wall clock, an
// in-memory span recorder, the tail-quantile rule, the per-operation oracle tally
// and the result a workload hands back to main.cpp.
//
// Spans are recorded only by the benchmark's own files, around its calls
// into the library's public functions; nothing inside src/ is instrumented.
// Recording is off unless the run was started with --trace 1, and every
// span is opened and closed on the main thread.
#pragma once

#include <cstdint>
#include <map>
#include <string>
#include <utility>
#include <vector>

namespace perfbench {

/// Monotonic wall clock in milliseconds.
double now_ms();

/// Peak resident set size of this process so far, in MiB.
double peak_rss_mb();

class Tracer {
 public:
  struct Span {
    const char* name = "";
    double start_ms = 0.0;
    double end_ms = 0.0;
    int parent = -1;  // index of the enclosing span, -1 at the root
  };
  /// Per-name totals. self_ms is the span time not covered by child spans.
  struct Totals {
    std::int64_t count = 0;
    double total_ms = 0.0;
    double self_ms = 0.0;
  };

  bool enabled() const { return enabled_; }
  void set_enabled(bool on) { enabled_ = on; }

  /// Opens a span and returns its index (-1 when recording is off).
  int open(const char* name);
  void close(int index);

  void clear();
  /// Number of spans recorded so far (a mark for root_ms_since).
  std::size_t size() const { return spans_.size(); }

  std::map<std::string, Totals> totals() const;
  /// Summed self time of the spans recorded since mark `first`, which
  /// equals the summed time of the root spans among them.
  double root_ms_since(std::size_t first) const;

 private:
  bool enabled_ = false;
  std::vector<Span> spans_;
  std::vector<int> stack_;
};

Tracer& tracer();

/// RAII span around one call into a layer.
class ScopedSpan {
 public:
  explicit ScopedSpan(const char* name) : index_(tracer().open(name)) {}
  ~ScopedSpan() { tracer().close(index_); }
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;

 private:
  int index_;
};

/// Mean span duration of `name` in the recorder (0 when absent).
double span_mean_ms(const std::map<std::string, Tracer::Totals>& totals,
                    const std::string& name);
double span_self_ms(const std::map<std::string, Tracer::Totals>& totals,
                    const std::string& name);
std::int64_t span_count(const std::map<std::string, Tracer::Totals>& totals,
                        const std::string& name);

/// The highest of p99 / p90 / p50 (as a util::percentile argument) that
/// still has at least ten samples beyond it for a sample of size n.
double tail_p(std::size_t n);

/// Counts operations and those whose output failed its oracle or raised.
struct Tally {
  std::int64_t attempted = 0;
  std::int64_t failed = 0;
  void record(bool ok) {
    ++attempted;
    if (!ok) ++failed;
  }
};

/// Metrics keyed by name, with units, in insertion order.
class MetricSet {
 public:
  void set(const std::string& name, double value, const std::string& unit);
  bool has(const std::string& name) const;
  double get(const std::string& name) const;
  void merge(const MetricSet& other);  // adds names not present yet
  /// {"name": {"value": v, "unit": "u"}, ...}
  std::string to_json() const;

 private:
  std::vector<std::pair<std::string, std::pair<double, std::string>>> items_;
};

/// What a workload hands back to main.cpp.
struct Outcome {
  Tally tally;
  MetricSet end_to_end;   // the generic gated metrics (untraced runs)
  MetricSet named;        // the workload's own metric names, for the detail line
  MetricSet layers;       // per-layer metrics (traced runs)
};

/// Options every workload receives.
struct RunOptions {
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  std::string work_dir;  // private to the run; run.py removes it
  std::string data_dir;     // the benchmark's directory (recorded oracles)
};

}  // namespace perfbench
