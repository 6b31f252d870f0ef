// Shared machinery of optrt_bench: run options, what a workload hands
// back, the metric tables, statistics helpers, and the trace recorder that
// turns spans around calls into the library's public functions into
// per-layer numbers.
//
// Every number is measured from outside the library: a workload times the
// public calls it makes, and in a traced run wraps them in obs::TraceSpans
// named after the layer metric they feed. Nothing under src/ is changed or
// instrumented for the benchmark.
#pragma once

#include <chrono>
#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "obs/trace.hpp"

namespace optrt::bench {

using Clock = std::chrono::steady_clock;

[[nodiscard]] inline double seconds_since(Clock::time_point start) {
  return std::chrono::duration<double>(Clock::now() - start).count();
}

struct Options {
  std::string workload;  ///< empty = every workload, each in a child process
  std::uint64_t seed = 1996;
  double seconds = 20.0;  ///< measured seconds per workload, after warm-up
  bool smoke = false;     ///< n = 64, about 1 s per workload, gates still on
  /// core::ThreadPool default for every pool. Each round of ops runs on one
  /// CPU (see pin_process), so more threads only time-slice it.
  std::size_t threads = 1;
  std::string workdir = "optrt_bench.work";  ///< artifacts and sockets
  std::string trace_dir;  ///< empty = untraced
  std::size_t repeat = 1;
};

/// One reported number.
struct Metric {
  std::string name;
  double value = 0.0;
  std::string unit;
};

/// An end-to-end metric definition. BENCHMARK.json mirrors this table.
struct MetricDef {
  const char* name;
  const char* unit;
  double bound;  ///< relative regression tolerance
};

[[nodiscard]] const std::vector<MetricDef>& end_to_end_defs();

/// Records gate outcomes. A failed gate bumps `failed` and keeps the first
/// few details for stderr.
struct Gates {
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  std::vector<std::string> details;

  void fail(const std::string& detail);
  void merge(const Gates& other);
};

/// What one workload run hands back to the harness.
struct RunData {
  Gates gates;
  std::vector<double> setup_s;  ///< one per set-up
  std::vector<double> op_ms;    ///< one latency sample per measured op
  std::vector<double> ref_ms;   ///< one reference_ms() sample per round
  /// Measured ops (requests, catalog iterations, churn deltas, builds):
  /// the unit of ops_per_s and of every per-op layer metric.
  std::uint64_t ops = 0;
  /// Ops whose spans the traced run recorded (every op, except on the
  /// serving path, which traces one request in 16).
  std::uint64_t traced_ops = 0;
  /// Wall time of the measured phase, reference loops excluded.
  double measured_s = 0.0;
  /// Layer counts over the measured phase, keyed by layer metric name;
  /// reported per op.
  std::map<std::string, double> counts;
  /// Workload-specific numbers printed beside the end-to-end metrics but
  /// not compared (raw times, tails, split rates).
  std::vector<Metric> info;
};

/// Moves every thread of this process onto one CPU: the (slot mod count)-th
/// of the CPUs the process was allowed when this was first called. Threads
/// created afterwards inherit the placement.
///
/// On a shared VM each vCPU's speed changes for seconds at a time with what
/// the host runs beside it: one catalog op took 138 ms on one vCPU and
/// 196 ms on another a minute later. Rotating the CPU from round to round
/// spreads every run, and its reference passes, evenly over all of them.
void pin_process(std::size_t slot);

/// Times one pass of a fixed piece of work that is not the library's:
/// build a hash map of 2^15 seeded keys, look each up twice, allocate and
/// free 2048 small vectors, sort the keys. Like the workloads' ops it
/// allocates, hashes and reads memory at random, so a slower host slows it
/// too; op_p50_ref divides by its median to cancel the host's drift over
/// minutes. Returns milliseconds.
[[nodiscard]] double reference_ms();

/// The traced run's recorder: an obs::Trace plus the intervals that
/// separate set-up spans from measured spans (warm-up spans fall in
/// neither and are dropped).
class Tracer {
 public:
  explicit Tracer(bool enabled);

  /// nullptr when untraced; obs::TraceSpan(nullptr, …) is a no-op.
  [[nodiscard]] obs::Trace* trace() const noexcept { return trace_.get(); }

  /// Marks [begin, end) as one set-up, or as measured time whose spans
  /// feed the per-op layer metrics.
  void add_setup(Clock::time_point begin, Clock::time_point end);
  void add_measure(Clock::time_point begin, Clock::time_point end);

  struct SpanStats {
    std::uint64_t count = 0;
    std::uint64_t total_ns = 0;
    std::uint64_t self_ns = 0;
    std::vector<std::uint64_t> durations_ns;
  };
  struct Summary {
    std::map<std::string, SpanStats> measured;
    /// Per set-up: span name → total ns inside that set-up.
    std::vector<std::map<std::string, std::uint64_t>> setups;
  };
  /// Aggregates recorded events; self time is a span's duration minus
  /// the direct children nested inside it on the same thread (events carry
  /// tid and depth but no parent id, so containment decides).
  [[nodiscard]] Summary summarize() const;

 private:
  using Interval = std::pair<std::uint64_t, std::uint64_t>;
  /// The interval in the trace's own clock (ns since its construction).
  [[nodiscard]] Interval to_trace(Clock::time_point begin,
                                  Clock::time_point end) const;

  std::unique_ptr<obs::Trace> trace_;
  std::vector<Interval> setups_;
  std::vector<Interval> windows_;
};

/// Span name for a per-kind layer metric, e.g. "model.compile_fast_us.tz".
/// Interned: the returned pointer stays valid for the process lifetime, as
/// obs::TraceSpan requires.
[[nodiscard]] const char* kind_span(const std::string& base,
                                    const std::string& kind);

/// The eight scheme kinds the catalog serves, in report order.
[[nodiscard]] const std::vector<std::string>& scheme_kinds();

/// End-to-end metrics of a run (tracing off, or the traced run's own).
/// op_p50_ref is the median op time over the median reference pass of the
/// same run: the op's cost in units of fixed work timed on the same CPUs
/// in the same seconds.
[[nodiscard]] std::vector<Metric> end_to_end_metrics(const RunData& data);

/// The raw wall-time views of a run: median op time, median reference
/// time, and ops completed per second of the measured phase. Printed, not
/// compared: they move with the host's load, which op_p50_ref cancels.
[[nodiscard]] std::vector<Metric> raw_time_metrics(const RunData& data);

/// Every per-layer metric, computed from the traced run's summary. Layers
/// a workload bypasses read 0: no time spent, no work counted.
[[nodiscard]] std::vector<Metric> per_layer_metrics(
    const RunData& data, const Tracer::Summary& summary);

/// Writes DIR/W.trace.json (Chrome format) and DIR/W.layers.json (count,
/// total_ns, p50, p99 and self_ns per span name, plus the traced run's
/// end-to-end metrics).
void write_trace_files(const std::string& dir, const std::string& workload,
                       const Tracer& tracer, const Tracer::Summary& summary,
                       const std::vector<Metric>& e2e);

/// Linear-interpolated quantile of `values` (q in [0, 1]); 0 when empty.
[[nodiscard]] double quantile(std::vector<double> values, double q);

/// Interquartile range over the median, with quartiles taken as Python's
/// statistics.quantiles(values, n=4) gives them (the "exclusive" method).
[[nodiscard]] double quartile_spread(std::vector<double> values);

/// Peak resident set of this process in MiB.
[[nodiscard]] double peak_rss_mb();

/// Build type, compiler, CPU, thread settings, git revision and seed, as
/// one JSON object. Warns on stderr when the build is not optimized.
[[nodiscard]] std::string environment_json(const Options& opt, double wall_s);

/// Result line in the benchmark contract's form:
/// {"correct":…,"attempted":…,"failed":…,"metrics":{name:{value,unit}}}.
[[nodiscard]] std::string result_json(const Gates& gates,
                                      const std::vector<Metric>& metrics);

}  // namespace optrt::bench
