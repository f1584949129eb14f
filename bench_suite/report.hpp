// Measurement vocabulary of the benchmark suite: the fixed metric tables
// (end-to-end and per-layer, mirrored in BENCHMARK.json), order
// statistics, the benchmark's own span log, and the Report a workload
// fills and main() prints.
#pragma once

#include <map>
#include <mutex>
#include <optional>
#include <string>
#include <vector>

#include "util/common.hpp"
#include "util/thread_annotations.hpp"
#include "util/timer.hpp"

namespace gc::bench {

/// One metric of the fixed tables (BENCHMARK.json adds its direction).
struct MetricDef {
  const char* name;
  const char* unit;
};

/// Median, quartiles and tail of a sample (linear interpolation between
/// order statistics).
struct Summary {
  double median = 0, p25 = 0, p75 = 0, p90 = 0, p95 = 0;
  i64 n = 0;
};
Summary summarize(std::vector<double> samples);

/// Spans the benchmark records around its calls into the library: name,
/// start, end, the span that caused it and the request it belongs to. They
/// stay in memory and are written once, at exit. Kept apart from
/// obs::TraceRecorder on purpose: the recorder's names are the library's
/// span canon, these name the public entry points the suite times.
class SpanLog {
 public:
  explicit SpanLog(bool enabled) : enabled_(enabled) {}

  bool enabled() const { return enabled_; }
  /// Microseconds since the log was created (steady clock).
  double now_us() const { return clock_.seconds() * 1e6; }

  /// Records a finished span (no-op when disabled).
  void record(const std::string& name, double t0_us, double t1_us,
              i64 parent = 0, i64 request = 0) GC_EXCLUDES(mu_);

  /// Times one call: the span nests under the innermost open Scope of the
  /// same thread.
  class Scope {
   public:
    Scope(SpanLog& log, const char* name, i64 request = 0);
    ~Scope();
    Scope(const Scope&) = delete;
    Scope& operator=(const Scope&) = delete;

   private:
    SpanLog& log_;
    const char* name_;
    i64 request_;
    i64 id_ = 0;
    i64 parent_ = 0;
    double t0_us_ = 0;
  };

  /// Chrome-trace JSON of every span (args carry id, parent and request).
  void write_chrome_trace(const std::string& path) const GC_EXCLUDES(mu_);

 private:
  struct Span {
    std::string name;
    double t0_us, t1_us;
    i64 id, parent, request;
  };
  i64 next_id() GC_EXCLUDES(mu_);

  bool enabled_;
  Timer clock_;
  mutable std::mutex mu_;
  std::vector<Span> spans_ GC_GUARDED_BY(mu_);
  i64 ids_ GC_GUARDED_BY(mu_) = 0;
};

/// Everything one workload run measured and checked.
class Report {
 public:
  explicit Report(std::string workload) : workload_(std::move(workload)) {}

  /// Sets a metric from the tables (an unknown name is a bug and throws).
  void set(const std::string& name, double value);
  /// Sets a metric to the median of `samples` and keeps the distribution.
  void set_dist(const std::string& name, const std::vector<double>& samples);
  double get(const std::string& name) const;

  /// A correctness gate: a failed gate fails the run.
  void gate(const std::string& name, bool ok, const std::string& detail);
  bool correct() const;

  i64 attempted = 0;
  i64 failed = 0;

  /// `workload metric value unit` lines, then the gate verdicts.
  void print_lines() const;
  /// The one-line result object: end-to-end metrics when untraced, every
  /// per-layer metric (0 where unmeasured) when traced.
  std::string result_line(bool traced) const;
  /// The full results file: metadata, every metric with its distribution,
  /// gates.
  std::string results_json(const std::map<std::string, std::string>& meta)
      const;

 private:
  struct Value {
    double value = 0;
    std::optional<Summary> dist;
  };
  struct Gate {
    std::string name;
    bool ok;
    std::string detail;
  };
  std::string workload_;
  std::map<std::string, Value> values_;
  std::vector<Gate> gates_;
};

}  // namespace gc::bench
