#include "report.hpp"

#include <algorithm>
#include <charconv>
#include <cmath>
#include <cstdio>
#include <fstream>

namespace gc::bench {

namespace {

// BENCHMARK.json lists the same names and units; run.py
// refuses a run whose result line disagrees with it. End-to-end metrics
// are what a user of the system sees: every workload reports all of them
// from its untraced run. Per-layer metrics come from the traced run; a
// layer a workload does not exercise reads 0 there.
const std::vector<MetricDef> kEndToEnd = {
    {"setup_s", "s"},
    {"op_ms", "ms"},
    {"peak_rss_mb", "MB"},
};

const std::vector<MetricDef> kPerLayer = {
    {"lbm.step_ms_p50", "ms"},
    {"lbm.step_ms_p90", "ms"},
    {"lbm.mflups", "Mcell/s"},
    {"lbm.fused_ms", "ms"},
    {"lbm.serial_mflups", "Mcell/s"},
    {"lbm.pool_speedup", "x"},
    {"lbm.bytes_per_step", "bytes"},
    {"lbm.gbps_computed", "GB/s"},
    {"lbm.pct_of_triad", "%"},
    {"lbm.storage_mb", "MB"},
    {"mem.triad_gbps", "GB/s"},
    {"core.ctor_s", "s"},
    {"core.paper_step_ms", "ms"},
    {"core.collide_ms", "ms"},
    {"core.inner_ms", "ms"},
    {"core.outer_ms", "ms"},
    {"core.pack_ms", "ms"},
    {"core.unpack_ms", "ms"},
    {"core.wait_ms", "ms"},
    {"core.wait_ms_max", "ms"},
    {"core.hidden_ms", "ms"},
    {"core.unaccounted_ms", "ms"},
    {"core.imbalance", "ratio"},
    {"core.lease_run_ms_p50", "ms"},
    {"netsim.messages_per_step", "count"},
    {"netsim.bytes_per_step", "bytes"},
    {"city.voxelize_s", "s"},
    {"city.build_ms", "ms"},
    {"service.hit_latency_p50_ms", "ms"},
    {"service.hit_latency_p95_ms", "ms"},
    {"service.miss_latency_p50_ms", "ms"},
    {"service.pre_flow_ms_p50", "ms"},
    {"service.hit_ratio", "ratio"},
    {"service.hit_capacity_per_s", "1/s"},
    {"cache.restore_ms_p50", "ms"},
    {"cache.miss_flow_ms_p50", "ms"},
    {"cache.computes", "count"},
    {"cache.evictions", "count"},
    {"cache.mb", "MB"},
    {"io.checkpoint_load_ms", "ms"},
    {"io.checkpoint_save_ms", "ms"},
    {"io.checkpoint_mb", "MB"},
    {"tracer.ms_p50", "ms"},
    {"tracer.ns_per_particle_step", "ns"},
    {"gen.lag_ms_max", "ms"},
    {"gen.sent", "count"},
    {"gen.refused", "count"},
    {"obs.trace_overhead_pct", "%"},
};

const MetricDef* find_def(const std::string& name) {
  for (const auto* table : {&kEndToEnd, &kPerLayer}) {
    for (const MetricDef& d : *table) {
      if (name == d.name) return &d;
    }
  }
  return nullptr;
}

/// Shortest decimal that reads back as the same double.
std::string num(double v) {
  char buf[64];
  const auto res = std::to_chars(buf, buf + sizeof(buf), v);
  return std::string(buf, res.ptr);
}

std::string quoted(const std::string& s) {
  std::string out = "\"";
  for (const char c : s) {
    if (c == '"' || c == '\\') {
      out += '\\';
      out += c;
    } else if (static_cast<unsigned char>(c) < 0x20) {
      out += ' ';
    } else {
      out += c;
    }
  }
  return out + "\"";
}

double quantile(const std::vector<double>& sorted, double q) {
  if (sorted.empty()) return 0;
  const double pos = q * static_cast<double>(sorted.size() - 1);
  const std::size_t lo = static_cast<std::size_t>(pos);
  const std::size_t hi = std::min(lo + 1, sorted.size() - 1);
  return sorted[lo] +
         (pos - static_cast<double>(lo)) * (sorted[hi] - sorted[lo]);
}

thread_local i64 t_open_span = 0;  // innermost open Scope of this thread

}  // namespace

Summary summarize(std::vector<double> samples) {
  Summary s;
  s.n = static_cast<i64>(samples.size());
  if (samples.empty()) return s;
  std::sort(samples.begin(), samples.end());
  s.median = quantile(samples, 0.5);
  s.p25 = quantile(samples, 0.25);
  s.p75 = quantile(samples, 0.75);
  s.p90 = quantile(samples, 0.90);
  s.p95 = quantile(samples, 0.95);
  return s;
}

// --- SpanLog ----------------------------------------------------------------

i64 SpanLog::next_id() {
  std::lock_guard<std::mutex> lock(mu_);
  return ++ids_;
}

void SpanLog::record(const std::string& name, double t0_us, double t1_us,
                     i64 parent, i64 request) {
  if (!enabled_) return;
  const i64 id = next_id();
  std::lock_guard<std::mutex> lock(mu_);
  spans_.push_back(Span{name, t0_us, t1_us, id, parent, request});
}

SpanLog::Scope::Scope(SpanLog& log, const char* name, i64 request)
    : log_(log), name_(name), request_(request) {
  if (!log_.enabled()) return;
  id_ = log_.next_id();
  parent_ = t_open_span;
  t_open_span = id_;
  t0_us_ = log_.now_us();
}

SpanLog::Scope::~Scope() {
  if (!log_.enabled()) return;
  const double t1 = log_.now_us();
  t_open_span = parent_;
  std::lock_guard<std::mutex> lock(log_.mu_);
  log_.spans_.push_back(Span{name_, t0_us_, t1, id_, parent_, request_});
}

void SpanLog::write_chrome_trace(const std::string& path) const {
  std::ofstream out(path, std::ios::trunc);
  GC_CHECK_MSG(out.good(), "cannot open " << path << " for writing");
  std::lock_guard<std::mutex> lock(mu_);
  out << "{\"traceEvents\":[";
  for (std::size_t k = 0; k < spans_.size(); ++k) {
    const Span& s = spans_[k];
    out << (k ? ",\n" : "\n") << "{\"name\":" << quoted(s.name)
        << ",\"cat\":\"bench\",\"ph\":\"X\",\"pid\":1,\"tid\":"
        << (s.request ? s.request : 0) << ",\"ts\":" << num(s.t0_us)
        << ",\"dur\":" << num(s.t1_us - s.t0_us) << ",\"args\":{\"id\":"
        << s.id << ",\"parent\":" << s.parent << ",\"request\":" << s.request
        << "}}";
  }
  out << "\n]}\n";
}

// --- Report -----------------------------------------------------------------

void Report::set(const std::string& name, double value) {
  GC_CHECK_MSG(find_def(name), "metric '" << name << "' is in no table");
  GC_CHECK_MSG(std::isfinite(value),
               "metric '" << name << "' is not finite: " << value);
  values_[name].value = value;
}

void Report::set_dist(const std::string& name,
                      const std::vector<double>& samples) {
  const Summary s = summarize(samples);
  set(name, s.median);
  values_[name].dist = s;
}

double Report::get(const std::string& name) const {
  const auto it = values_.find(name);
  return it == values_.end() ? 0.0 : it->second.value;
}

void Report::gate(const std::string& name, bool ok, const std::string& detail) {
  gates_.push_back(Gate{name, ok, detail});
}

bool Report::correct() const {
  return std::all_of(gates_.begin(), gates_.end(),
                     [](const Gate& g) { return g.ok; });
}

void Report::print_lines() const {
  for (const auto& [name, v] : values_) {
    std::printf("%s %s %s %s", workload_.c_str(), name.c_str(),
                num(v.value).c_str(), find_def(name)->unit);
    if (v.dist) {
      std::printf("  (p25 %.4g  p75 %.4g  p90 %.4g  n %lld)", v.dist->p25,
                  v.dist->p75, v.dist->p90, static_cast<long long>(v.dist->n));
    }
    std::printf("\n");
  }
  for (const Gate& g : gates_) {
    std::printf("%s gate %s %s  %s\n", workload_.c_str(), g.name.c_str(),
                g.ok ? "PASS" : "FAIL", g.detail.c_str());
  }
  std::printf("%s attempted %lld failed %lld\n", workload_.c_str(),
              static_cast<long long>(attempted),
              static_cast<long long>(failed));
}

std::string Report::result_line(bool traced) const {
  std::string out = "{\"correct\": ";
  out += correct() ? "true" : "false";
  out += ", \"attempted\": " + std::to_string(attempted);
  out += ", \"failed\": " + std::to_string(failed);
  out += ", \"metrics\": {";
  bool first = true;
  for (const MetricDef& d : traced ? kPerLayer : kEndToEnd) {
    if (!traced) {
      GC_CHECK_MSG(values_.count(d.name),
                   workload_ << " did not measure end-to-end metric "
                             << d.name);
    }
    out += first ? "" : ", ";
    first = false;
    out += quoted(d.name) + ": {\"value\": " + num(get(d.name)) +
           ", \"unit\": " + quoted(d.unit) + "}";
  }
  return out + "}}";
}

std::string Report::results_json(
    const std::map<std::string, std::string>& meta) const {
  std::string out = "{\n  \"metadata\": {";
  bool first = true;
  for (const auto& [k, v] : meta) {
    out += (first ? "\n    " : ",\n    ") + quoted(k) + ": " + quoted(v);
    first = false;
  }
  out += "\n  },\n  \"metrics\": {";
  first = true;
  for (const auto& [name, v] : values_) {
    out += (first ? "\n    " : ",\n    ") + quoted(name) + ": {\"value\": " +
           num(v.value) + ", \"unit\": " + quoted(find_def(name)->unit);
    if (v.dist) {
      out += ", \"median\": " + num(v.dist->median) +
             ", \"p25\": " + num(v.dist->p25) + ", \"p75\": " +
             num(v.dist->p75) + ", \"p90\": " + num(v.dist->p90) +
             ", \"n\": " + std::to_string(v.dist->n);
    }
    out += "}";
    first = false;
  }
  out += "\n  },\n  \"gates\": [";
  first = true;
  for (const Gate& g : gates_) {
    out += (first ? "\n    " : ",\n    ") + std::string("{\"name\": ") +
           quoted(g.name) + ", \"ok\": " + (g.ok ? "true" : "false") +
           ", \"detail\": " + quoted(g.detail) + "}";
    first = false;
  }
  out += "\n  ],\n  \"correct\": ";
  out += correct() ? "true" : "false";
  out += ",\n  \"attempted\": " + std::to_string(attempted) +
         ",\n  \"failed\": " + std::to_string(failed) + "\n}\n";
  return out;
}

}  // namespace gc::bench
