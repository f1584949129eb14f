#include "obs/span_canon.hpp"

namespace gc::obs {

namespace {

// Sorted by name. Grouped by subsystem: lbm kernels, net exchange, the
// executed/modeled overlap pipeline, fault tolerance, the scenario
// service, tracer transport.
constexpr SpanCanon kSpans[] = {
    {"checkpoint", "ft"},
    {"collide", "lbm"},
    {"exchange", "net"},
    {"finish", "lbm"},
    {"fused", "lbm"},
    {"overlap.inner", "overlap"},
    {"overlap.outer", "overlap"},
    {"overlap.pack", "overlap"},
    {"overlap.unpack", "overlap"},
    {"overlap.wait", "overlap"},
    {"pack", "net"},
    {"rollback", "ft"},
    {"sentinel", "ft"},
    {"service.flow", "service"},
    {"service.scenario", "service"},
    {"service.tracer", "service"},
    {"stream", "lbm"},
    {"thermal", "lbm"},
    {"tracer.advect", "tracer"},
    {"unpack", "net"},
};

/// One canonical counter or gauge name.
struct MetricCanon {
  const char* name;
};

constexpr MetricCanon kCounters[] = {
    {"ft.checkpoints"},
    {"ft.corrupt_detected"},
    {"ft.crashes"},
    {"ft.divergences"},
    {"ft.duplicates_dropped"},
    {"ft.recv_timeouts"},
    {"ft.retransmits"},
    {"ft.rollbacks"},
    {"mpi.bytes"},
    {"mpi.messages"},
    {"service.cache_evictions"},
    {"service.cache_hits"},
    {"service.cache_misses"},
    {"service.deadline_expired"},
    {"service.quarantined"},
    {"service.requests"},
    {"service.retries"},
    {"solver.steps"},
    {"urban.spin_up_steps"},
    {"urban.tracer_steps"},
};

constexpr MetricCanon kGauges[] = {
    {"ft.recovery_ms"},
    {"lattice.bytes_allocated"},
    {"model.makespan_ms"},
    {"model.network_hidden_ms"},
    {"mpi.overlap_hidden_ms"},
    {"service.cache_bytes"},
    {"service.degraded"},
    {"service.queue_depth"},
    {"urban.ms_per_step"},
};

}  // namespace

const SpanCanon* span_canon(std::size_t* count) {
  *count = sizeof(kSpans) / sizeof(kSpans[0]);
  return kSpans;
}

bool is_canonical_span(std::string_view name) {
  for (const SpanCanon& s : kSpans) {
    if (name == s.name) return true;
  }
  return false;
}

bool is_canonical_span(std::string_view name, std::string_view cat) {
  for (const SpanCanon& s : kSpans) {
    if (name == s.name) return cat == s.cat;
  }
  return false;
}

bool is_canonical_counter(std::string_view name) {
  for (const MetricCanon& m : kCounters) {
    if (name == m.name) return true;
  }
  return false;
}

bool is_canonical_gauge(std::string_view name) {
  for (const MetricCanon& m : kGauges) {
    if (name == m.name) return true;
  }
  return false;
}

}  // namespace gc::obs
