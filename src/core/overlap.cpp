#include "core/overlap.hpp"

#include <algorithm>
#include <sstream>

namespace gc::core {

const TimelineTask* OverlapTimeline::find(const std::string& name) const {
  for (const TimelineTask& t : tasks) {
    if (t.name == name) return &t;
  }
  return nullptr;
}

std::string OverlapTimeline::gantt(int width) const {
  std::ostringstream os;
  if (makespan_ms <= 0) return "";
  std::size_t label_w = 0;
  for (const TimelineTask& t : tasks) label_w = std::max(label_w, t.name.size());
  for (const TimelineTask& t : tasks) {
    const int a = static_cast<int>(t.start_ms / makespan_ms * width);
    const int b = std::max(
        a + 1, static_cast<int>(t.end_ms / makespan_ms * width));
    os << "  " << t.name << std::string(label_w - t.name.size() + 2, ' ')
       << std::string(static_cast<std::size_t>(a), ' ')
       << std::string(static_cast<std::size_t>(b - a), '#') << "  "
       << static_cast<int>(t.start_ms) << ".." << static_cast<int>(t.end_ms)
       << " ms\n";
  }
  return os.str();
}

void OverlapTimeline::export_trace(obs::TraceRecorder& rec, int rank) const {
  for (const TimelineTask& t : tasks) {
    rec.record_span(t.span.empty() ? t.name : t.span, "overlap", rank,
                    t.start_ms * 1e3, t.end_ms * 1e3);
  }
  rec.set_gauge("model.makespan_ms", rank, makespan_ms);
  rec.set_gauge("model.network_hidden_ms", rank, network_hidden_ms);
}

OverlapTimeline simulate_overlapped_step(const ClusterScenario& sc) {
  // Split the busiest node's costs into pipeline tasks, then schedule them
  // with their dependencies.
  const BusiestNodeCost c = busiest_node_cost(sc);

  // Dependencies: gather/readback first; then the network exchange and
  // the inner collision run concurrently; the ghost write-back follows
  // the network; the rest of the GPU step needs both the window and the
  // write-back done.
  OverlapTimeline tl;
  auto add_task = [&tl](const std::string& name, const std::string& span,
                        double start, double dur) {
    tl.tasks.push_back(TimelineTask{name, span, start, start + dur});
    return start + dur;
  };

  const double t_read =
      add_task("border gather+readback", "overlap.pack", 0.0, c.readback_ms);
  const double t_net =
      add_task("network exchange", "overlap.wait", t_read, c.network_ms);
  const double t_window =
      add_task("inner-cell collision", "overlap.inner", t_read, c.window_ms);
  const double t_write =
      add_task("ghost write-back", "overlap.unpack", t_net, c.writeback_ms);
  const double t_rest =
      add_task("border collide + stream", "overlap.outer",
               std::max(t_window, t_write), c.compute_ms - c.window_ms);
  tl.makespan_ms = t_rest;
  tl.network_hidden_ms = std::min(c.network_ms, c.window_ms);
  return tl;
}

}  // namespace gc::core
