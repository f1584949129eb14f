#include "core/recovery.hpp"

#include <algorithm>
#include <cstdio>
#include <filesystem>

#include "io/checkpoint.hpp"
#include "util/timer.hpp"

namespace gc::core {

namespace {
constexpr const char* kManifestName = "manifest.gcmf";

std::string rank_file_name(int node) {
  char buf[32];
  std::snprintf(buf, sizeof(buf), "rank_%04d.gclb", node);
  return buf;
}
}  // namespace

void save_cluster_checkpoint(const std::string& dir, const ParallelLbm& sim) {
  GC_CHECK_MSG(!sim.has_thermal(),
               "cluster checkpoints cover the flow state only; thermal runs "
               "are not snapshot-able yet");
  std::filesystem::create_directories(dir);

  io::ClusterManifest m;
  m.step = sim.current_step();
  m.grid = sim.config().grid.dims;
  m.lattice_dim = sim.decomposition().lattice_dim();
  const int n = sim.decomposition().num_nodes();
  for (int node = 0; node < n; ++node) {
    const std::string name = rank_file_name(node);
    io::save_checkpoint(dir + "/" + name, sim.local(node));
    m.rank_files.push_back(name);
  }
  // The manifest is the commit point: rank files land first, and the
  // manifest itself goes through tmp-file + rename.
  io::save_manifest(dir + "/" + kManifestName, m);
}

i64 load_cluster_checkpoint(const std::string& dir, ParallelLbm& sim) {
  const io::ClusterManifest m = io::load_manifest(dir + "/" + kManifestName);
  GC_CHECK_MSG(m.grid == sim.config().grid.dims,
               "checkpoint node grid " << m.grid
                                       << " does not match the simulation");
  GC_CHECK_MSG(m.lattice_dim == sim.decomposition().lattice_dim(),
               "checkpoint lattice " << m.lattice_dim
                                     << " does not match the simulation");
  GC_CHECK_MSG(static_cast<int>(m.rank_files.size()) ==
                   sim.decomposition().num_nodes(),
               "checkpoint has " << m.rank_files.size() << " ranks, expected "
                                 << sim.decomposition().num_nodes());
  for (int node = 0; node < sim.decomposition().num_nodes(); ++node) {
    // The v3 header records the storage mode the snapshot was taken in,
    // so the load auto-detects; converting covers a restore across modes
    // (e.g. a Sparse snapshot into an AA simulation).
    lbm::Lattice saved = io::load_checkpoint(
        dir + "/" + m.rank_files[static_cast<std::size_t>(node)]);
    if (saved.storage_mode() != sim.local(node).storage_mode()) {
      saved.convert_storage(sim.local(node).storage_mode());
    }
    sim.restore_local(node, saved);
  }
  sim.set_current_step(m.step);
  return m.step;
}

RecoveryDriver::RecoveryDriver(ParallelLbm& sim, RecoveryConfig cfg)
    : sim_(sim), cfg_(std::move(cfg)) {
  GC_CHECK_MSG(!cfg_.dir.empty(), "RecoveryConfig.dir is required");
  GC_CHECK_MSG(cfg_.checkpoint_every >= 1, "checkpoint_every must be >= 1");
  GC_CHECK_MSG(cfg_.max_rollbacks >= 0, "max_rollbacks must be >= 0");
}

void RecoveryDriver::rollback(RecoveryReport& report, i64 done,
                              const std::string& what) {
  // A cancelled run (deadline watchdog, service shutdown) must not be
  // healed: the abort that killed it would just fire again, and the
  // caller is waiting for the failure to surface.
  if (cfg_.cancelled && cfg_.cancelled()) throw;  // rethrow the failure
  ++report.rollbacks;
  if (report.rollbacks > cfg_.max_rollbacks) throw;  // rethrow the failure
  obs::TraceRecorder* rec = cfg_.trace;
  Timer t;
  i64 resumed = 0;
  {
    obs::ScopedSpan span(rec, "rollback", 0, "ft");
    sim_.reset_comm();
    resumed = load_cluster_checkpoint(cfg_.dir, sim_);
  }
  report.recovery_ms += t.millis();
  report.events.push_back(RecoveryEvent{done, resumed, what});
  if (rec) {
    rec->add_counter("ft.rollbacks", 0, 1);
    rec->set_gauge("ft.recovery_ms", 0, report.recovery_ms);
  }
}

RecoveryReport RecoveryDriver::run(i64 steps) {
  GC_CHECK_MSG(steps >= 0, "negative step count");
  obs::TraceRecorder* rec = cfg_.trace;
  RecoveryReport report;
  const i64 target = sim_.current_step() + steps;

  auto snapshot = [&] {
    obs::ScopedSpan span(rec, "checkpoint", 0, "ft");
    save_cluster_checkpoint(cfg_.dir, sim_);
    ++report.checkpoints;
    if (rec) rec->add_counter("ft.checkpoints", 0, 1);
  };

  snapshot();  // the rollback anchor for the first chunk
  while (sim_.current_step() < target) {
    if (cfg_.cancelled && cfg_.cancelled()) {
      throw netsim::CommAborted("recovery cancelled between chunks");
    }
    const i64 chunk = std::min<i64>(cfg_.checkpoint_every,
                                    target - sim_.current_step());
    try {
      sim_.run(static_cast<int>(chunk));
      if (sim_.current_step() < target) snapshot();
    } catch (const netsim::CommError& e) {
      rollback(report, sim_.current_step(), e.what());
    } catch (const netsim::RankCrashError& e) {
      rollback(report, sim_.current_step(), e.what());
    } catch (const lbm::DivergenceError& e) {
      rollback(report, sim_.current_step(), e.what());
    }
  }
  report.steps = steps;
  return report;
}

}  // namespace gc::core
