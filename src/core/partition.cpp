#include "core/partition.hpp"

#include <chrono>

#include "core/parallel_lbm.hpp"
#include "core/recovery.hpp"

namespace gc::core {

PartitionPool::PartitionPool(int partitions, PartitionSpec spec)
    : spec_(spec),
      n_slots_(partitions),
      slots_(static_cast<std::size_t>(partitions)) {
  GC_CHECK_MSG(partitions >= 1, "a partition pool needs at least one slot");
  GC_CHECK_MSG(spec_.grid.num_nodes() >= 1, "empty partition node grid");
  GC_CHECK_MSG(spec_.failure_threshold >= 1,
               "failure_threshold must be >= 1");
  GC_CHECK_MSG(spec_.probation_ms >= 0, "probation_ms must be >= 0");
}

PartitionPool::Lease::Lease(Lease&& other) noexcept
    : pool_(other.pool_), slot_(other.slot_), seq_(other.seq_) {
  other.pool_ = nullptr;
}

PartitionPool::Lease& PartitionPool::Lease::operator=(Lease&& other) noexcept {
  if (this != &other) {
    if (pool_) pool_->release(slot_);
    pool_ = other.pool_;
    slot_ = other.slot_;
    seq_ = other.seq_;
    other.pool_ = nullptr;
  }
  return *this;
}

PartitionPool::Lease::~Lease() {
  if (pool_) pool_->release(slot_);
}

void PartitionPool::promote_probations_locked() {
  const double now = clock_.millis();
  bool changed = false;
  for (Slot& sl : slots_) {
    if (sl.health == Health::kQuarantined &&
        now - sl.quarantined_at_ms >= spec_.probation_ms) {
      sl.health = Health::kProbation;
      changed = true;
    }
  }
  if (changed) publish_degraded_locked();
}

int PartitionPool::find_slot_locked(int exclude) {
  promote_probations_locked();
  int probation = -1;
  int excluded = -1;
  for (int s = 0; s < size(); ++s) {
    Slot& sl = slots_[static_cast<std::size_t>(s)];
    if (sl.busy || sl.health == Health::kQuarantined) continue;
    if (s == exclude) {
      excluded = s;
      continue;
    }
    if (sl.health == Health::kHealthy) return s;
    if (probation < 0) probation = s;
  }
  if (probation >= 0) return probation;
  // Exclusion is a routing preference, not a ban: with every other slot
  // quarantined or busy, the excluded slot beats waiting forever.
  return excluded;
}

std::optional<PartitionPool::Lease> PartitionPool::acquire_until(
    int exclude, const std::function<bool()>& give_up) {
  std::unique_lock<std::mutex> lock(mu_);
  for (;;) {
    if (stopped_) throw LeaseAbortedError("partition pool is shut down");
    const int slot = find_slot_locked(exclude);
    if (slot >= 0) {
      Slot& sl = slots_[static_cast<std::size_t>(slot)];
      sl.busy = true;
      sl.lease_seq = ++lease_counter_;
      return Lease(this, slot, sl.lease_seq);
    }
    if (give_up && give_up()) return std::nullopt;
    // Short bounded slices: a release/abort wakes us immediately, and
    // the timeout re-evaluates probation timers and give_up even when
    // nothing was notified.
    cv_.wait_for(lock, std::chrono::milliseconds(10), [this, exclude] {
      return stopped_ || find_slot_locked(exclude) >= 0;
    });
  }
}

PartitionPool::Lease PartitionPool::acquire() {
  std::optional<Lease> lease = acquire_until(-1, nullptr);
  return std::move(*lease);  // engaged: null give_up never gives up
}

int PartitionPool::idle() const {
  std::unique_lock<std::mutex> lock(mu_);
  int n = 0;
  for (const Slot& sl : slots_) n += sl.busy ? 0 : 1;
  return n;
}

void PartitionPool::release(int slot) {
  {
    std::unique_lock<std::mutex> lock(mu_);
    Slot& sl = slots_[static_cast<std::size_t>(slot)];
    sl.busy = false;
    sl.kill = false;
    sl.active = nullptr;
  }
  cv_.notify_all();
}

void PartitionPool::set_faults(int slot, netsim::FaultSpec* faults) {
  std::unique_lock<std::mutex> lock(mu_);
  GC_CHECK_MSG(slot >= 0 && slot < size(), "invalid partition slot " << slot);
  Slot& sl = slots_[static_cast<std::size_t>(slot)];
  GC_CHECK_MSG(!sl.busy, "set_faults on a leased partition");
  if (faults) {
    GC_CHECK_MSG(!spec_.recovery_dir.empty(),
                 "PartitionSpec.recovery_dir is required for faulted slots");
  }
  sl.faults = faults;
}

netsim::FaultSpec* PartitionPool::slot_faults(int slot) const {
  std::unique_lock<std::mutex> lock(mu_);
  return slots_[static_cast<std::size_t>(slot)].faults;
}

std::string PartitionPool::slot_recovery_dir(int slot) const {
  return spec_.recovery_dir + "/slot_" + std::to_string(slot);
}

void PartitionPool::publish_degraded_locked() {
  if (!spec_.health_trace) return;
  int n = 0;
  for (const Slot& sl : slots_) n += sl.health == Health::kQuarantined ? 1 : 0;
  spec_.health_trace->set_gauge("service.degraded", 0, n);
}

void PartitionPool::quarantine_locked(int slot) {
  Slot& sl = slots_[static_cast<std::size_t>(slot)];
  sl.health = Health::kQuarantined;
  sl.quarantined_at_ms = clock_.millis();
  if (spec_.health_trace) {
    spec_.health_trace->add_counter("service.quarantined", 0, 1);
  }
  publish_degraded_locked();
}

void PartitionPool::report_success(int slot) {
  std::unique_lock<std::mutex> lock(mu_);
  GC_CHECK_MSG(slot >= 0 && slot < size(), "invalid partition slot " << slot);
  Slot& sl = slots_[static_cast<std::size_t>(slot)];
  sl.consecutive_failures = 0;
  if (sl.health == Health::kProbation) sl.health = Health::kHealthy;
}

void PartitionPool::report_failure(int slot) {
  std::unique_lock<std::mutex> lock(mu_);
  GC_CHECK_MSG(slot >= 0 && slot < size(), "invalid partition slot " << slot);
  Slot& sl = slots_[static_cast<std::size_t>(slot)];
  sl.consecutive_failures += 1;
  if (sl.health == Health::kProbation) {
    // The probe failed: straight back to quarantine for another cooldown.
    quarantine_locked(slot);
  } else if (sl.health == Health::kHealthy &&
             sl.consecutive_failures >= spec_.failure_threshold) {
    quarantine_locked(slot);
  }
}

PartitionPool::Health PartitionPool::health(int slot) {
  std::unique_lock<std::mutex> lock(mu_);
  GC_CHECK_MSG(slot >= 0 && slot < size(), "invalid partition slot " << slot);
  promote_probations_locked();
  return slots_[static_cast<std::size_t>(slot)].health;
}

int PartitionPool::quarantined() const {
  std::unique_lock<std::mutex> lock(mu_);
  int n = 0;
  for (const Slot& sl : slots_) n += sl.health == Health::kQuarantined ? 1 : 0;
  return n;
}

void PartitionPool::abort_lease(int slot, u64 lease) {
  std::unique_lock<std::mutex> lock(mu_);
  GC_CHECK_MSG(slot >= 0 && slot < size(), "invalid partition slot " << slot);
  Slot& sl = slots_[static_cast<std::size_t>(slot)];
  if (!sl.busy) return;
  if (lease != 0 && sl.lease_seq != lease) return;  // a later tenant
  sl.kill = true;
  // Waking the ranks is safe under mu_: MpiLite never calls back into
  // the pool, so there is no lock cycle.
  if (sl.active) sl.active->abort_comm();
}

void PartitionPool::abort_all() {
  {
    std::unique_lock<std::mutex> lock(mu_);
    stopped_ = true;
    for (Slot& sl : slots_) {
      if (!sl.busy) continue;
      sl.kill = true;
      if (sl.active) sl.active->abort_comm();
    }
  }
  cv_.notify_all();
}

void PartitionPool::register_active(int slot, ParallelLbm* sim) {
  std::unique_lock<std::mutex> lock(mu_);
  Slot& sl = slots_[static_cast<std::size_t>(slot)];
  sl.active = sim;
  // An abort requested before the simulation existed lands now.
  if (sim && (sl.kill || stopped_)) sim->abort_comm();
}

bool PartitionPool::kill_requested(int slot) const {
  std::unique_lock<std::mutex> lock(mu_);
  return slots_[static_cast<std::size_t>(slot)].kill || stopped_;
}

obs::RunStats PartitionPool::Lease::run(lbm::Lattice& state, int steps,
                                        const lbm::RunParams& params) const {
  GC_CHECK_MSG(pool_, "run() on a moved-from lease");
  PartitionPool& pool = *pool_;
  const PartitionSpec& spec = pool.spec();
  netsim::FaultSpec* faults = pool.slot_faults(slot_);
  ParallelConfig cfg;
  static_cast<lbm::RunParams&>(cfg) = params;
  cfg.grid = spec.grid;
  cfg.overlap = spec.overlap;
  cfg.trace = spec.trace;
  cfg.faults = faults;
  cfg.reliability = spec.reliability;
  cfg.sentinel = spec.sentinel;
  ParallelLbm sim(state, cfg);
  pool.register_active(slot_, &sim);
  try {
    obs::RunStats stats;
    if (faults) {
      // Faulted slot: run under the recovery driver so transient faults
      // roll back in place and only terminal ones escape. The cancelled
      // hook keeps a watchdog abort terminal — recovery must not heal a
      // run its owner is killing.
      RecoveryConfig rc;
      rc.dir = pool.slot_recovery_dir(slot_);
      rc.checkpoint_every = spec.checkpoint_every;
      rc.max_rollbacks = spec.max_rollbacks;
      rc.trace = spec.trace;
      const int slot = slot_;
      PartitionPool* p = pool_;
      rc.cancelled = [p, slot] { return p->kill_requested(slot); };
      RecoveryDriver driver(sim, std::move(rc));
      Timer t;
      driver.run(steps);
      stats.steps = steps;
      stats.wall_ms = t.millis();
    } else {
      stats = sim.run(steps);
    }
    pool.register_active(slot_, nullptr);
    sim.gather(state);
    return stats;
  } catch (const Error&) {
    pool.register_active(slot_, nullptr);
    // An externally killed run fails with whatever the abort surfaced as
    // (CommAborted mid-run, a plain world-aborted Error between chunks);
    // the kill flag is the ground truth for "this was a cancellation".
    if (pool.kill_requested(slot_)) {
      throw LeaseAbortedError("partition lease aborted mid-run");
    }
    throw;
  }
}

}  // namespace gc::core
