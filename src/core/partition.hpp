// Partition leasing for many-query workloads: the cluster is a shared
// resource (Feichtinger et al.'s patch-based GPU-CPU design and Calore et
// al.'s large-cluster scaling study both schedule many independent jobs
// onto one machine), so independent scenarios must be able to borrow a
// slice of it, run to completion, and hand it back. A PartitionPool owns
// a fixed number of partition slots; acquiring one yields a Lease whose
// run() executes a global lattice on that partition — core::ParallelLbm,
// one MpiLite world per run — and gathers the result back in place.
// Bit-exactness is inherited: the distributed solver is validated against
// the serial reference, so *which* partition serves a request can never
// change the answer.
//
// Resilience: a per-slot netsim::FaultSpec switches leased runs onto the
// reliable exchange under a RecoveryDriver, so transient faults roll back
// in place and terminal ones surface as typed errors.
// The pool keeps a health score per slot — repeated failures trip a
// circuit breaker that quarantines the partition, and a timed probation
// re-admits it after a healthy probe — so a sick partition degrades the
// pool instead of poisoning every request routed to it. A leased run can
// be aborted from outside (kill flag + MpiLite world abort), which is how
// deadline watchdogs cancel a stuck partition instead of waiting forever.
#pragma once

#include <condition_variable>
#include <functional>
#include <mutex>
#include <optional>
#include <string>
#include <vector>

#include "lbm/lattice.hpp"
#include "lbm/run_params.hpp"
#include "lbm/sentinel.hpp"
#include "netsim/mpilite.hpp"
#include "netsim/schedule.hpp"
#include "obs/trace.hpp"
#include "util/thread_annotations.hpp"
#include "util/timer.hpp"

namespace gc::core {

class ParallelLbm;

/// A leased run was cancelled from outside (watchdog deadline abort or
/// pool shutdown) rather than failing on its own. Callers translate this
/// into their own vocabulary (deadline exceeded / service stopped); it is
/// never a partition-health signal.
class LeaseAbortedError : public Error {
 public:
  using Error::Error;
};

/// Shape shared by every partition in a pool.
struct PartitionSpec {
  /// Node grid *per partition* — each leased run decomposes its lattice
  /// across this many logical cluster nodes.
  netsim::NodeGrid grid{};
  /// Execute the §4.4 compute–communication overlap inside each run.
  bool overlap = false;
  /// Per-rank spans/counters from leased runs land here (tid = rank
  /// within the partition). Not owned; may be null.
  obs::TraceRecorder* trace = nullptr;

  // --- resilience (used when a slot has a FaultSpec) ---
  /// Retransmit policy of the reliable exchange on faulted slots.
  netsim::ReliabilityConfig reliability;
  /// Per-step divergence scan on faulted slots (unset = off).
  std::optional<lbm::SentinelThresholds> sentinel;
  /// Rollback checkpoints for faulted runs land under
  /// `<recovery_dir>/slot_<N>`. Required before set_faults().
  std::string recovery_dir;
  int checkpoint_every = 25;  ///< steps between rollback snapshots
  int max_rollbacks = 4;      ///< RecoveryDriver give-up budget per run
  /// Consecutive failures that trip the quarantine breaker on a slot.
  int failure_threshold = 3;
  /// Quarantine cooldown before the slot is handed out again as a probe.
  double probation_ms = 250;
  /// Pool-health metrics (service.quarantined counter, service.degraded
  /// gauge) land here. Not owned; may be null. Kept separate from
  /// `trace` so per-rank run tracing and service-level health tracing
  /// can go to different recorders.
  obs::TraceRecorder* health_trace = nullptr;
};

/// A fixed pool of cluster partitions. acquire() blocks until a slot is
/// free; the returned Lease releases it on destruction (RAII), so a
/// worker that throws mid-scenario can never leak a partition.
class PartitionPool {
 public:
  PartitionPool(int partitions, PartitionSpec spec);

  /// Circuit-breaker state of one slot. Healthy slots are preferred by
  /// acquire; quarantined slots are never handed out; a quarantined slot
  /// whose probation window elapsed is handed out as a probe and the
  /// next report_success / report_failure decides re-admission.
  enum class Health { kHealthy, kQuarantined, kProbation };

  class Lease {
   public:
    Lease(Lease&& other) noexcept;
    Lease& operator=(Lease&& other) noexcept;
    Lease(const Lease&) = delete;
    Lease& operator=(const Lease&) = delete;
    ~Lease();

    /// The leased slot index in [0, pool size).
    int partition() const { return slot_; }

    /// Monotonic id of this particular lease of the slot. abort_lease
    /// takes it so a stale abort decision cannot kill whoever leased
    /// the slot next.
    u64 lease_id() const { return seq_; }

    /// Runs `steps` LBM steps of `state` on the leased partition and
    /// gathers the result back into `state`. The wall time always lands
    /// in the returned stats; per-phase spans require a recorder on the
    /// pool spec. On a slot with a FaultSpec the run executes under
    /// RecoveryDriver: transient faults roll back in place, terminal ones
    /// (CommTimeout, RankCrashError, DivergenceError past max_rollbacks)
    /// escape as those typed errors. An external abort (abort_lease /
    /// abort_all) surfaces as LeaseAbortedError.
    obs::RunStats run(lbm::Lattice& state, int steps,
                      const lbm::RunParams& params) const;

   private:
    friend class PartitionPool;
    Lease(PartitionPool* pool, int slot, u64 seq)
        : pool_(pool), slot_(slot), seq_(seq) {}
    PartitionPool* pool_;
    int slot_;
    u64 seq_ = 0;
  };

  /// Blocks until an eligible (non-quarantined) slot is free. Throws
  /// LeaseAbortedError once abort_all() has been called.
  Lease acquire() GC_EXCLUDES(mu_);

  /// Bounded acquire: waits in short slices, re-evaluating probation
  /// promotions and invoking `give_up` between slices; returns nullopt
  /// once give_up() is true. `exclude` is a routing preference — retries
  /// want a *different* partition — not a hard ban: when every other
  /// slot is quarantined, the excluded slot beats hanging forever.
  /// Throws LeaseAbortedError once abort_all() has been called.
  std::optional<Lease> acquire_until(int exclude,
                                     const std::function<bool()>& give_up)
      GC_EXCLUDES(mu_);

  /// Attaches a fault specification to one slot (not owned, must outlive
  /// the pool's runs). Requires spec.recovery_dir. Null detaches.
  void set_faults(int slot, netsim::FaultSpec* faults) GC_EXCLUDES(mu_);

  /// Health reports from the lease's user (the pool cannot tell a
  /// request-level failure from a partition-level one; the caller can).
  /// Failure increments the slot's consecutive-failure count and trips
  /// the quarantine breaker at spec.failure_threshold; success resets
  /// the count and re-admits a probing slot.
  void report_success(int slot) GC_EXCLUDES(mu_);
  void report_failure(int slot) GC_EXCLUDES(mu_);

  /// Current breaker state of one slot (promotes an elapsed probation
  /// timer first, so the answer reflects what acquire would see).
  Health health(int slot) GC_EXCLUDES(mu_);
  /// Slots currently quarantined (the service.degraded gauge's value).
  int quarantined() const GC_EXCLUDES(mu_);

  /// Aborts whatever run is active on `slot` (now and until the lease is
  /// released): the run fails with LeaseAbortedError instead of running
  /// to completion. No-op on an idle slot. A non-zero `lease` restricts
  /// the abort to that exact lease_id(), so a decision made against a
  /// snapshot of the pool cannot kill a later tenant of the slot.
  void abort_lease(int slot, u64 lease = 0) GC_EXCLUDES(mu_);

  /// Shuts the pool down: every active run is aborted and every blocked
  /// or future acquire throws LeaseAbortedError.
  void abort_all() GC_EXCLUDES(mu_);

  /// Fixed at construction, so readable without the lock.
  int size() const { return n_slots_; }
  /// Slots currently free (snapshot; racy by nature).
  int idle() const GC_EXCLUDES(mu_);
  const PartitionSpec& spec() const { return spec_; }

 private:
  struct Slot {
    bool busy = false;
    /// Abort requested for the current lease; cleared on release.
    bool kill = false;
    /// lease_id() of the current/most recent lease of this slot.
    u64 lease_seq = 0;
    netsim::FaultSpec* faults = nullptr;
    Health health = Health::kHealthy;
    int consecutive_failures = 0;
    double quarantined_at_ms = 0;
    /// The ParallelLbm currently running on this slot, registered by
    /// Lease::run so abort_lease can reach its world.
    ParallelLbm* active = nullptr;
  };

  void release(int slot) GC_EXCLUDES(mu_);
  /// Registers/unregisters the active simulation; applies a pending
  /// kill to a just-registered one.
  void register_active(int slot, ParallelLbm* sim) GC_EXCLUDES(mu_);
  bool kill_requested(int slot) const GC_EXCLUDES(mu_);
  netsim::FaultSpec* slot_faults(int slot) const GC_EXCLUDES(mu_);
  std::string slot_recovery_dir(int slot) const;
  /// Promotes quarantined slots whose probation elapsed. Caller holds mu_.
  void promote_probations_locked() GC_REQUIRES(mu_);
  /// Best eligible free slot (-1 if none): healthy first, then probation,
  /// then the excluded slot as a last resort. Caller holds mu_.
  int find_slot_locked(int exclude) GC_REQUIRES(mu_);
  /// Quarantine transitions + health metrics. Caller holds mu_.
  void quarantine_locked(int slot) GC_REQUIRES(mu_);
  void publish_degraded_locked() GC_REQUIRES(mu_);

  PartitionSpec spec_;
  Timer clock_;  ///< probation timestamps
  int n_slots_ = 0;
  /// Canonical lock order: abort_lease / abort_all reach into the active
  /// run's MpiLite world (to wake blocked ranks) while holding mu_, so
  /// the pool lock always precedes the communicator lock.
  mutable std::mutex mu_ GC_ACQUIRED_BEFORE(netsim::MpiLite::mu_);
  std::condition_variable cv_;
  std::vector<Slot> slots_ GC_GUARDED_BY(mu_);
  u64 lease_counter_ GC_GUARDED_BY(mu_) = 0;
  bool stopped_ GC_GUARDED_BY(mu_) = false;
};

}  // namespace gc::core
