// The ensemble scenario service: the paper's Section 6 vision of the
// cluster as a *dispersion calculation appliance* — emergency-response
// queries ("release at X under wind W, where does the plume go?") arrive
// as requests, not as hand-written simulation drivers. The service owns
// a PartitionPool (the cluster), a bounded request queue, a small worker
// pool, and the steady-state FlowCache. Each worker takes one request,
// resolves its flow field (cache hit: restore the frozen checkpoint;
// miss: lease a cluster partition and spin the LBM up), then runs the
// Lowe–Succi tracer phase against the frozen flow and fulfils the
// request's future.
//
// Determinism: tracers are seeded and the flow they read is frozen, so a
// cached scenario reproduces a cold scenario bit-exactly — the cache is
// purely a performance layer (tests assert this). Fault recovery is
// bit-exact too (PR 3), so even a scenario that crashed, rolled back and
// retried on a different partition returns the same bytes.
//
// Resilience: per-partition FaultSpecs (ServiceConfig::partition_faults)
// run cold flows under the recovery driver; a failed compute is retried
// on a *different* partition (RetryPolicy), failing partitions are
// quarantined with timed probation (see core::PartitionPool), requests
// carry deadlines enforced by a watchdog thread that aborts a stuck
// lease's communicator world, and stop(deadline) drains in-flight work
// up to a deadline then fails the remainder with ServiceStopped. Every
// failure is typed (service/errors.hpp); every cv wait is bounded or
// predicated (GCL006).
//
// Observability: every scenario runs under a service.scenario span (tid
// = worker index); cache traffic lands on the service.cache_hits /
// service.cache_misses counters, queue pressure on the
// service.queue_depth gauge, and the resilience machinery on
// service.retries / service.quarantined / service.deadline_expired /
// service.cache_evictions and the service.degraded / service.cache_bytes
// gauges — all names in the span canon.
#pragma once

#include <atomic>
#include <deque>
#include <future>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "core/partition.hpp"
#include "service/errors.hpp"
#include "service/flow_cache.hpp"
#include "service/scenario.hpp"
#include "util/thread_annotations.hpp"
#include "util/timer.hpp"

namespace gc::service {

/// How a failed cold-flow compute is re-run. Attempt 1 is the original
/// run; each retry prefers a different partition than the one that just
/// failed and reports partition health either way.
struct RetryPolicy {
  int max_attempts = 3;    ///< total attempts (1 = no retries)
  double backoff_ms = 2;   ///< sleep between attempts, times attempt index
};

struct ServiceConfig {
  /// Flow-cache directory; survives service restarts (a warm directory
  /// makes every first request a hit).
  std::string cache_dir = "flow_cache";
  /// Byte budget for the flow-cache directory (LRU eviction after each
  /// commit; crash debris scavenged at startup). 0 = unbounded.
  i64 cache_max_bytes = 0;
  /// Bounded queue: submit() blocks and try_submit() refuses once this
  /// many requests are waiting (back-pressure instead of OOM).
  int queue_capacity = 16;
  /// Worker threads draining the queue. Independent scenarios batch
  /// across the cluster: each cache-missing worker leases its own
  /// partition, so up to min(workers, partitions) flows run at once.
  int workers = 2;
  /// Cluster partitions in the pool.
  int partitions = 2;
  /// Shape of every partition (node grid, overlap, trace) plus
  /// the resilience knobs (reliability, recovery, quarantine thresholds).
  /// recovery_dir defaults to "<cache_dir>/recovery" when left empty and
  /// any partition_faults are set.
  core::PartitionSpec partition{};
  /// Per-partition fault injection: entry i (may be null) is attached to
  /// pool slot i. Not owned; must outlive the service.
  std::vector<netsim::FaultSpec*> partition_faults;
  /// Retry policy for failed cold-flow computes.
  RetryPolicy retry;
  /// Service-level spans/counters/gauges land here. Not owned; may be
  /// null. (Partition-internal tracing is wired via `partition.trace`.)
  obs::TraceRecorder* trace = nullptr;
  /// Construct with the workers parked; start() releases them. Lets
  /// tests fill the bounded queue deterministically.
  bool start_paused = false;
};

class ScenarioService {
 public:
  explicit ScenarioService(ServiceConfig cfg);
  /// Equivalent to stop(0): refuses new work, aborts anything queued or
  /// in flight with ServiceStopped, joins the workers.
  ~ScenarioService();

  ScenarioService(const ScenarioService&) = delete;
  ScenarioService& operator=(const ScenarioService&) = delete;

  /// Enqueues a request; blocks while the queue is full. The returned
  /// future yields the result or rethrows the scenario's typed failure
  /// (service/errors.hpp). Throws ServiceStopped once stop() has begun.
  std::future<ScenarioResult> submit(ScenarioRequest req) GC_EXCLUDES(mu_);

  /// Non-blocking submit: false (and no future) when the queue is full
  /// or the service is stopping.
  bool try_submit(ScenarioRequest req, std::future<ScenarioResult>* out)
      GC_EXCLUDES(mu_);

  /// Releases workers parked by start_paused (no-op otherwise).
  void start() GC_EXCLUDES(mu_);

  /// Blocks until the queue is empty and no scenario is in flight.
  void drain() GC_EXCLUDES(mu_);

  /// Graceful shutdown: stops accepting work immediately, drains queued
  /// and in-flight scenarios for up to `deadline_ms`, then fails the
  /// remainder with ServiceStopped (queued requests via their futures;
  /// in-flight runs by aborting their partition leases). deadline_ms < 0
  /// waits for a full drain; 0 fails everything not already done.
  /// Returns true when everything drained inside the deadline.
  /// Idempotent; called by the destructor with deadline 0.
  bool stop(double deadline_ms = -1) GC_EXCLUDES(mu_);

  /// Requests waiting in the queue right now (excludes in-flight).
  int queue_depth() const GC_EXCLUDES(mu_);

  FlowCache& cache() { return cache_; }
  core::PartitionPool& partitions() { return pool_; }
  const ServiceConfig& config() const { return cfg_; }

 private:
  struct Job {
    ScenarioRequest req;
    std::promise<ScenarioResult> promise;
    double deadline_at = 0;  ///< absolute ms on clock_; +inf = none
  };

  /// Watchdog's view of one worker (guarded by mu_).
  struct WorkerState {
    double deadline_at = 0;  ///< +inf when the job has no deadline
    int slot = -1;           ///< leased partition, -1 = none
    u64 lease = 0;           ///< lease_id of the held lease (0 = none)
    bool killed = false;     ///< watchdog already aborted this lease
  };

  void worker_loop(int worker) GC_EXCLUDES(mu_);
  void watchdog_loop() GC_EXCLUDES(mu_);
  ScenarioResult run_scenario(const ScenarioRequest& req, int worker,
                              double deadline_at) GC_EXCLUDES(mu_);
  /// The cold-flow path: retry loop over partition leases under the
  /// recovery driver. Returns the steady lattice; fills stats/partition.
  lbm::Lattice compute_flow(const ScenarioRequest& req, int worker,
                            double deadline_at, obs::RunStats* stats,
                            int* partition_out) GC_EXCLUDES(mu_);
  void set_queue_gauge(int depth);
  void set_worker_slot(int worker, int slot, u64 lease) GC_EXCLUDES(mu_);
  bool expired(double deadline_at) const;
  /// True once stop() decided to abort rather than drain.
  bool aborting() const { return aborting_.load(std::memory_order_acquire); }
  static core::PartitionSpec pool_spec(const ServiceConfig& cfg);

  ServiceConfig cfg_;
  Timer clock_;  ///< deadline timebase (absolute ms since construction)
  FlowCache cache_;
  core::PartitionPool pool_;

  /// Canonical lock order: a worker resolving a scenario may lease a
  /// partition and touch the cache while bookkeeping under mu_ is
  /// re-taken in between, but never the other way around — nothing in
  /// core/ or the cache ever calls back into the service.
  mutable std::mutex mu_
      GC_ACQUIRED_BEFORE(core::PartitionPool::mu_, FlowCache::mu_);
  std::condition_variable cv_work_;   ///< queue became non-empty / unpaused
  std::condition_variable cv_space_;  ///< queue has room again
  std::condition_variable cv_idle_;   ///< queue empty and nothing in flight
  std::condition_variable cv_watchdog_;  ///< watchdog shutdown signal
  std::deque<Job> queue_ GC_GUARDED_BY(mu_);
  std::vector<WorkerState> wstate_ GC_GUARDED_BY(mu_);
  int in_flight_ GC_GUARDED_BY(mu_) = 0;
  bool paused_ GC_GUARDED_BY(mu_) = false;
  /// Workers exit (set at the end of stop()).
  bool stop_ GC_GUARDED_BY(mu_) = false;
  /// submit()/try_submit() gate.
  bool accepting_ GC_GUARDED_BY(mu_) = true;
  /// stop() entered (idempotence).
  bool stop_begun_ GC_GUARDED_BY(mu_) = false;
  bool stop_drained_ GC_GUARDED_BY(mu_) = false;
  bool watchdog_stop_ GC_GUARDED_BY(mu_) = false;
  std::atomic<bool> aborting_{false};
  std::vector<std::thread> workers_;
  std::thread watchdog_;
};

}  // namespace gc::service
