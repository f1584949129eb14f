#include "service/scenario_service.hpp"

#include <algorithm>
#include <chrono>
#include <limits>
#include <utility>

#include "tracer/tracer.hpp"

namespace gc::service {

namespace {

constexpr double kNoDeadline = std::numeric_limits<double>::infinity();

}  // namespace

core::PartitionSpec ScenarioService::pool_spec(const ServiceConfig& cfg) {
  core::PartitionSpec spec = cfg.partition;
  if (!spec.health_trace) spec.health_trace = cfg.trace;
  if (spec.recovery_dir.empty() && !cfg.partition_faults.empty()) {
    spec.recovery_dir = cfg.cache_dir + "/recovery";
  }
  return spec;
}

ScenarioService::ScenarioService(ServiceConfig cfg)
    : cfg_(std::move(cfg)),
      cache_(cfg_.cache_dir,
             FlowCacheConfig{cfg_.cache_max_bytes, cfg_.trace}),
      pool_(cfg_.partitions, pool_spec(cfg_)),
      paused_(cfg_.start_paused) {
  GC_CHECK_MSG(cfg_.queue_capacity >= 1, "service queue capacity must be >= 1");
  GC_CHECK_MSG(cfg_.workers >= 1, "the service needs at least one worker");
  GC_CHECK_MSG(cfg_.retry.max_attempts >= 1,
               "RetryPolicy.max_attempts must be >= 1");
  GC_CHECK_MSG(static_cast<int>(cfg_.partition_faults.size()) <=
                   cfg_.partitions,
               "more partition_faults entries than partitions");
  for (std::size_t i = 0; i < cfg_.partition_faults.size(); ++i) {
    if (cfg_.partition_faults[i]) {
      pool_.set_faults(static_cast<int>(i), cfg_.partition_faults[i]);
    }
  }
  wstate_.resize(static_cast<std::size_t>(cfg_.workers));
  watchdog_ = std::thread([this] { watchdog_loop(); });
  workers_.reserve(static_cast<std::size_t>(cfg_.workers));
  for (int w = 0; w < cfg_.workers; ++w) {
    workers_.emplace_back([this, w] { worker_loop(w); });
  }
}

ScenarioService::~ScenarioService() { stop(0); }

bool ScenarioService::stop(double deadline_ms) {
  {
    std::unique_lock<std::mutex> lock(mu_);
    if (stop_begun_) return stop_drained_;
    stop_begun_ = true;
    accepting_ = false;  // refuse new work from this moment on
    paused_ = false;     // a paused service must still drain
  }
  cv_work_.notify_all();
  cv_space_.notify_all();

  // Phase 1: drain. Queued and in-flight scenarios keep running until
  // the deadline; a negative deadline waits them all out.
  bool drained = false;
  {
    std::unique_lock<std::mutex> lock(mu_);
    if (deadline_ms < 0) {
      cv_idle_.wait(lock, [this] { return queue_.empty() && in_flight_ == 0; });
      drained = true;
    } else {
      const double t_end = clock_.millis() + deadline_ms;
      for (;;) {
        if (queue_.empty() && in_flight_ == 0) {
          drained = true;
          break;
        }
        const double left = t_end - clock_.millis();
        if (left <= 0) break;
        cv_idle_.wait_for(
            lock, std::chrono::duration<double, std::milli>(
                      std::min(left, 50.0)),
            [this] { return queue_.empty() && in_flight_ == 0; });
      }
    }
  }

  // Phase 2: fail the remainder. The aborting_ flag turns every pending
  // wait (partition acquire, retry loop, tracer loop) into a
  // ServiceStopped throw, and aborting the pool wakes runs blocked deep
  // inside a communicator exchange.
  std::deque<Job> orphans;
  if (!drained) {
    aborting_.store(true, std::memory_order_release);
    {
      std::unique_lock<std::mutex> lock(mu_);
      orphans.swap(queue_);
      set_queue_gauge(0);
    }
    pool_.abort_all();
  }

  {
    std::unique_lock<std::mutex> lock(mu_);
    stop_ = true;
  }
  cv_work_.notify_all();
  cv_space_.notify_all();
  for (std::thread& t : workers_) t.join();
  workers_.clear();
  {
    std::unique_lock<std::mutex> lock(mu_);
    watchdog_stop_ = true;
  }
  cv_watchdog_.notify_all();
  if (watchdog_.joinable()) watchdog_.join();

  for (Job& job : orphans) {
    job.promise.set_exception(std::make_exception_ptr(ServiceStopped(
        "scenario service stopped before this request ran")));
  }
  {
    std::unique_lock<std::mutex> lock(mu_);
    stop_drained_ = drained;
  }
  return drained;
}

void ScenarioService::set_queue_gauge(int depth) {
  if (cfg_.trace) cfg_.trace->set_gauge("service.queue_depth", 0, depth);
}

void ScenarioService::set_worker_slot(int worker, int slot, u64 lease) {
  std::unique_lock<std::mutex> lock(mu_);
  WorkerState& ws = wstate_[static_cast<std::size_t>(worker)];
  ws.slot = slot;
  ws.lease = lease;
  ws.killed = false;
}

bool ScenarioService::expired(double deadline_at) const {
  return clock_.millis() > deadline_at;
}

std::future<ScenarioResult> ScenarioService::submit(ScenarioRequest req) {
  Job job;
  job.deadline_at = req.deadline_ms > 0 ? clock_.millis() + req.deadline_ms
                                        : kNoDeadline;
  job.req = std::move(req);
  std::future<ScenarioResult> fut = job.promise.get_future();
  {
    std::unique_lock<std::mutex> lock(mu_);
    cv_space_.wait(lock, [this] {
      return !accepting_ ||
             static_cast<int>(queue_.size()) < cfg_.queue_capacity;
    });
    if (!accepting_) {
      throw ServiceStopped("submit() on a stopped scenario service");
    }
    queue_.push_back(std::move(job));
    if (cfg_.trace) cfg_.trace->add_counter("service.requests", 0, 1);
    set_queue_gauge(static_cast<int>(queue_.size()));
  }
  cv_work_.notify_one();
  return fut;
}

bool ScenarioService::try_submit(ScenarioRequest req,
                                 std::future<ScenarioResult>* out) {
  Job job;
  job.deadline_at = req.deadline_ms > 0 ? clock_.millis() + req.deadline_ms
                                        : kNoDeadline;
  job.req = std::move(req);
  std::future<ScenarioResult> fut = job.promise.get_future();
  {
    std::unique_lock<std::mutex> lock(mu_);
    if (!accepting_ ||
        static_cast<int>(queue_.size()) >= cfg_.queue_capacity) {
      return false;
    }
    queue_.push_back(std::move(job));
    if (cfg_.trace) cfg_.trace->add_counter("service.requests", 0, 1);
    set_queue_gauge(static_cast<int>(queue_.size()));
  }
  cv_work_.notify_one();
  if (out) *out = std::move(fut);
  return true;
}

void ScenarioService::start() {
  {
    std::unique_lock<std::mutex> lock(mu_);
    paused_ = false;
  }
  cv_work_.notify_all();
}

void ScenarioService::drain() {
  std::unique_lock<std::mutex> lock(mu_);
  cv_idle_.wait(lock, [this] { return queue_.empty() && in_flight_ == 0; });
}

int ScenarioService::queue_depth() const {
  std::unique_lock<std::mutex> lock(mu_);
  return static_cast<int>(queue_.size());
}

void ScenarioService::worker_loop(int worker) {
  for (;;) {
    Job job;
    {
      std::unique_lock<std::mutex> lock(mu_);
      cv_work_.wait(lock, [this] {
        return stop_ || (!paused_ && !queue_.empty());
      });
      if (stop_) return;
      job = std::move(queue_.front());
      queue_.pop_front();
      in_flight_ += 1;
      WorkerState& ws = wstate_[static_cast<std::size_t>(worker)];
      ws = WorkerState{};
      ws.deadline_at = job.deadline_at;
      set_queue_gauge(static_cast<int>(queue_.size()));
    }
    cv_space_.notify_one();
    try {
      job.promise.set_value(run_scenario(job.req, worker, job.deadline_at));
    } catch (const DeadlineExceeded&) {
      if (cfg_.trace) {
        cfg_.trace->add_counter("service.deadline_expired", 0, 1);
      }
      job.promise.set_exception(std::current_exception());
    } catch (const std::exception&) {
      job.promise.set_exception(std::current_exception());
    }
    {
      std::unique_lock<std::mutex> lock(mu_);
      WorkerState& ws = wstate_[static_cast<std::size_t>(worker)];
      ws = WorkerState{};
      ws.deadline_at = kNoDeadline;
      in_flight_ -= 1;
      if (queue_.empty() && in_flight_ == 0) cv_idle_.notify_all();
    }
  }
}

void ScenarioService::watchdog_loop() {
  for (;;) {
    std::vector<std::promise<ScenarioResult>> late;
    std::vector<std::pair<int, u64>> kills;
    {
      std::unique_lock<std::mutex> lock(mu_);
      cv_watchdog_.wait_for(lock, std::chrono::milliseconds(10),
                            [this] { return watchdog_stop_; });
      if (watchdog_stop_) return;
      const double now = clock_.millis();
      // Queued requests past their deadline fail right here — no point
      // occupying a worker (or a partition) for a result nobody can use.
      for (auto it = queue_.begin(); it != queue_.end();) {
        if (now > it->deadline_at) {
          late.push_back(std::move(it->promise));
          it = queue_.erase(it);
        } else {
          ++it;
        }
      }
      if (!late.empty()) {
        set_queue_gauge(static_cast<int>(queue_.size()));
        if (queue_.empty() && in_flight_ == 0) cv_idle_.notify_all();
      }
      // In-flight runs past their deadline get their partition lease
      // aborted (once). The worker translates the abort back into
      // DeadlineExceeded; phases that hold no lease poll expired()
      // themselves.
      for (WorkerState& ws : wstate_) {
        if (ws.slot >= 0 && !ws.killed && now > ws.deadline_at) {
          ws.killed = true;
          kills.emplace_back(ws.slot, ws.lease);
        }
      }
    }
    if (!late.empty()) cv_space_.notify_all();
    for (std::promise<ScenarioResult>& p : late) {
      if (cfg_.trace) {
        cfg_.trace->add_counter("service.deadline_expired", 0, 1);
      }
      p.set_exception(std::make_exception_ptr(
          DeadlineExceeded("request deadline expired in the queue")));
    }
    // Aborts run outside mu_: abort_lease takes the pool lock, and the
    // lease id keeps a stale decision from killing the slot's next
    // tenant.
    for (const auto& [slot, lease] : kills) pool_.abort_lease(slot, lease);
  }
}

ScenarioResult ScenarioService::run_scenario(const ScenarioRequest& req,
                                             int worker, double deadline_at) {
  obs::ScopedSpan span(cfg_.trace, "service.scenario", worker, "service");
  ScenarioResult res;
  if (aborting()) throw ServiceStopped("service stopped");
  if (expired(deadline_at)) {
    throw DeadlineExceeded("request deadline expired before the flow phase");
  }

  lbm::Lattice lat = build_scenario_lattice(req);
  const FlowKey key = scenario_flow_key(req, lat);

  Timer flow_timer;
  FlowCache::Entry entry = cache_.get_or_compute(key, [&]() -> lbm::Lattice {
    // Cache miss: lease a cluster partition and spin the flow up. The
    // lease is acquired only inside the compute closure, so cache hits
    // never occupy a partition and hit latency is independent of
    // cluster load.
    obs::ScopedSpan flow_span(cfg_.trace, "service.flow", worker, "service");
    return compute_flow(req, worker, deadline_at, &res.flow_stats,
                        &res.partition);
  });
  res.flow_ms = flow_timer.millis();
  res.cache_hit = entry.hit;
  if (cfg_.trace) {
    cfg_.trace->add_counter(
        entry.hit ? "service.cache_hits" : "service.cache_misses", 0, 1);
  }

  Timer tracer_timer;
  {
    obs::ScopedSpan tracer_span(cfg_.trace, "service.tracer", worker,
                                "service");
    tracer::TracerParams tp;
    tp.seed = req.tracer_seed;
    tracer::TracerCloud cloud(tp);
    for (const Release& r : req.releases) {
      cloud.release(r.site, r.count);
      res.particles_released += r.count;
    }
    for (int s = 0; s < req.tracer_steps; ++s) {
      // The tracer phase holds no lease the watchdog could abort, so it
      // polls its own cancellation — cheaply, every few steps.
      if ((s & 7) == 0) {
        if (aborting()) throw ServiceStopped("service stopped mid-tracer");
        if (expired(deadline_at)) {
          throw DeadlineExceeded("request deadline expired mid-tracer");
        }
      }
      cloud.step(entry.flow);
    }
    res.particles_escaped = cloud.num_escaped();
    res.particles_alive = cloud.num_particles();
    cloud.deposit(entry.flow, res.concentration);
  }
  res.tracer_ms = tracer_timer.millis();
  return res;
}

lbm::Lattice ScenarioService::compute_flow(const ScenarioRequest& req,
                                           int worker, double deadline_at,
                                           obs::RunStats* stats,
                                           int* partition_out) {
  const int attempts = std::max(1, cfg_.retry.max_attempts);
  int exclude = -1;  // retries prefer a different partition
  for (int attempt = 1;; ++attempt) {
    if (aborting()) {
      throw ServiceStopped("service stopped before the flow could run");
    }
    if (expired(deadline_at)) {
      throw DeadlineExceeded("request deadline expired before the flow ran");
    }
    // A fresh cold-start lattice per attempt: a failed run leaves its
    // state mid-rollback, and bit-exactness demands every attempt start
    // from the same bytes.
    lbm::Lattice lat = build_scenario_lattice(req);
    std::optional<core::PartitionPool::Lease> lease;
    try {
      lease = pool_.acquire_until(exclude, [this, deadline_at] {
        // Runs under the pool lock: atomics and the steady clock only.
        return aborting() || expired(deadline_at);
      });
    } catch (const core::LeaseAbortedError&) {
      throw ServiceStopped("service stopped while waiting for a partition");
    }
    if (!lease) {
      if (aborting()) {
        throw ServiceStopped("service stopped while waiting for a partition");
      }
      throw DeadlineExceeded(
          "request deadline expired waiting for a partition");
    }
    const int slot = lease->partition();
    set_worker_slot(worker, slot, lease->lease_id());
    try {
      const obs::RunStats st = lease->run(lat, req.spin_up_steps, req.params);
      set_worker_slot(worker, -1, 0);
      lease.reset();  // release before reporting: keep the slot turning over
      pool_.report_success(slot);
      *stats = st;
      *partition_out = slot;
      return lat;
    } catch (const core::LeaseAbortedError&) {
      set_worker_slot(worker, -1, 0);
      lease.reset();
      // Externally cancelled, not a partition failure: no health report,
      // no retry. Translate to the cause of the cancellation.
      if (aborting()) throw ServiceStopped("service stopped mid-flow");
      throw DeadlineExceeded("deadline watchdog aborted the flow run");
    } catch (const Error& e) {
      set_worker_slot(worker, -1, 0);
      lease.reset();
      pool_.report_failure(slot);
      if (attempt >= attempts) {
        throw ScenarioFailed("flow compute failed after " +
                             std::to_string(attempt) +
                             " attempt(s); last error: " + e.what());
      }
      if (cfg_.trace) cfg_.trace->add_counter("service.retries", 0, 1);
      exclude = slot;
      if (cfg_.retry.backoff_ms > 0) {
        std::this_thread::sleep_for(std::chrono::duration<double, std::milli>(
            cfg_.retry.backoff_ms * attempt));
      }
    }
  }
}

}  // namespace gc::service
