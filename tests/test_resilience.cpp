// Service-level resilience: partition quarantine / probation state
// machine, retry-on-a-different-partition, request deadlines (queued and
// mid-run, via the watchdog), graceful stop(deadline), and the byte-
// bounded self-healing flow cache.
#include <gtest/gtest.h>

#include <chrono>
#include <filesystem>
#include <fstream>
#include <future>
#include <thread>
#include <vector>

#include "core/partition.hpp"
#include "netsim/fault.hpp"
#include "service/errors.hpp"
#include "service/flow_cache.hpp"
#include "service/scenario.hpp"
#include "service/scenario_service.hpp"
#include "util/timer.hpp"
#include "temp_path.hpp"

namespace gc::service {
namespace {

namespace fs = std::filesystem;

using test::TempPath;

ScenarioRequest small_request() {
  ScenarioRequest req;
  req.dim = Int3{24, 16, 8};
  req.city.extent_x_m = Real(60);
  req.city.extent_y_m = Real(40);
  req.city.avenues = 2;
  req.city.streets = 2;
  req.city.mean_height_m = Real(12);
  req.city.tall_height_m = Real(20);
  req.voxel.meters_per_cell = Real(3.8);
  req.voxel.origin_cells = Int3{4, 2, 0};
  req.wind.velocity = Vec3{Real(0.05), Real(0), Real(0)};
  req.spin_up_steps = 12;
  req.releases.push_back(Release{Int3{3, 8, 1}, 500});
  req.tracer_steps = 25;
  req.tracer_seed = 99;
  return req;
}

ServiceConfig small_config(const std::string& cache_dir) {
  ServiceConfig cfg;
  cfg.cache_dir = cache_dir;
  cfg.workers = 2;
  cfg.partitions = 2;
  cfg.partition.grid.dims = Int3{2, 1, 1};
  return cfg;
}

double gauge_value(const obs::TraceRecorder& rec, const std::string& name) {
  for (const obs::GaugeSample& g : rec.gauges()) {
    if (g.name == name) return g.value;
  }
  return -1;
}

// --- quarantine / probation state machine ----------------------------------

core::PartitionSpec quarantine_spec(obs::TraceRecorder* rec,
                                    double probation_ms) {
  core::PartitionSpec spec;
  spec.grid.dims = Int3{1, 1, 1};
  spec.failure_threshold = 2;
  spec.probation_ms = probation_ms;
  spec.health_trace = rec;
  return spec;
}

TEST(QuarantineTest, FailureThresholdTripsBreaker) {
  obs::TraceRecorder rec;
  core::PartitionPool pool(2, quarantine_spec(&rec, /*probation_ms=*/60000));
  using Health = core::PartitionPool::Health;

  pool.report_failure(0);
  EXPECT_EQ(pool.health(0), Health::kHealthy);  // one strike is not enough
  EXPECT_EQ(pool.quarantined(), 0);

  pool.report_failure(0);
  EXPECT_EQ(pool.health(0), Health::kQuarantined);
  EXPECT_EQ(pool.quarantined(), 1);
  EXPECT_EQ(rec.counter("service.quarantined"), 1);
  EXPECT_EQ(gauge_value(rec, "service.degraded"), 1.0);

  // A quarantined slot is never handed out while its probation runs:
  // with slot 0 sick, every acquire lands on slot 1.
  for (int i = 0; i < 3; ++i) {
    core::PartitionPool::Lease lease = pool.acquire();
    EXPECT_EQ(lease.partition(), 1);
  }

  // Success elsewhere does not heal slot 0.
  pool.report_success(1);
  EXPECT_EQ(pool.health(0), Health::kQuarantined);
}

TEST(QuarantineTest, ProbationReadmitsAfterHealthyProbe) {
  obs::TraceRecorder rec;
  core::PartitionPool pool(1, quarantine_spec(&rec, /*probation_ms=*/20));
  using Health = core::PartitionPool::Health;

  pool.report_failure(0);
  pool.report_failure(0);
  ASSERT_EQ(pool.health(0), Health::kQuarantined);

  std::this_thread::sleep_for(std::chrono::milliseconds(40));
  // The elapsed probation window promotes the slot to a probe...
  EXPECT_EQ(pool.health(0), Health::kProbation);
  EXPECT_EQ(gauge_value(rec, "service.degraded"), 0.0);
  {
    core::PartitionPool::Lease probe = pool.acquire();
    EXPECT_EQ(probe.partition(), 0);  // probes are handed out
  }
  // ...and a healthy probe re-admits it fully.
  pool.report_success(0);
  EXPECT_EQ(pool.health(0), Health::kHealthy);
  EXPECT_EQ(pool.quarantined(), 0);
  EXPECT_EQ(rec.counter("service.quarantined"), 1);
}

TEST(QuarantineTest, ProbationFailureRequarantines) {
  obs::TraceRecorder rec;
  core::PartitionPool pool(1, quarantine_spec(&rec, /*probation_ms=*/20));
  using Health = core::PartitionPool::Health;

  pool.report_failure(0);
  pool.report_failure(0);
  std::this_thread::sleep_for(std::chrono::milliseconds(40));
  ASSERT_EQ(pool.health(0), Health::kProbation);

  // One failed probe is enough — no second chance at the threshold.
  pool.report_failure(0);
  EXPECT_EQ(pool.health(0), Health::kQuarantined);
  EXPECT_EQ(rec.counter("service.quarantined"), 2);
  EXPECT_EQ(gauge_value(rec, "service.degraded"), 1.0);
}

// --- retries ---------------------------------------------------------------

/// Reliability knobs fast enough for tests: a blackholed exchange fails
/// in ~recv_timeout_ms * max_retries instead of the production seconds.
netsim::ReliabilityConfig fast_reliability(double timeout_ms, int retries) {
  netsim::ReliabilityConfig rel;
  rel.recv_timeout_ms = timeout_ms;
  rel.max_retries = retries;
  return rel;
}

TEST(ResilienceTest, RetryLandsOnADifferentPartition) {
  TempPath dir("res_retry");
  obs::TraceRecorder rec;
  // Slot 0 drops every message on the floor; slot 1 is healthy. The
  // first attempt must fail with CommTimeout and the retry must route
  // to slot 1 and succeed.
  netsim::FaultSpec dead(7);
  dead.blackholes.push_back(netsim::ChannelBlackhole{});  // wildcard: all

  ServiceConfig cfg = small_config(dir.path());
  cfg.workers = 1;
  cfg.trace = &rec;
  cfg.partition.reliability = fast_reliability(5, 1);
  cfg.partition.max_rollbacks = 0;  // first comm failure is terminal
  cfg.partition_faults = {&dead, nullptr};
  cfg.retry.max_attempts = 3;
  ScenarioService svc(cfg);

  const ScenarioResult res = svc.submit(small_request()).get();
  EXPECT_EQ(res.partition, 1);
  EXPECT_FALSE(res.cache_hit);
  EXPECT_GE(rec.counter("service.retries"), 1);
}

TEST(ResilienceTest, AllPartitionsFailingYieldsScenarioFailed) {
  TempPath dir("res_allfail");
  netsim::FaultSpec dead_a(7);
  dead_a.blackholes.push_back(netsim::ChannelBlackhole{});
  netsim::FaultSpec dead_b(8);
  dead_b.blackholes.push_back(netsim::ChannelBlackhole{});

  ServiceConfig cfg = small_config(dir.path());
  cfg.workers = 1;
  cfg.partition.reliability = fast_reliability(5, 1);
  cfg.partition.max_rollbacks = 0;
  cfg.partition_faults = {&dead_a, &dead_b};
  cfg.retry.max_attempts = 2;
  cfg.retry.backoff_ms = 1;
  ScenarioService svc(cfg);

  std::future<ScenarioResult> fut = svc.submit(small_request());
  EXPECT_THROW(fut.get(), ScenarioFailed);
}

// --- deadlines -------------------------------------------------------------

TEST(ResilienceTest, DeadlineExpiredInQueueIsTyped) {
  TempPath dir("res_queue_deadline");
  obs::TraceRecorder rec;
  ServiceConfig cfg = small_config(dir.path());
  cfg.trace = &rec;
  cfg.start_paused = true;  // nothing ever dequeues it
  ScenarioService svc(cfg);

  ScenarioRequest req = small_request();
  req.deadline_ms = 30;
  std::future<ScenarioResult> fut = svc.submit(req);
  EXPECT_THROW(fut.get(), DeadlineExceeded);
  EXPECT_GE(rec.counter("service.deadline_expired"), 1);
  EXPECT_EQ(svc.queue_depth(), 0);  // the watchdog removed it

  // The service is still healthy: an undeadlined request completes.
  svc.start();
  EXPECT_NO_THROW(svc.submit(small_request()).get());
}

TEST(ResilienceTest, WatchdogAbortsAStuckLease) {
  TempPath dir("res_watchdog");
  obs::TraceRecorder rec;
  // Slot 0 is a tar pit: everything blackholed under a 10-second receive
  // timeout, so without the watchdog the run would hang for ~100 s.
  netsim::FaultSpec dead(7);
  dead.blackholes.push_back(netsim::ChannelBlackhole{});

  ServiceConfig cfg = small_config(dir.path());
  cfg.workers = 1;
  cfg.partitions = 1;
  cfg.trace = &rec;
  cfg.partition.reliability = fast_reliability(10000, 10);
  cfg.partition_faults = {&dead};
  cfg.retry.max_attempts = 1;
  ScenarioService svc(cfg);

  ScenarioRequest req = small_request();
  req.deadline_ms = 150;
  Timer t;
  std::future<ScenarioResult> fut = svc.submit(req);
  EXPECT_THROW(fut.get(), DeadlineExceeded);
  // The abort must land promptly — nowhere near the 10 s receive wait.
  EXPECT_LT(t.millis(), 5000.0);
  EXPECT_GE(rec.counter("service.deadline_expired"), 1);
}

// --- stop(deadline) --------------------------------------------------------

TEST(ResilienceTest, StopDrainsInFlightWorkWhenGivenTime) {
  TempPath dir("res_stop_drain");
  ScenarioService svc(small_config(dir.path()));
  std::future<ScenarioResult> f1 = svc.submit(small_request());
  ScenarioRequest other = small_request();
  other.tracer_seed = 123;
  std::future<ScenarioResult> f2 = svc.submit(other);

  EXPECT_TRUE(svc.stop(/*deadline_ms=*/-1));  // full drain
  EXPECT_NO_THROW(f1.get());
  EXPECT_NO_THROW(f2.get());
  EXPECT_THROW(svc.submit(small_request()), ServiceStopped);
  std::future<ScenarioResult> f3;
  EXPECT_FALSE(svc.try_submit(small_request(), &f3));
  EXPECT_TRUE(svc.stop(0));  // idempotent: reports the drained outcome
}

TEST(ResilienceTest, StopZeroFailsTheRemainderTyped) {
  TempPath dir("res_stop_now");
  ServiceConfig cfg = small_config(dir.path());
  cfg.workers = 1;
  cfg.partitions = 1;
  cfg.start_paused = true;
  ScenarioService svc(cfg);

  // Three distinct scenarios queued behind one parked worker.
  std::vector<std::future<ScenarioResult>> futs;
  for (int i = 0; i < 3; ++i) {
    ScenarioRequest req = small_request();
    req.wind.velocity.x = Real(0.03) + Real(0.01) * i;
    futs.push_back(svc.submit(req));
  }
  EXPECT_FALSE(svc.stop(0));

  // At most one scenario can have slipped into execution between the
  // unpause and the abort; everything else must fail as ServiceStopped.
  int stopped = 0, completed = 0;
  for (std::future<ScenarioResult>& f : futs) {
    try {
      f.get();
      ++completed;
    } catch (const ServiceStopped&) {
      ++stopped;
    }
  }
  EXPECT_GE(stopped, 2);
  EXPECT_EQ(stopped + completed, 3);
}

TEST(ResilienceTest, StopZeroAbortsAnInFlightRun) {
  TempPath dir("res_stop_abort");
  ServiceConfig cfg = small_config(dir.path());
  cfg.workers = 1;
  cfg.partitions = 1;
  ScenarioService svc(cfg);

  // A long spin-up guarantees the run is mid-flight when stop lands.
  ScenarioRequest req = small_request();
  req.spin_up_steps = 5000;
  std::future<ScenarioResult> fut = svc.submit(req);
  std::this_thread::sleep_for(std::chrono::milliseconds(30));

  Timer t;
  EXPECT_FALSE(svc.stop(0));
  EXPECT_THROW(fut.get(), ServiceStopped);
  EXPECT_LT(t.millis(), 10000.0);  // aborted, not run to completion
}

// --- bounded self-healing flow cache ---------------------------------------

/// Distinct fabricated keys: the cache treats the key as an opaque name,
/// so varying one field is enough to address separate entries.
FlowKey test_key(int i) {
  FlowKey k;
  k.geometry_hash = 0xabcdef;
  k.dim = Int3{24, 16, 8};
  k.spin_up_steps = 100 + i;
  return k;
}

lbm::Lattice test_flow() { return build_scenario_lattice(small_request()); }

/// Committed entry size (checkpoint + manifest) for test_flow lattices.
i64 measure_entry_bytes() {
  TempPath dir("fcb_measure");
  FlowCache cache(dir.path());
  cache.get_or_compute(test_key(0), &test_flow);
  return cache.bytes();
}

TEST(FlowCacheBoundTest, EvictsLeastRecentlyUsedUnderBudget) {
  const i64 entry = measure_entry_bytes();
  ASSERT_GT(entry, 0);
  TempPath dir("fcb_lru");
  FlowCacheConfig cfg;
  cfg.max_bytes = entry * 2 + entry / 2;  // room for two entries, not three
  obs::TraceRecorder rec;
  cfg.trace = &rec;
  FlowCache cache(dir.path(), cfg);

  cache.get_or_compute(test_key(0), &test_flow);
  cache.get_or_compute(test_key(1), &test_flow);
  EXPECT_LE(cache.bytes(), cfg.max_bytes);
  // Touch key 0 so key 1 becomes the LRU victim.
  EXPECT_TRUE(cache.get_or_compute(test_key(0), &test_flow).hit);

  cache.get_or_compute(test_key(2), &test_flow);
  EXPECT_LE(cache.bytes(), cfg.max_bytes);
  EXPECT_TRUE(cache.contains(test_key(0)));
  EXPECT_FALSE(cache.contains(test_key(1)));
  EXPECT_TRUE(cache.contains(test_key(2)));
  EXPECT_EQ(cache.stats().evictions, 1);
  EXPECT_EQ(rec.counter("service.cache_evictions"), 1);
  EXPECT_EQ(gauge_value(rec, "service.cache_bytes"),
            static_cast<double>(cache.bytes()));
}

TEST(FlowCacheBoundTest, BudgetHoldsEvenWhenOneEntryExceedsIt) {
  const i64 entry = measure_entry_bytes();
  TempPath dir("fcb_tiny");
  FlowCacheConfig cfg;
  cfg.max_bytes = entry / 2;
  FlowCache cache(dir.path(), cfg);

  // The compute still succeeds — the caller gets its flow — but the
  // entry cannot stay on disk.
  const FlowCache::Entry e = cache.get_or_compute(test_key(0), &test_flow);
  EXPECT_FALSE(e.hit);
  EXPECT_LE(cache.bytes(), cfg.max_bytes);
  EXPECT_FALSE(cache.contains(test_key(0)));
  EXPECT_EQ(cache.stats().evictions, 1);
}

TEST(FlowCacheBoundTest, StartupScavengesCrashDebris) {
  TempPath dir("fcb_scavenge");
  fs::create_directories(dir.path());
  // Crash debris of three kinds: a torn atomic write, a checkpoint whose
  // process died before the manifest (the commit crash window), and a
  // manifest whose checkpoint was half-evicted.
  std::ofstream(dir.path() + "/flow_dead.gclb.tmp") << "torn";
  std::ofstream(dir.path() + "/flow_orphan.gclb") << "no manifest";
  std::ofstream(dir.path() + "/flow_ghost.gcmf") << "no checkpoint";

  FlowCache cache(dir.path());
  EXPECT_EQ(cache.stats().scavenged, 3);
  EXPECT_EQ(cache.bytes(), 0);
  EXPECT_FALSE(fs::exists(dir.path() + "/flow_dead.gclb.tmp"));
  EXPECT_FALSE(fs::exists(dir.path() + "/flow_orphan.gclb"));
  EXPECT_FALSE(fs::exists(dir.path() + "/flow_ghost.gcmf"));
}

TEST(FlowCacheBoundTest, CrashWindowCheckpointWithoutManifestIsRecomputed) {
  TempPath dir("fcb_crashwindow");
  std::string mani;
  {
    FlowCache cache(dir.path());
    cache.get_or_compute(test_key(0), &test_flow);
    mani = cache.manifest_path(test_key(0));
  }
  // Simulate a crash between the checkpoint write and the manifest
  // write: the checkpoint exists, the manifest does not.
  ASSERT_TRUE(fs::exists(mani));
  fs::remove(mani);

  FlowCache cache(dir.path());
  EXPECT_EQ(cache.stats().scavenged, 1);
  EXPECT_FALSE(cache.contains(test_key(0)));
  const FlowCache::Entry e = cache.get_or_compute(test_key(0), &test_flow);
  EXPECT_FALSE(e.hit);  // recomputed, not served from the half-commit
  EXPECT_EQ(cache.stats().computes, 1);
  EXPECT_TRUE(cache.contains(test_key(0)));
}

TEST(FlowCacheBoundTest, SingleFlightSurvivesABoundedBudget) {
  const i64 entry = measure_entry_bytes();
  TempPath dir("fcb_singleflight");
  FlowCacheConfig cfg;
  cfg.max_bytes = entry * 2;
  FlowCache cache(dir.path(), cfg);

  std::vector<std::thread> threads;
  std::vector<i64> steady(4, 0);
  for (int i = 0; i < 4; ++i) {
    threads.emplace_back([&cache, &steady, i] {
      const FlowCache::Entry e = cache.get_or_compute(test_key(7), &test_flow);
      steady[static_cast<std::size_t>(i)] = e.steady_step;
    });
  }
  for (std::thread& t : threads) t.join();

  EXPECT_EQ(cache.stats().computes, 1);
  EXPECT_EQ(cache.stats().hits, 3);
  EXPECT_LE(cache.bytes(), cfg.max_bytes);
  for (const i64 s : steady) EXPECT_EQ(s, test_key(7).spin_up_steps);
}

}  // namespace
}  // namespace gc::service
