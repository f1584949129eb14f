// The ensemble scenario service: flow-cache correctness (bit-exact
// hits, invalidation, single-flight), partition leasing, and the
// bounded request queue.
#include <gtest/gtest.h>

#include <filesystem>
#include <fstream>
#include <future>
#include <thread>
#include <vector>

#include "service/flow_cache.hpp"
#include "service/scenario.hpp"
#include "service/scenario_service.hpp"
#include "temp_path.hpp"

namespace gc::service {
namespace {

namespace fs = std::filesystem;

using test::TempPath;

// A tiny but non-trivial scenario: a handful of small buildings in a
// 24x16x8 box under an eastward wind, sized so a spin-up runs in
// milliseconds.
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

TEST(FlowKeyTest, StemIsDeterministicAndSensitiveToEveryField) {
  const ScenarioRequest req = small_request();
  const lbm::Lattice lat = build_scenario_lattice(req);
  const FlowKey base = scenario_flow_key(req, lat);
  EXPECT_EQ(flow_key_stem(base), flow_key_stem(base));

  FlowKey k = base;
  k.wind.x += Real(0.01);
  EXPECT_NE(flow_key_stem(k), flow_key_stem(base));
  k = base;
  k.spin_up_steps += 1;
  EXPECT_NE(flow_key_stem(k), flow_key_stem(base));
  k = base;
  k.params.tau += Real(0.05);
  EXPECT_NE(flow_key_stem(k), flow_key_stem(base));
  k = base;
  k.params.storage = lbm::StorageMode::Sparse;
  EXPECT_NE(flow_key_stem(k), flow_key_stem(base));
  k = base;
  k.geometry_hash ^= 1;
  EXPECT_NE(flow_key_stem(k), flow_key_stem(base));
}

TEST(FlowKeyTest, GeometryHashSeesObstaclesAndBoundaries) {
  const ScenarioRequest req = small_request();
  lbm::Lattice a = build_scenario_lattice(req);
  lbm::Lattice b = build_scenario_lattice(req);
  EXPECT_EQ(geometry_hash(a), geometry_hash(b));

  // ...but NOT the distribution values: geometry is configuration.
  b.set_f(0, 0, b.f(0, 0) + Real(0.5));
  EXPECT_EQ(geometry_hash(a), geometry_hash(b));

  b.set_flag(Int3{1, 1, 1}, lbm::CellType::Solid);
  EXPECT_NE(geometry_hash(a), geometry_hash(b));

  lbm::Lattice c = build_scenario_lattice(req);
  c.set_face_bc(lbm::FACE_YMIN, lbm::FaceBc::Wall);
  EXPECT_NE(geometry_hash(a), geometry_hash(c));

  lbm::Lattice d = build_scenario_lattice(req);
  d.add_curved_link({d.idx(2, 2, 1), 3, Real(0.4)});
  EXPECT_NE(geometry_hash(a), geometry_hash(d));
}

TEST(FlowKeyTest, StorageLayoutIsPartOfTheGeometryIdentity) {
  // A sparse-built lattice stores a different layout than a dense one,
  // so its geometry hash — and with it the cache stem — must differ even
  // when every physical field matches: a checkpoint written by a dense
  // run can never satisfy a sparse request, or vice versa.
  const ScenarioRequest dense_req = small_request();
  ScenarioRequest sparse_req = dense_req;
  sparse_req.params.storage = lbm::StorageMode::Sparse;

  const lbm::Lattice dense = build_scenario_lattice(dense_req);
  const lbm::Lattice sparse = build_scenario_lattice(sparse_req);
  ASSERT_EQ(sparse.storage_mode(), lbm::StorageMode::Sparse);
  EXPECT_NE(geometry_hash(dense), geometry_hash(sparse));
  EXPECT_NE(flow_key_stem(scenario_flow_key(dense_req, dense)),
            flow_key_stem(scenario_flow_key(sparse_req, sparse)));
}

TEST(PartitionPoolTest, LeasesAreExclusiveAndReleasedOnDestruction) {
  core::PartitionSpec spec;
  spec.grid.dims = Int3{2, 1, 1};
  core::PartitionPool pool(2, spec);
  EXPECT_EQ(pool.size(), 2);
  EXPECT_EQ(pool.idle(), 2);
  {
    core::PartitionPool::Lease a = pool.acquire();
    core::PartitionPool::Lease b = pool.acquire();
    EXPECT_NE(a.partition(), b.partition());
    EXPECT_EQ(pool.idle(), 0);

    // A third acquire must block until a lease is returned.
    std::promise<int> got;
    std::future<int> got_fut = got.get_future();
    std::thread waiter([&pool, &got] {
      core::PartitionPool::Lease c = pool.acquire();
      got.set_value(c.partition());
    });
    EXPECT_EQ(got_fut.wait_for(std::chrono::milliseconds(50)),
              std::future_status::timeout);
    {
      core::PartitionPool::Lease dropped = std::move(a);
    }
    EXPECT_EQ(got_fut.wait_for(std::chrono::seconds(10)),
              std::future_status::ready);
    waiter.join();
  }
  EXPECT_EQ(pool.idle(), 2);
}

TEST(ScenarioServiceTest, CachedScenarioIsBitExactVsCold) {
  TempPath dir("svc_bitexact");
  ServiceConfig cfg = small_config(dir.path());
  ScenarioService svc(cfg);

  const ScenarioRequest req = small_request();
  const ScenarioResult cold = svc.submit(req).get();
  EXPECT_FALSE(cold.cache_hit);
  EXPECT_GE(cold.partition, 0);
  EXPECT_EQ(cold.flow_stats.steps, req.spin_up_steps);
  EXPECT_EQ(cold.particles_released, 500);
  EXPECT_EQ(cold.particles_alive + cold.particles_escaped,
            cold.particles_released);

  const ScenarioResult warm = svc.submit(req).get();
  EXPECT_TRUE(warm.cache_hit);
  EXPECT_EQ(warm.partition, -1);  // hits never lease a partition
  EXPECT_EQ(warm.flow_stats.steps, 0);

  // The tracer walk is seeded and the flow is frozen: the cached run
  // reproduces the cold run exactly, concentration field included.
  EXPECT_EQ(warm.particles_escaped, cold.particles_escaped);
  EXPECT_EQ(warm.particles_alive, cold.particles_alive);
  ASSERT_EQ(warm.concentration.size(), cold.concentration.size());
  EXPECT_EQ(warm.concentration, cold.concentration);

  const FlowCache::Stats stats = svc.cache().stats();
  EXPECT_EQ(stats.computes, 1);
  EXPECT_EQ(stats.misses, 1);
  EXPECT_EQ(stats.hits, 1);
}

TEST(ScenarioServiceTest, CacheSurvivesServiceRestart) {
  TempPath dir("svc_restart");
  const ScenarioRequest req = small_request();
  ScenarioResult cold{};
  {
    ScenarioService svc(small_config(dir.path()));
    cold = svc.submit(req).get();
    EXPECT_FALSE(cold.cache_hit);
  }
  {
    ScenarioService svc(small_config(dir.path()));
    const ScenarioResult warm = svc.submit(req).get();
    EXPECT_TRUE(warm.cache_hit);
    EXPECT_EQ(warm.concentration, cold.concentration);
    EXPECT_EQ(svc.cache().stats().computes, 0);
  }
}

TEST(ScenarioServiceTest, GeometryChangeInvalidatesTheCacheEntry) {
  TempPath dir("svc_invalidate");
  ScenarioService svc(small_config(dir.path()));

  const ScenarioRequest req = small_request();
  EXPECT_FALSE(svc.submit(req).get().cache_hit);

  // A different city seed voxelizes different buildings -> different
  // geometry hash -> a different entry, not a stale hit.
  ScenarioRequest variant = req;
  variant.city.seed += 1;
  const ScenarioResult miss = svc.submit(variant).get();
  EXPECT_FALSE(miss.cache_hit);
  EXPECT_EQ(svc.cache().stats().computes, 2);

  // Each variant is independently cached.
  EXPECT_TRUE(svc.submit(req).get().cache_hit);
  EXPECT_TRUE(svc.submit(variant).get().cache_hit);
  EXPECT_EQ(svc.cache().stats().computes, 2);
}

TEST(ScenarioServiceTest, SparseRequestNeverServedFromDenseCacheEntry) {
  TempPath dir("svc_sparse_invalidate");
  ScenarioService svc(small_config(dir.path()));

  const ScenarioRequest dense_req = small_request();
  const ScenarioResult cold = svc.submit(dense_req).get();
  EXPECT_FALSE(cold.cache_hit);

  // Same city, wind and physics on the sparse backend: a distinct cache
  // entry (geometry hash + key storage field both differ), so this must
  // recompute rather than replay the dense checkpoint...
  ScenarioRequest sparse_req = dense_req;
  sparse_req.params.storage = lbm::StorageMode::Sparse;
  const ScenarioResult sparse_cold = svc.submit(sparse_req).get();
  EXPECT_FALSE(sparse_cold.cache_hit);
  EXPECT_EQ(svc.cache().stats().computes, 2);

  // ...while producing the exact same physics: the sparse backend is
  // bit-exact, and the tracer walk is seeded.
  EXPECT_EQ(sparse_cold.particles_escaped, cold.particles_escaped);
  EXPECT_EQ(sparse_cold.particles_alive, cold.particles_alive);
  EXPECT_EQ(sparse_cold.concentration, cold.concentration);

  // Both layouts are cached independently afterwards.
  EXPECT_TRUE(svc.submit(dense_req).get().cache_hit);
  EXPECT_TRUE(svc.submit(sparse_req).get().cache_hit);
  EXPECT_EQ(svc.cache().stats().computes, 2);
}

TEST(ScenarioServiceTest, ConcurrentSameKeyRequestsRunTheLbmOnce) {
  TempPath dir("svc_singleflight");
  ServiceConfig cfg = small_config(dir.path());
  cfg.workers = 4;
  cfg.partitions = 4;
  cfg.start_paused = true;
  ScenarioService svc(cfg);

  const ScenarioRequest req = small_request();
  std::vector<std::future<ScenarioResult>> futs;
  for (int i = 0; i < 4; ++i) futs.push_back(svc.submit(req));
  EXPECT_EQ(svc.queue_depth(), 4);
  svc.start();

  std::vector<ScenarioResult> results;
  for (std::future<ScenarioResult>& f : futs) results.push_back(f.get());

  // All four requests raced in together; exactly one computed the flow
  // and everyone's answer is identical.
  EXPECT_EQ(svc.cache().stats().computes, 1);
  int hits = 0;
  for (const ScenarioResult& r : results) {
    hits += r.cache_hit ? 1 : 0;
    EXPECT_EQ(r.concentration, results.front().concentration);
  }
  EXPECT_EQ(hits, 3);
}

TEST(ScenarioServiceTest, BoundedQueueRefusesWhenFullAndRecovers) {
  TempPath dir("svc_queue");
  ServiceConfig cfg = small_config(dir.path());
  cfg.queue_capacity = 2;
  cfg.workers = 1;
  cfg.partitions = 1;
  cfg.start_paused = true;
  ScenarioService svc(cfg);

  const ScenarioRequest req = small_request();
  std::future<ScenarioResult> f1, f2, f3;
  EXPECT_TRUE(svc.try_submit(req, &f1));
  EXPECT_TRUE(svc.try_submit(req, &f2));
  EXPECT_EQ(svc.queue_depth(), 2);
  EXPECT_FALSE(svc.try_submit(req, &f3));  // full: back-pressure

  svc.start();
  EXPECT_NO_THROW(f1.get());
  EXPECT_NO_THROW(f2.get());
  svc.drain();
  EXPECT_EQ(svc.queue_depth(), 0);
  EXPECT_TRUE(svc.try_submit(req, &f3));  // room again
  EXPECT_TRUE(f3.get().cache_hit);
}

TEST(ScenarioServiceTest, CorruptedCacheEntryIsRecomputedNotServed) {
  TempPath dir("svc_corrupt");
  const ScenarioRequest req = small_request();
  ScenarioResult cold{};
  std::string ckpt_path;
  {
    ScenarioService svc(small_config(dir.path()));
    cold = svc.submit(req).get();
    const lbm::Lattice lat = build_scenario_lattice(req);
    ckpt_path = svc.cache().checkpoint_path(scenario_flow_key(req, lat));
  }
  ASSERT_TRUE(fs::exists(ckpt_path));

  // Flip one byte in the checkpoint body: the CRC envelope must reject
  // it and the cache must transparently recompute.
  {
    std::fstream f(ckpt_path, std::ios::in | std::ios::out | std::ios::binary);
    f.seekp(64);
    char b = 0;
    f.seekg(64);
    f.read(&b, 1);
    b = static_cast<char>(b ^ 0x40);
    f.seekp(64);
    f.write(&b, 1);
  }

  ScenarioService svc(small_config(dir.path()));
  const ScenarioResult redo = svc.submit(req).get();
  EXPECT_FALSE(redo.cache_hit);
  EXPECT_EQ(svc.cache().stats().computes, 1);
  EXPECT_EQ(redo.concentration, cold.concentration);
}

TEST(ScenarioServiceTest, CorruptedSizeFieldIsRecomputedNotServed) {
  TempPath dir("svc_corrupt_size");
  const ScenarioRequest req = small_request();
  ScenarioResult cold{};
  std::string ckpt_path;
  {
    ScenarioService svc(small_config(dir.path()));
    cold = svc.submit(req).get();
    const lbm::Lattice lat = build_scenario_lattice(req);
    ckpt_path = svc.cache().checkpoint_path(scenario_flow_key(req, lat));
  }
  ASSERT_TRUE(fs::exists(ckpt_path));

  // Flip a high byte of the envelope's u64 body size (bytes 8-15, little
  // endian): the header now claims ~2^62 bytes. The load must fail with a
  // typed error before sizing anything from it, and the cache must drop
  // the entry and recompute.
  {
    std::fstream f(ckpt_path, std::ios::in | std::ios::out | std::ios::binary);
    char b = 0;
    f.seekg(15);
    f.read(&b, 1);
    b = static_cast<char>(b ^ 0x40);
    f.seekp(15);
    f.write(&b, 1);
  }

  ScenarioService svc(small_config(dir.path()));
  const ScenarioResult redo = svc.submit(req).get();
  EXPECT_FALSE(redo.cache_hit);
  EXPECT_EQ(redo.concentration, cold.concentration);
  const FlowCache::Stats st = svc.cache().stats();
  EXPECT_EQ(st.hits, 0);
  EXPECT_EQ(st.misses, 1);
  EXPECT_EQ(st.computes, 1);
  // The recomputed entry replaced the corrupt one and serves hits again.
  const ScenarioResult again = svc.submit(req).get();
  EXPECT_TRUE(again.cache_hit);
  EXPECT_EQ(again.concentration, cold.concentration);
}

TEST(ScenarioServiceTest, ServiceMetricsLandInTheTrace) {
  TempPath dir("svc_obs");
  obs::TraceRecorder rec;
  ServiceConfig cfg = small_config(dir.path());
  cfg.trace = &rec;
  ScenarioService svc(cfg);

  const ScenarioRequest req = small_request();
  svc.submit(req).get();
  svc.submit(req).get();

  EXPECT_EQ(rec.counter("service.requests"), 2);
  EXPECT_EQ(rec.counter("service.cache_misses"), 1);
  EXPECT_EQ(rec.counter("service.cache_hits"), 1);

  int scenario_spans = 0, flow_spans = 0, tracer_spans = 0;
  for (const obs::TraceEvent& e : rec.events()) {
    if (e.name == "service.scenario") ++scenario_spans;
    if (e.name == "service.flow") ++flow_spans;
    if (e.name == "service.tracer") ++tracer_spans;
  }
  EXPECT_EQ(scenario_spans, 2);
  EXPECT_EQ(flow_spans, 1);  // only the miss ran the LBM
  EXPECT_EQ(tracer_spans, 2);
}

TEST(ScenarioServiceTest, DistinctWindsBatchAcrossPartitions) {
  TempPath dir("svc_batch");
  ServiceConfig cfg = small_config(dir.path());
  cfg.workers = 2;
  cfg.partitions = 2;
  ScenarioService svc(cfg);

  ScenarioRequest east = small_request();
  ScenarioRequest slow = small_request();
  slow.wind.velocity = Vec3{Real(0.03), Real(0), Real(0)};

  std::future<ScenarioResult> fe = svc.submit(east);
  std::future<ScenarioResult> fs = svc.submit(slow);
  const ScenarioResult re = fe.get();
  const ScenarioResult rs = fs.get();
  EXPECT_FALSE(re.cache_hit);
  EXPECT_FALSE(rs.cache_hit);
  EXPECT_EQ(svc.cache().stats().computes, 2);
  // Different winds must give different plumes (sanity that the key
  // distinguished them and both flows actually ran).
  EXPECT_NE(re.concentration, rs.concentration);
}

}  // namespace
}  // namespace gc::service
