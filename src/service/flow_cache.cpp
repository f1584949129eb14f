#include "service/flow_cache.hpp"

#include <algorithm>
#include <cstdio>
#include <filesystem>
#include <system_error>
#include <utility>
#include <vector>

#include "io/checkpoint.hpp"
#include "util/checksum.hpp"

namespace gc::service {

namespace {

// Incremental two-seed CRC digest. crc32 is 32 bits; hashing the same
// byte stream under two different seeds and packing the results yields
// the u64 digests the cache keys on. Not cryptographic — the cache is a
// performance layer over trusted local state, and a (vanishingly rare)
// collision costs correctness of one entry name, which the bit-exact
// service tests would catch.
struct Digest64 {
  u32 lo = 0;
  u32 hi = 0x9e3779b9u;  // any fixed second seed works; this is 2^32/phi

  void bytes(const void* p, std::size_t n) {
    lo = crc32(p, n, lo);
    hi = crc32(p, n, hi);
  }
  template <typename T>
  void pod(const T& v) {
    bytes(&v, sizeof(T));
  }
  u64 value() const { return (static_cast<u64>(hi) << 32) | lo; }
};

/// Runs `fn` when the enclosing scope ends, however it ends.
template <typename Fn>
class ScopeExit {
 public:
  explicit ScopeExit(Fn fn) : fn_(std::move(fn)) {}
  ~ScopeExit() { fn_(); }
  ScopeExit(const ScopeExit&) = delete;
  ScopeExit& operator=(const ScopeExit&) = delete;

 private:
  Fn fn_;
};

}  // namespace

u64 geometry_hash(const lbm::Lattice& lat) {
  Digest64 d;
  const Int3 dim = lat.dim();
  d.pod(dim.x);
  d.pod(dim.y);
  d.pod(dim.z);
  if (!lat.flags().empty()) {
    d.bytes(lat.flags().data(), lat.flags().size());
  }
  for (int face = 0; face < 6; ++face) {
    d.pod(static_cast<u8>(lat.face_bc(static_cast<lbm::Face>(face))));
  }
  d.pod(lat.inlet_density());
  const Vec3 uin = lat.inlet_velocity();
  d.pod(uin.x);
  d.pod(uin.y);
  d.pod(uin.z);
  // The profile callback itself is opaque; record only its presence and
  // let the key's profile_exponent distinguish parameterized profiles.
  d.pod(static_cast<u8>(lat.has_inlet_profile() ? 1 : 0));
  // Storage layout is part of the geometry identity: a flow checkpointed
  // from a sparse run must never be served to a dense request (and vice
  // versa) even when every physical field matches.
  d.pod(static_cast<u8>(lat.storage_mode()));
  for (const lbm::CurvedLink& link : lat.curved_links()) {
    d.pod(link.cell);
    d.pod(link.dir);
    d.pod(link.q);
  }
  return d.value();
}

std::string flow_key_stem(const FlowKey& key) {
  Digest64 d;
  d.pod(key.geometry_hash);
  d.pod(key.dim.x);
  d.pod(key.dim.y);
  d.pod(key.dim.z);
  d.pod(key.wind.x);
  d.pod(key.wind.y);
  d.pod(key.wind.z);
  d.pod(key.profile_exponent);
  d.pod(key.params.tau);
  d.pod(static_cast<u8>(key.params.collision));
  d.pod(static_cast<u8>(key.params.storage));
  d.pod(key.spin_up_steps);
  char buf[32];
  std::snprintf(buf, sizeof(buf), "flow_%016llx",
                static_cast<unsigned long long>(d.value()));
  return std::string(buf);
}

FlowCache::FlowCache(std::string dir, FlowCacheConfig cfg)
    : dir_(std::move(dir)), cfg_(cfg) {
  std::filesystem::create_directories(dir_);
  // No other thread can hold a reference yet, but scavenging mutates the
  // guarded index, so take the lock and honor GC_REQUIRES(mu_) anyway.
  std::lock_guard<std::mutex> lock(mu_);
  scavenge_and_index();
}

void FlowCache::scavenge_and_index() {
  namespace fs = std::filesystem;
  // One non-recursive pass: entry files live flat in dir_; anything in a
  // subdirectory (e.g. a recovery/ tree) is not ours to touch.
  std::set<std::string> ckpts;
  std::set<std::string> manis;
  std::vector<fs::path> tmps;
  for (const auto& ent : fs::directory_iterator(dir_)) {
    if (!ent.is_regular_file()) continue;
    const fs::path& p = ent.path();
    const std::string ext = p.extension().string();
    if (ext == ".tmp") {
      tmps.push_back(p);
    } else if (ext == ".gclb") {
      ckpts.insert(p.stem().string());
    } else if (ext == ".gcmf") {
      manis.insert(p.stem().string());
    }
  }
  // Crash debris: torn atomic writes and half-committed entries. A
  // checkpoint without a manifest is the commit-protocol crash window
  // (death between the two writes); a manifest without a checkpoint is
  // a torn eviction. Both read as "no entry" and the files only waste
  // budget, so reclaim them.
  for (const fs::path& p : tmps) {
    fs::remove(p);
    stats_.scavenged += 1;
  }
  for (const std::string& s : ckpts) {
    if (manis.count(s)) continue;
    fs::remove(fs::path(dir_) / (s + ".gclb"));
    stats_.scavenged += 1;
  }
  for (const std::string& s : manis) {
    if (ckpts.count(s)) continue;
    fs::remove(fs::path(dir_) / (s + ".gcmf"));
    stats_.scavenged += 1;
  }
  // Index the complete pairs, seeding LRU order from manifest mtimes so
  // a restart evicts the same "oldest first" a live cache would have.
  std::vector<std::pair<fs::file_time_type, std::string>> order;
  for (const std::string& s : manis) {
    if (!ckpts.count(s)) continue;
    std::error_code ec;
    const auto t = fs::last_write_time(fs::path(dir_) / (s + ".gcmf"), ec);
    order.emplace_back(ec ? fs::file_time_type::min() : t, s);
  }
  std::sort(order.begin(), order.end());
  const auto fsize = [this](const std::string& name) -> i64 {
    std::error_code ec;
    const auto n = fs::file_size(fs::path(dir_) / name, ec);
    return ec ? 0 : static_cast<i64>(n);
  };
  for (const auto& [t, s] : order) {
    note_entry_locked(s, fsize(s + ".gclb") + fsize(s + ".gcmf"));
  }
  enforce_budget_locked();  // a pre-existing directory may be over budget
}

void FlowCache::note_entry_locked(const std::string& stem, i64 bytes) {
  drop_entry_locked(stem);  // replace, don't double-count
  entries_[stem] = DiskEntry{bytes, ++use_seq_};
  total_bytes_ += bytes;
  publish_bytes_locked();
}

void FlowCache::drop_entry_locked(const std::string& stem) {
  const auto it = entries_.find(stem);
  if (it == entries_.end()) return;
  total_bytes_ -= it->second.bytes;
  entries_.erase(it);
}

void FlowCache::enforce_budget_locked() {
  if (cfg_.max_bytes <= 0) return;
  while (total_bytes_ > cfg_.max_bytes) {
    // LRU victim among evictable entries: never an entry being computed
    // or restored right now (its reader holds paths into those files).
    std::string victim;
    u64 oldest = 0;
    bool found = false;
    for (const auto& [stem, de] : entries_) {
      if (in_flight_.count(stem) || restoring_.count(stem)) continue;
      if (!found || de.last_use < oldest) {
        victim = stem;
        oldest = de.last_use;
        found = true;
      }
    }
    if (!found) break;  // everything pinned; re-checked at the next commit
    // Manifest first: a crash between the two removes leaves a
    // checkpoint without a manifest — an entry that does not exist,
    // reclaimed by the next scavenge. Removing in the other order could
    // leave a manifest pointing at nothing, which a reader would have
    // to treat as corruption.
    std::filesystem::remove(dir_ + "/" + victim + ".gcmf");
    std::filesystem::remove(dir_ + "/" + victim + ".gclb");
    stats_.evictions += 1;
    if (cfg_.trace) {
      cfg_.trace->add_counter("service.cache_evictions", 0, 1);
    }
    drop_entry_locked(victim);
  }
  publish_bytes_locked();
}

void FlowCache::publish_bytes_locked() {
  if (cfg_.trace) {
    cfg_.trace->set_gauge("service.cache_bytes", 0,
                          static_cast<double>(total_bytes_));
  }
}

std::string FlowCache::checkpoint_path(const FlowKey& key) const {
  return dir_ + "/" + flow_key_stem(key) + ".gclb";
}

std::string FlowCache::manifest_path(const FlowKey& key) const {
  return dir_ + "/" + flow_key_stem(key) + ".gcmf";
}

bool FlowCache::contains(const FlowKey& key) const {
  return std::filesystem::exists(manifest_path(key));
}

FlowCache::Stats FlowCache::stats() const {
  std::unique_lock<std::mutex> lock(mu_);
  return stats_;
}

i64 FlowCache::bytes() const {
  std::unique_lock<std::mutex> lock(mu_);
  return total_bytes_;
}

FlowCache::Entry FlowCache::get_or_compute(
    const FlowKey& key, const std::function<lbm::Lattice()>& compute) {
  const std::string stem = flow_key_stem(key);
  const std::string ckpt = checkpoint_path(key);
  const std::string mani = manifest_path(key);

  for (;;) {
    {
      std::unique_lock<std::mutex> lock(mu_);
      // Someone is computing this key right now: wait for the commit (or
      // for the computer to fail, in which case we take over below).
      cv_.wait(lock, [this, &stem] { return in_flight_.count(stem) == 0; });
      if (std::filesystem::exists(mani)) {
        stats_.hits += 1;
        // Pin the entry while we read it unlocked: the LRU evictor must
        // not delete the files out from under the load.
        restoring_.insert(stem);
        const auto it = entries_.find(stem);
        if (it != entries_.end()) it->second.last_use = ++use_seq_;
        lock.unlock();
        // Unpin on every way out of the restore, an unexpected exception
        // included: a stem left pinned could never be evicted.
        const ScopeExit unpin([this, &stem] {
          std::lock_guard<std::mutex> relock(mu_);
          restoring_.erase(stem);
        });
        try {
          io::ClusterManifest m = io::load_manifest(mani);
          return Entry{io::load_checkpoint(dir_ + "/" + m.rank_files.at(0)),
                       /*hit=*/true, /*steady_step=*/m.step};
        } catch (const Error&) {
          // Torn or corrupted entry: drop it (still pinned) and fall
          // through to a fresh compute. The hit we just counted becomes
          // a miss.
          std::lock_guard<std::mutex> relock(mu_);
          stats_.hits -= 1;
          std::filesystem::remove(mani);
          std::filesystem::remove(ckpt);
          drop_entry_locked(stem);
          publish_bytes_locked();
        }
      }
      // Claim the compute. Re-take the lock state we hold from the wait
      // above (or from the relock path we only reach unlocked).
    }
    {
      std::unique_lock<std::mutex> lock(mu_);
      if (in_flight_.count(stem) != 0) continue;  // lost the race; re-wait
      if (std::filesystem::exists(mani)) continue;  // committed meanwhile
      in_flight_.insert(stem);
      stats_.misses += 1;
      stats_.computes += 1;
    }
    try {
      Entry entry{compute(), /*hit=*/false, /*steady_step=*/key.spin_up_steps};
      // Commit protocol: checkpoint first, manifest last. Each write is
      // itself tmp+rename-atomic, so a crash between the two leaves a
      // checkpoint without a manifest — an entry that does not exist.
      io::save_checkpoint(ckpt, entry.flow);
      io::ClusterManifest m;
      m.step = key.spin_up_steps;
      m.grid = Int3{1, 1, 1};
      m.lattice_dim = entry.flow.dim();
      m.rank_files.push_back(stem + ".gclb");
      io::save_manifest(mani, m);
      {
        std::unique_lock<std::mutex> lock(mu_);
        in_flight_.erase(stem);
        const auto fsize = [](const std::string& p) -> i64 {
          std::error_code ec;
          const auto n = std::filesystem::file_size(p, ec);
          return ec ? 0 : static_cast<i64>(n);
        };
        // Account the commit, then enforce the budget while the lock is
        // still held — the just-committed entry is no longer in flight,
        // so it is itself evictable when it alone blows the budget (the
        // caller already holds the flow in memory either way).
        note_entry_locked(stem, fsize(ckpt) + fsize(mani));
        enforce_budget_locked();
      }
      cv_.notify_all();
      return entry;
    } catch (const std::exception&) {
      {
        std::unique_lock<std::mutex> lock(mu_);
        in_flight_.erase(stem);
      }
      cv_.notify_all();
      throw;
    }
  }
}

}  // namespace gc::service
