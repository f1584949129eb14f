// The steady-state flow-field cache at the heart of the scenario service.
//
// The urban-dispersion workload is many-query: release points × wind
// directions × city variants. The expensive part of a query is spinning
// the LBM flow up to steady state; the cheap part is the Lowe–Succi
// tracer walk, which only *reads* the frozen distributions. Queries that
// share (geometry, wind, resolution, run params) therefore share a flow:
// the first request runs the LBM and commits the steady field as a
// checkpoint-v2 file plus a manifest, and every later request restores
// the frozen flow and runs tracers only.
//
// Entry format: one storage-agnostic lattice checkpoint (io/checkpoint,
// CRC-enveloped, atomic-rename commit) plus a ClusterManifest written
// LAST — manifest presence implies a complete entry, exactly the commit
// protocol the recovery layer uses. A torn or corrupted entry fails a
// decode check on load (size, dims or CRC, each a gc::Error) and is
// silently invalidated and recomputed.
//
// Concurrency: get_or_compute is single-flight per key. Concurrent
// requests for the same key block until the one compute commits, then
// load the committed entry — the LBM runs once no matter how many
// identical requests race in.
//
// Robustness: the directory is byte-bounded (FlowCacheConfig::max_bytes)
// with LRU eviction that never touches an entry being computed or
// restored right now and removes the manifest first (a crash mid-evict
// leaves a checkpoint without a manifest — an entry that does not
// exist). Construction scavenges the crash debris of earlier processes:
// orphaned *.tmp files from torn atomic writes and half-committed
// entries (a checkpoint whose process died before the manifest write,
// or a manifest whose checkpoint was half-evicted).
#pragma once

#include <condition_variable>
#include <functional>
#include <map>
#include <mutex>
#include <set>
#include <string>

#include "lbm/lattice.hpp"
#include "lbm/run_params.hpp"
#include "obs/trace.hpp"
#include "util/thread_annotations.hpp"

namespace gc::service {

/// Everything that determines a steady flow field. Two requests with
/// equal keys may share a cached flow; any differing field forces a
/// separate entry. The geometry hash covers flags, face BCs, inlet
/// state and curved links of the built lattice (see geometry_hash);
/// wind velocity and boundary-layer exponent are carried explicitly so
/// the key is self-describing.
struct FlowKey {
  u64 geometry_hash = 0;
  Int3 dim{};                       ///< resolution
  Vec3 wind{};                      ///< inflow velocity (lattice units)
  Real profile_exponent = Real(0);  ///< atmospheric boundary-layer power
  lbm::RunParams params;            ///< tau / collision / storage mode
  int spin_up_steps = 0;            ///< steps defining "steady state"
};

/// Configuration digest of a lattice: dims, flags, face BCs, inlet
/// density/velocity and curved links — NOT the distribution values. Two
/// lattices with equal hashes impose identical geometry on a flow.
/// (Inlet *profiles* are callbacks and cannot be hashed; key them via
/// FlowKey::profile_exponent instead.)
u64 geometry_hash(const lbm::Lattice& lat);

/// Deterministic file stem for a key ("flow_<16 hex digits>"); every
/// field feeds the digest, so distinct keys get distinct entries.
std::string flow_key_stem(const FlowKey& key);

struct FlowCacheConfig {
  /// Byte budget for the entry files in the cache directory; LRU entries
  /// are evicted after each commit to stay under it. 0 = unbounded.
  i64 max_bytes = 0;
  /// service.cache_evictions counter / service.cache_bytes gauge land
  /// here. Not owned; may be null.
  obs::TraceRecorder* trace = nullptr;
};

class FlowCache {
 public:
  /// Entries live in `dir` (created if missing) as <stem>.gclb +
  /// <stem>.gcmf pairs; a cache directory survives process restarts.
  /// Construction scavenges crash debris (see Stats::scavenged) and
  /// seeds the LRU order from file modification times.
  explicit FlowCache(std::string dir, FlowCacheConfig cfg = {});

  struct Stats {
    i64 hits = 0;       ///< requests served from a committed entry
    i64 misses = 0;     ///< requests that had to compute
    i64 computes = 0;   ///< LBM spin-ups actually executed (== misses)
    i64 evictions = 0;  ///< committed entries removed for the byte budget
    i64 scavenged = 0;  ///< crash-debris files removed at construction
  };

  struct Entry {
    lbm::Lattice flow;    ///< steady flow, in the storage mode it ran in
    bool hit = false;     ///< true when served without computing
    i64 steady_step = 0;  ///< spin-up steps behind the field
  };

  /// Returns the steady flow for `key`, invoking `compute` exactly once
  /// across all concurrent callers on the first request (or after an
  /// entry was invalidated by corruption or evicted for space). `compute`
  /// must return the steady lattice for the key; its result is committed
  /// before any waiting caller is released. Exceptions from `compute`
  /// propagate to the computing caller; waiting callers then retry (one
  /// of them becomes the new computer).
  Entry get_or_compute(const FlowKey& key,
                       const std::function<lbm::Lattice()>& compute)
      GC_EXCLUDES(mu_);

  /// True when a committed entry for `key` is on disk (no validation
  /// beyond manifest presence — load still CRC-checks).
  bool contains(const FlowKey& key) const GC_EXCLUDES(mu_);

  Stats stats() const GC_EXCLUDES(mu_);
  /// Bytes of committed entry files on disk right now (always <=
  /// max_bytes after a commit when a budget is configured).
  i64 bytes() const GC_EXCLUDES(mu_);
  const std::string& dir() const { return dir_; }
  const FlowCacheConfig& config() const { return cfg_; }
  std::string checkpoint_path(const FlowKey& key) const;
  std::string manifest_path(const FlowKey& key) const;

 private:
  /// On-disk bookkeeping for one committed entry.
  struct DiskEntry {
    i64 bytes = 0;
    u64 last_use = 0;  ///< monotonic LRU stamp (higher = more recent)
  };

  /// Removes crash debris and indexes committed entries. Ctor only.
  void scavenge_and_index() GC_REQUIRES(mu_);
  /// Records a commit / refreshes LRU. Caller holds mu_.
  void note_entry_locked(const std::string& stem, i64 bytes)
      GC_REQUIRES(mu_);
  /// Forgets a removed/corrupted entry. Caller holds mu_.
  void drop_entry_locked(const std::string& stem) GC_REQUIRES(mu_);
  /// Evicts LRU entries (manifest first, then checkpoint) until the
  /// budget holds, skipping in-flight and restoring stems. Caller
  /// holds mu_.
  void enforce_budget_locked() GC_REQUIRES(mu_);
  void publish_bytes_locked() GC_REQUIRES(mu_);

  std::string dir_;
  FlowCacheConfig cfg_;
  /// GC_ALLOWS_BLOCKING: the index must mirror the directory atomically
  /// — scavenging, eviction and commit bookkeeping do filesystem work
  /// under mu_ by design (innermost lock, bounded IO, no cv waits held).
  mutable std::mutex mu_ GC_ALLOWS_BLOCKING;
  std::condition_variable cv_;
  /// Stems being computed right now.
  std::set<std::string> in_flight_ GC_GUARDED_BY(mu_);
  /// Stems being loaded right now.
  std::set<std::string> restoring_ GC_GUARDED_BY(mu_);
  /// Committed, on disk.
  std::map<std::string, DiskEntry> entries_ GC_GUARDED_BY(mu_);
  u64 use_seq_ GC_GUARDED_BY(mu_) = 0;
  i64 total_bytes_ GC_GUARDED_BY(mu_) = 0;
  Stats stats_ GC_GUARDED_BY(mu_);
};

}  // namespace gc::service
