// Binary checkpointing of the LBM state. Long dispersion runs (the paper
// averages over 500 steps and spins the city flow up for 1000) need
// restartable state: this stores the full distribution set, flags and
// boundary configuration, and restores a bit-identical lattice.
//
// Integrity (format v4): every file is an envelope of
//   [magic][u32 version][u64 body_size][u32 body_crc32][body]
// written to a temporary sibling and committed with an atomic rename, so
// a crash mid-write leaves either the old file or none. Loading streams
// the body once, straight into its destination, and checks in this
// order: magic and version; body_size against the bytes the file holds
// (truncation and trailing bytes), before anything is allocated; for a
// lattice, its dims against the body size, before the lattice is built;
// each field's range as it is read; and last, that the body was consumed
// exactly and matches its CRC32. Any mismatch throws gc::Error — a
// flipped byte or a half-written file can never be mistaken for valid
// state, nor size an allocation.
//
// v3 additionally records the StorageMode the saved simulation was
// running (the distribution planes themselves are always serialized in
// the canonical natural order, so the payload is storage-agnostic —
// sparse lattices are expanded to natural planes on save and recompacted
// on load). v4 allows that byte to say Sparse, which a v3 reader must
// reject. v2 files, which predate the header field, and files whose
// storage byte is 0 (a retired double-buffered mode, whose natural
// planes AA holds at phase 0) load as AA.
#pragma once

#include <string>
#include <vector>

#include "lbm/lattice.hpp"

namespace gc::io {

/// Writes the lattice (current buffer, flags, face BCs, inlet) to `path`
/// via tmp-file + rename; the file carries a CRC32 of its body.
void save_checkpoint(const std::string& path, const lbm::Lattice& lat);

/// Reads a checkpoint; returns a lattice equal to the saved one
/// (distributions bit-identical). Throws on malformed, truncated or
/// corrupted files. The on-disk format is storage-agnostic (planes are
/// always in the canonical natural order). The single-argument form
/// materializes the lattice in the StorageMode recorded in the header —
/// callers no longer guess the mode; the overload forces a specific
/// backend (e.g. to restore an AA file straight into a Sparse
/// simulation).
lbm::Lattice load_checkpoint(const std::string& path);
lbm::Lattice load_checkpoint(const std::string& path, lbm::StorageMode mode);

/// Header facts of a checkpoint, without materializing the lattice.
/// (The rest of the body still streams through the CRC check — a
/// checkpoint is small next to the simulation it snapshots.)
struct CheckpointInfo {
  Int3 dim{};
  lbm::StorageMode storage = lbm::StorageMode::AA;
  u32 version = 0;
};
CheckpointInfo read_checkpoint_info(const std::string& path);

/// The commit record of a distributed (per-rank) checkpoint: written
/// last, after every rank file landed, so its presence implies a complete
/// consistent snapshot. `rank_files` are relative to the manifest's
/// directory, indexed by rank.
struct ClusterManifest {
  i64 step = 0;            ///< global step count the snapshot was taken at
  Int3 grid{1, 1, 1};      ///< node-grid dimensions
  Int3 lattice_dim{};      ///< global lattice dimensions
  std::vector<std::string> rank_files;
};

/// Writes/reads a manifest with the same envelope integrity guarantees
/// as the lattice checkpoints.
void save_manifest(const std::string& path, const ClusterManifest& m);
ClusterManifest load_manifest(const std::string& path);

}  // namespace gc::io
