// Deterministic fault injection for the in-process cluster. A FaultSpec
// describes an adversarial network/rank environment — per-message drop,
// duplication, delay/reorder and payload bit-corruption, plus a rank-level
// crash-at-step fault — and MpiLite consults it on every send. All
// decisions are pure functions of (seed, channel, sequence number), so the
// same seed produces the same fault schedule regardless of thread
// interleaving, and two runs with equal seeds are comparable bit-for-bit
// after recovery.
#pragma once

#include <atomic>
#include <mutex>
#include <vector>

#include "util/common.hpp"
#include "util/thread_annotations.hpp"

namespace gc::netsim {

/// Base class for all communication failures surfaced by MpiLite's
/// reliable exchange (instead of hanging forever).
class CommError : public Error {
 public:
  using Error::Error;
};

/// Receive retries exhausted: the expected message never arrived intact
/// within the configured timeout/retransmit budget.
class CommTimeout : public CommError {
 public:
  using CommError::CommError;
};

/// A blocked receive was woken because another rank failed; the
/// world is aborting. The originating rank's exception is the root cause.
class CommAborted : public CommError {
 public:
  using CommError::CommError;
};

/// An injected rank crash (FaultSpec::crashes) fired.
class RankCrashError : public Error {
 public:
  using Error::Error;
};

/// Per-message fault probabilities, applied independently per kind at
/// first transmission (retransmits are delivered verbatim so that the
/// schedule stays deterministic and recovery always converges).
struct MessageFaultRates {
  double drop = 0;       ///< message never delivered
  double duplicate = 0;  ///< delivered twice
  double delay = 0;      ///< held back past the channel's next message
  double corrupt = 0;    ///< one payload bit flipped (CRC catches it)
};

/// Drops *everything* on matching channels, retransmits included; -1 is a
/// wildcard. The tool for forcing retry exhaustion (CommTimeout).
struct ChannelBlackhole {
  int src = -1;
  int dst = -1;
  int tag = -1;
};

/// Rank `rank` throws RankCrashError at the first step >= `step`.
/// One-shot: after firing once the rank stays healthy (so a rolled-back
/// run can replay past the crash point).
struct CrashFault {
  int rank = 0;
  i64 step = 0;
};

/// How many faults of each kind actually fired (injection-side tally;
/// detection-side tallies live in MpiLite::ReliabilityStats).
struct FaultCounters {
  i64 drops = 0;
  i64 duplicates = 0;
  i64 delays = 0;
  i64 corruptions = 0;
  i64 crashes = 0;
};

enum class FaultKind : u32 { Drop = 1, Duplicate = 2, Delay = 3, Corrupt = 4 };

class FaultSpec {
 public:
  explicit FaultSpec(u64 seed = 0) : seed_(seed) {}

  FaultSpec(const FaultSpec&) = delete;
  FaultSpec& operator=(const FaultSpec&) = delete;

  u64 seed() const { return seed_; }

  MessageFaultRates rates;
  std::vector<ChannelBlackhole> blackholes;
  std::vector<CrashFault> crashes;

  /// Deterministic Bernoulli draw for one fault kind on one message;
  /// increments the matching counter when it fires.
  bool roll(FaultKind kind, int src, int dst, int tag, u64 seq)
      GC_EXCLUDES(mu_);

  /// True when (src, dst, tag) matches a blackhole entry.
  bool blackholed(int src, int dst, int tag) const;

  /// Deterministic bit index in [0, num_bits) for a corruption fault.
  u64 corrupt_bit(int src, int dst, int tag, u64 seq, u64 num_bits) const;

  /// One-shot crash check, called by the solver layer at each step.
  bool should_crash(int rank, i64 step) GC_EXCLUDES(mu_);

  FaultCounters counters() const GC_EXCLUDES(mu_);

 private:
  u64 draw(FaultKind kind, int src, int dst, int tag, u64 seq) const;

  u64 seed_;
  mutable std::mutex mu_;
  /// Parallel to crashes (lazily sized).
  std::vector<u8> crash_fired_ GC_GUARDED_BY(mu_);
  FaultCounters counts_ GC_GUARDED_BY(mu_);
};

}  // namespace gc::netsim
