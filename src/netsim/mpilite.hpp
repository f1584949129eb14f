// MpiLite: an in-process message-passing layer in the style of the MPI
// subset the paper uses (point-to-point send/recv on a pairwise schedule).
// Each logical cluster node runs as a thread; mailboxes are keyed by
// (src, dst, tag). This layer provides the *functional* data movement of
// the distributed LBM; the *timing* of the same traffic — including the
// paper's per-step barrier — comes from netsim::SwitchModel.
//
// Every message rides one reliable envelope protocol: a per-channel
// sequence number, a CRC32 of the payload bytes and a sender-side
// retained copy (the in-process stand-in for an ack/retransmit protocol:
// delivery purges the retained copy, which is exactly what an ack
// achieves). The receiver delivers in sequence order, drops duplicates
// and re-injects the retained copy when a CRC check fails. Attaching a
// netsim::FaultSpec arms two things: the fault filter every first
// transmission passes (drop/duplicate/delay/corrupt, blackholes) and the
// receive timer, whose expiry retransmits and, once the retry budget is
// spent, raises CommTimeout instead of hanging. Without a FaultSpec no
// message can be lost, so receives wait untimed. Any rank failure flips
// a world-wide abort flag that wakes every rank blocked in a receive with
// CommAborted, so one failure never deadlocks the world.
#pragma once

#include <condition_variable>
#include <cstring>
#include <deque>
#include <functional>
#include <map>
#include <memory>
#include <mutex>
#include <queue>
#include <utility>
#include <vector>

#include "netsim/fault.hpp"
#include "netsim/tags.hpp"
#include "util/common.hpp"
#include "util/thread_annotations.hpp"
#include "util/timer.hpp"

namespace gc::netsim {

using Payload = std::vector<Real>;

class MpiLite;
class Comm;

/// Handle for a nonblocking operation (isend/irecv). Copyable: copies
/// share the operation's state, so a request can sit in several
/// wait_all batches (completion is idempotent). Completion only
/// advances inside wait/wait_all on the owning Comm — there is no
/// background progress thread, matching how MPI progress is typically
/// driven from the host loop.
class Request {
 public:
  Request() = default;

  /// False for a default-constructed handle (a valid no-op in wait_all).
  bool valid() const { return st_ != nullptr; }

  /// True once the operation completed: the send was accepted, or a
  /// matching message was delivered into this handle.
  bool done() const { return st_ && st_->done; }

  /// World-clock stamp (MpiLite::now_us) of the matched message's
  /// *enqueue* by the sender (recv) or of the send's acceptance (send).
  /// The raw material for the executed overlap-hidden-time gauge: a
  /// message whose enqueue stamp falls inside the inner-compute window
  /// cost the receiver nothing. Meaningful only once done().
  double complete_time_us() const { return st_ ? st_->complete_us : 0.0; }

 private:
  friend class Comm;
  struct State {
    int peer = -1;
    int tag = 0;
    bool done = false;
    Payload data;
    double complete_us = 0.0;
  };
  explicit Request(std::shared_ptr<State> st) : st_(std::move(st)) {}
  std::shared_ptr<State> st_;
};

/// Per-rank communicator handle (valid only inside run()).
class Comm {
 public:
  int rank() const { return rank_; }
  int size() const;

  /// Non-blocking send: enqueues a copy for (dst, tag).
  void send(int dst, int tag, Payload data);

  /// Blocking receive of the next message from (src, tag), FIFO order.
  /// Under a FaultSpec this waits at most the configured timeout/retry
  /// budget and throws CommTimeout; a world abort throws CommAborted.
  Payload recv(int src, int tag);

  /// Combined exchange with a partner (both sides must call it).
  Payload sendrecv(int partner, int tag, Payload data);

  /// Global sum across ranks; every rank receives the result (naive
  /// gather-to-root + broadcast, which is all the paper's solvers need).
  double allreduce_sum(double value);

  // --- nonblocking operations -------------------------------------------
  // Matching is FIFO per (src, tag) channel: the channel's next message
  // always completes the *oldest* outstanding irecv, regardless of which
  // handle wait is called on. Do not mix blocking recv() with
  // outstanding irecv()s on the same channel — the blocking call would
  // steal a message the posted request is owed.

  /// Nonblocking send. MpiLite mailboxes are unbounded, so the send
  /// buffers immediately: the returned request is already complete and
  /// traffic/reliability accounting is identical to send(). Kept as a
  /// request so the overlap engine can treat both directions uniformly.
  Request isend(int dst, int tag, Payload data);

  /// Posts a receive for the next unclaimed message on (src, tag) and
  /// returns immediately. Complete it with wait / wait_all.
  Request irecv(int src, int tag);

  /// Blocks until `r` completes and returns its payload (moved out; a
  /// second wait on the same handle returns an empty payload). Send
  /// requests return an empty payload. Same contract as recv(): under a
  /// FaultSpec it obeys the timeout/retry budget, and a world abort
  /// throws CommAborted instead of hanging.
  Payload wait(Request& r);

  /// Completes every request in `rs` (payloads stay in the handles).
  /// Invalid (default-constructed) entries and duplicates of an already
  /// completed request are no-ops. Same contract as wait().
  void wait_all(std::vector<Request>& rs);

 private:
  friend class MpiLite;
  Comm(MpiLite* world, int rank) : world_(world), rank_(rank) {}

  /// Receives on `st`'s channel, handing each message to the oldest
  /// outstanding irecv there, until `st` is complete.
  void complete(Request::State& st);

  MpiLite* world_;
  int rank_;
  /// Outstanding irecvs per (src, tag), in posting order.
  std::map<std::pair<int, int>, std::deque<std::shared_ptr<Request::State>>>
      pending_;
};

/// Per-rank traffic counters: messages/payload values *sent* by the rank.
/// The raw material for the per-rank mpi.* counters the observability
/// layer exports.
struct RankTraffic {
  i64 messages = 0;
  i64 payload_values = 0;
};

/// Receiver-side tallies of the reliable-exchange protocol, per receiving
/// rank. All zero when no FaultSpec is attached: a perfect network never
/// corrupts, duplicates or loses a message.
struct ReliabilityStats {
  i64 retransmits = 0;         ///< retained copies re-injected
  i64 corrupt_detected = 0;    ///< CRC mismatches discarded
  i64 duplicates_dropped = 0;  ///< stale sequence numbers discarded
  i64 timeouts = 0;            ///< receive waits that expired
};

/// Receive-timer and retransmit policy of the reliable exchange (the
/// timer is armed only with a FaultSpec attached).
struct ReliabilityConfig {
  double recv_timeout_ms = 250;  ///< base per-attempt receive wait
  int max_retries = 10;          ///< timeout attempts before CommTimeout
  double backoff = 1.5;          ///< wait multiplier per attempt
  double max_backoff = 8.0;      ///< cap, as a multiple of the base wait
};

class MpiLite {
 public:
  explicit MpiLite(int ranks);

  int size() const { return ranks_; }

  /// Attaches (or detaches, with nullptr) a fault specification: arms
  /// the fault filter on every first transmission and the receive timer.
  /// Not owned; must outlive the runs it is attached for. Call between
  /// runs only.
  void set_fault_spec(FaultSpec* spec);

  void set_reliability(const ReliabilityConfig& cfg);

  /// Runs `node_main(comm)` on `ranks` threads and joins them. Exceptions
  /// thrown by any rank are captured and rethrown (first one wins); the
  /// first failure aborts the world so that ranks blocked in a receive
  /// wake with CommAborted instead of hanging forever.
  void run(const std::function<void(Comm&)>& node_main);

  /// True after a failed run() until reset() is called.
  bool aborted() const { return abort_.load(std::memory_order_acquire); }

  /// Externally aborts the world: sets the abort flag and wakes every
  /// rank blocked in a receive with CommAborted — the same mechanism a
  /// failing rank triggers, exposed so a watchdog can cancel a run that
  /// is stuck past its deadline instead of waiting forever.
  /// Safe to call from any thread, including while run() is active.
  void abort() { abort_world(); }

  /// Clears the abort flag and all in-flight protocol state (mailboxes,
  /// retained copies, sequence numbers) so the world can run again after
  /// a failure — the communicator half of a checkpoint rollback.
  /// Traffic and reliability counters are cumulative and survive.
  void reset();

  /// Total messages and bytes that passed through the mailboxes (for
  /// traffic accounting and tests). Application sends only; protocol
  /// retransmits are tallied in ReliabilityStats instead.
  i64 total_messages() const GC_EXCLUDES(mu_) {
    std::lock_guard<std::mutex> lock(mu_);
    return total_messages_;
  }
  i64 total_payload_values() const GC_EXCLUDES(mu_) {
    std::lock_guard<std::mutex> lock(mu_);
    return total_values_;
  }

  /// Cumulative per-rank traffic (snapshot; copy to diff across runs).
  RankTraffic rank_traffic(int rank) const GC_EXCLUDES(mu_);

  /// Cumulative reliable-exchange tallies for one receiving rank / the
  /// whole world.
  ReliabilityStats reliability_stats(int rank) const GC_EXCLUDES(mu_);
  ReliabilityStats reliability_totals() const GC_EXCLUDES(mu_);

  /// Monotonic world clock (µs since construction). Message enqueue
  /// stamps and Request::complete_time_us share this timebase.
  double now_us() const { return clock_.seconds() * 1e6; }

 private:
  friend class Comm;

  struct Key {
    int src, dst, tag;
    bool operator<(const Key& o) const {
      if (src != o.src) return src < o.src;
      if (dst != o.dst) return dst < o.dst;
      return tag < o.tag;
    }
  };

  /// The envelope: sequence number + CRC32 of the payload bytes plus the
  /// world-clock enqueue stamp.
  struct Msg {
    u64 seq = 0;
    u32 crc = 0;
    double t_us = 0.0;
    Payload data;
  };

  void do_send(int src, int dst, int tag, Payload data) GC_EXCLUDES(mu_);
  /// The one receive loop: delivers the channel's next message in
  /// sequence order, dropping duplicates, NACKing CRC failures (the
  /// retained copy is re-injected) and parking early arrivals. Waits
  /// untimed on a perfect network; under a FaultSpec each expiry of the
  /// receive timer retransmits, and an exhausted budget throws
  /// CommTimeout. A world abort throws CommAborted.
  Payload do_recv(int src, int dst, int tag, double* enqueue_us = nullptr)
      GC_EXCLUDES(mu_);

  /// Delivers one sealed first-transmission envelope, through the fault
  /// filter (blackhole/drop/duplicate/delay/corrupt) when a FaultSpec is
  /// attached. Caller holds mu_.
  void inject(const Key& key, Msg m) GC_REQUIRES(mu_);
  /// Re-injects the retained copy of (key, seq) verbatim (blackholes
  /// still swallow it). Caller holds mu_.
  void retransmit(const Key& key, u64 seq) GC_REQUIRES(mu_);

  /// Sets the abort flag and wakes every blocked rank.
  void abort_world() GC_EXCLUDES(mu_);

  int ranks_;
  Timer clock_;
  std::atomic<bool> abort_{false};

  mutable std::mutex mu_;
  std::condition_variable cv_;
  /// Set between runs only (set_fault_spec contract).
  FaultSpec* faults_ GC_GUARDED_BY(mu_) = nullptr;
  ReliabilityConfig rel_ GC_GUARDED_BY(mu_);
  std::map<Key, std::queue<Msg>> mailboxes_ GC_GUARDED_BY(mu_);
  std::vector<RankTraffic> rank_traffic_ GC_GUARDED_BY(mu_);
  std::vector<ReliabilityStats> rel_stats_ GC_GUARDED_BY(mu_);

  /// Next seq to assign.
  std::map<Key, u64> send_seq_ GC_GUARDED_BY(mu_);
  /// Next seq expected.
  std::map<Key, u64> recv_next_ GC_GUARDED_BY(mu_);
  /// Unacked retained copies.
  std::map<Key, std::map<u64, Payload>> send_log_ GC_GUARDED_BY(mu_);
  /// Received out of order.
  std::map<Key, std::map<u64, Msg>> ooo_ GC_GUARDED_BY(mu_);
  /// Held-back envelopes.
  std::map<Key, Msg> delayed_ GC_GUARDED_BY(mu_);

  i64 total_messages_ GC_GUARDED_BY(mu_) = 0;
  i64 total_values_ GC_GUARDED_BY(mu_) = 0;
};

}  // namespace gc::netsim
