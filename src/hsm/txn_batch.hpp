// Metadata transaction batching + pipelining session.
//
// A TxnSession fronts one ArchiveServer's metadata path and is the only
// way an object-DB mutation reaches the server: callers `submit`
// mutations, the session coalesces them into batches of up to
// `batch_size` and keeps up to `window` round-trips in flight (async
// pipelining).  `batch_size == 1` is the singleton configuration of the
// same path: every op is its own round-trip at exactly one
// `metadata_txn_cost`.  This is the CASTOR-style request batching answer
// to the paper's Sec 6.4 single-server metadata wall.
//
// Flush triggers, all deterministic in virtual time:
//   * size      — the forming batch reaches `batch_size`;
//   * timeout   — `kFlushTimeout` after the first op entered an empty
//                 forming batch;
//   * explicit  — `flush()` / `drain()`;
//   * slot-free — a window slot frees while a flush is owed.
//
// Ordering: ops apply on the server in exact submission order (batches
// dispatch FIFO into the server's FIFO queue, and a batch applies its ops
// in order).  Backpressure: when the forming batch is full AND the window
// is full, further submissions park in an overflow queue and their
// `accepted` callback is deferred until a slot frees — this is how
// pipelined producers (recall chains, reclaim sweeps) are throttled.
//
// Durability: the `barrier` hook runs once per applied batch (one
// group-commit fsync via the WAL, not one per mutation); an op's
// `applied` callback fires only after that barrier, so applied implies
// durable whenever a WAL is attached.  `abandon()` models power failure:
// every queued/forming op vanishes and no callback — accepted, applied,
// or drain — leaks to the dead jobs, matching the server's own
// power-fail contract for queued transactions.
#pragma once

#include <cstdint>
#include <deque>
#include <functional>
#include <vector>

#include "simcore/simulation.hpp"
#include "simcore/time.hpp"

namespace cpa::hsm {

class ArchiveServer;

class TxnSession {
 public:
  struct Config {
    unsigned batch_size = 16;
    unsigned window = 4;
  };
  /// A partial batch flushes this long after its first op arrived.
  static constexpr sim::Tick kFlushTimeout = sim::msecs(2);
  struct Hooks {
    /// Group-commit barrier run after a batch's ops apply; `done` fires
    /// when the batch is durable.  Unset => applied is durable at once.
    std::function<void(std::function<void()> done)> barrier;
    /// Fired once per completed batch with its op count (counters).
    std::function<void(std::size_t n)> on_batch;
  };

  TxnSession(sim::Simulation& sim, ArchiveServer& server, Config cfg,
             Hooks hooks);

  struct SubmitOpts {
    /// Op admitted into a forming batch (fires immediately unless the
    /// forming batch and the window are both full — backpressure).
    std::function<void()> accepted;
    /// Op applied on the server and past the durability barrier.
    std::function<void()> applied;
  };
  /// Queues `op` for the next batch.  Ops run on the server in
  /// submission order.
  void submit(std::function<void()> op, SubmitOpts opts = {});
  /// Dispatches everything submitted so far without waiting for the size
  /// or timeout trigger (window permitting; the rest follows as slots
  /// free up).
  void flush();
  /// Fires `done` once every op submitted before this call has applied.
  /// Implies `flush()`.
  void drain(std::function<void()> done);
  /// Power failure: drops all forming/queued work and outstanding drains
  /// without firing any callback; in-flight server batches are torn away
  /// by the server's own power-fail guard.  The session is reusable.
  void abandon();

  [[nodiscard]] std::size_t forming() const { return forming_.size(); }
  [[nodiscard]] std::size_t overflow() const { return overflow_.size(); }
  [[nodiscard]] unsigned in_flight() const { return in_flight_; }
  [[nodiscard]] std::uint64_t submitted() const { return submitted_; }
  [[nodiscard]] std::uint64_t applied() const { return applied_; }
  [[nodiscard]] std::uint64_t batches_sent() const { return batches_sent_; }

 private:
  struct Op {
    std::function<void()> op;
    std::function<void()> accepted;  // unfired only while in overflow
    std::function<void()> applied;
  };
  struct Drain {
    std::uint64_t threshold;
    std::function<void()> done;
  };

  void refill();    // overflow -> forming, firing deferred accepted
  void dispatch();  // send forming batches while a trigger & window allow
  void send_batch();
  void arm_timer();
  void check_drains();

  sim::Simulation& sim_;
  ArchiveServer& server_;
  Config cfg_;
  Hooks hooks_;

  std::deque<Op> forming_;   // admitted, accepted already fired
  std::deque<Op> overflow_;  // backpressured, accepted deferred
  unsigned in_flight_ = 0;
  std::uint64_t submitted_ = 0;   // ops ever submitted
  std::uint64_t dispatched_ = 0;  // ops handed to the server
  std::uint64_t applied_ = 0;     // ops applied + durable
  std::uint64_t batches_sent_ = 0;
  // Ops numbered < flush_watermark_ must not wait for size/timeout.
  std::uint64_t flush_watermark_ = 0;
  std::uint64_t gen_ = 0;        // bumped by abandon(); stale batches no-op
  std::uint64_t timer_gen_ = 0;  // bumped to cancel an armed flush timer
  std::vector<Drain> drains_;
};

}  // namespace cpa::hsm
