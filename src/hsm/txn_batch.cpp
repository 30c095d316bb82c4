#include "hsm/txn_batch.hpp"

#include <utility>

#include "hsm/server.hpp"

namespace cpa::hsm {

TxnSession::TxnSession(sim::Simulation& sim, ArchiveServer& server, Config cfg,
                       Hooks hooks)
    : sim_(sim), server_(server), cfg_(cfg), hooks_(std::move(hooks)) {
  if (cfg_.batch_size == 0) cfg_.batch_size = 1;
  if (cfg_.window == 0) cfg_.window = 1;
}

void TxnSession::submit(std::function<void()> op, SubmitOpts opts) {
  ++submitted_;
  Op entry{std::move(op), std::move(opts.accepted), std::move(opts.applied)};
  if (forming_.size() >= cfg_.batch_size) dispatch();
  if (forming_.size() >= cfg_.batch_size) {
    // Backpressure: the forming batch is full and the window is full.
    // Park the op; `accepted` fires when a slot frees and it is admitted.
    overflow_.push_back(std::move(entry));
    return;
  }
  const bool was_empty = forming_.empty();
  if (entry.accepted) {
    auto accepted = std::move(entry.accepted);
    entry.accepted = nullptr;
    accepted();
  }
  forming_.push_back(std::move(entry));
  if (forming_.size() >= cfg_.batch_size) {
    dispatch();
  } else if (was_empty) {
    arm_timer();
  }
}

void TxnSession::flush() {
  flush_watermark_ = submitted_;
  dispatch();
}

void TxnSession::drain(std::function<void()> done) {
  const std::uint64_t threshold = submitted_;
  flush();
  if (applied_ >= threshold) {
    if (done) done();
    return;
  }
  drains_.push_back(Drain{threshold, std::move(done)});
}

void TxnSession::abandon() {
  ++gen_;
  ++timer_gen_;
  forming_.clear();
  overflow_.clear();
  drains_.clear();
  in_flight_ = 0;
  submitted_ = 0;
  dispatched_ = 0;
  applied_ = 0;
  flush_watermark_ = 0;
}

void TxnSession::refill() {
  while (!overflow_.empty() && forming_.size() < cfg_.batch_size) {
    Op entry = std::move(overflow_.front());
    overflow_.pop_front();
    if (entry.accepted) {
      auto accepted = std::move(entry.accepted);
      entry.accepted = nullptr;
      accepted();
    }
    forming_.push_back(std::move(entry));
  }
}

void TxnSession::dispatch() {
  refill();
  while (!forming_.empty() && in_flight_ < cfg_.window &&
         (forming_.size() >= cfg_.batch_size ||
          dispatched_ < flush_watermark_)) {
    send_batch();
    refill();
  }
  if (!forming_.empty()) arm_timer();
}

void TxnSession::send_batch() {
  ++timer_gen_;  // whatever timer covered these ops is moot now
  std::vector<Op> batch;
  batch.reserve(forming_.size());
  while (!forming_.empty()) {
    batch.push_back(std::move(forming_.front()));
    forming_.pop_front();
  }
  dispatched_ += batch.size();
  ++batches_sent_;
  ++in_flight_;
  std::vector<std::function<void()>> ops;
  ops.reserve(batch.size());
  for (Op& entry : batch) ops.push_back(std::move(entry.op));
  const std::uint64_t gen = gen_;
  server_.metadata_batch(
      std::move(ops), [this, gen, batch = std::move(batch)]() mutable {
        if (gen != gen_) return;  // session abandoned meanwhile
        auto settle = [this, gen, batch = std::move(batch)]() mutable {
          if (gen != gen_) return;
          if (hooks_.on_batch) hooks_.on_batch(batch.size());
          applied_ += batch.size();
          --in_flight_;
          // Applied callbacks may submit follow-up ops (e.g. the second
          // leg of a sync delete); the slot is free before they run.
          for (Op& entry : batch) {
            if (entry.applied) entry.applied();
          }
          check_drains();
          dispatch();
        };
        if (hooks_.barrier) {
          hooks_.barrier(std::move(settle));
        } else {
          settle();
        }
      });
}

void TxnSession::arm_timer() {
  const std::uint64_t timer = ++timer_gen_;
  sim_.at(sim_.now() + kFlushTimeout, [this, timer] {
    if (timer != timer_gen_) return;
    flush();
  });
}

void TxnSession::check_drains() {
  std::vector<Drain> ready;
  for (std::size_t i = 0; i < drains_.size();) {
    if (drains_[i].threshold <= applied_) {
      ready.push_back(std::move(drains_[i]));
      drains_.erase(drains_.begin() + static_cast<std::ptrdiff_t>(i));
    } else {
      ++i;
    }
  }
  for (Drain& drain : ready) {
    if (drain.done) drain.done();
  }
}

}  // namespace cpa::hsm
