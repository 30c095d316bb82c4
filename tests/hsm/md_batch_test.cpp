// Metadata batching + pipelining: TxnSession flush triggers, ordering,
// backpressure, amortized cost, and the power-fail atomicity contract
// (an in-flight round-trip, singleton or batch, tears away whole — no
// partial apply, no callback leak, no wedged queue).
#include <gtest/gtest.h>

#include <vector>

#include "hsm/server.hpp"
#include "hsm/txn_batch.hpp"
#include "simcore/simulation.hpp"
#include "simcore/time.hpp"

namespace cpa::hsm {
namespace {

class MdBatchTest : public ::testing::Test {
 protected:
  MdBatchTest() : net_(sim_), server_(sim_, net_, "tsm0", ServerConfig{}) {}

  TxnSession session(unsigned batch_size, unsigned window,
                     TxnSession::Hooks hooks = {}) {
    return TxnSession(sim_, server_, TxnSession::Config{batch_size, window},
                      std::move(hooks));
  }

  sim::Simulation sim_;
  sim::FlowNetwork net_{sim_};
  ArchiveServer server_;
};

TEST(MdBatchConfig, BatchCostAmortizesAndDegeneratesToSingleton) {
  const ServerConfig cfg;
  // A batch of one costs exactly one legacy round-trip.
  EXPECT_EQ(cfg.batch_cost(1), cfg.metadata_txn_cost);
  // Amortization: 16 ops in one batch vs 16 stop-and-wait round-trips.
  const sim::Tick batched = cfg.batch_cost(16);
  const sim::Tick singleton = 16 * cfg.metadata_txn_cost;
  EXPECT_LT(batched, singleton);
  // The acceptance gate demands >=5x on the storm; the cost model alone
  // must already provide it at B=16.
  EXPECT_GE(singleton / batched, 5u);
}

TEST_F(MdBatchTest, SizeTriggerDispatchesFullBatch) {
  auto s = session(/*batch_size=*/4, /*window=*/4);
  std::vector<int> applied;
  sim::Tick done_at = 0;
  for (int i = 0; i < 4; ++i) {
    s.submit([&applied, i] { applied.push_back(i); },
             {.applied = [&done_at, this] { done_at = sim_.now(); }});
  }
  EXPECT_EQ(s.batches_sent(), 1u);  // size trigger, no flush needed
  sim_.run();
  EXPECT_EQ(applied, (std::vector<int>{0, 1, 2, 3}));
  EXPECT_EQ(done_at, server_.config().batch_cost(4));
  EXPECT_EQ(server_.batch_ops_completed(), 4u);
  EXPECT_EQ(server_.txns_completed(), 1u);  // one round-trip, not four
}

TEST_F(MdBatchTest, TimeoutFlushesPartialBatch) {
  const sim::Tick timeout = TxnSession::kFlushTimeout;
  auto s = session(/*batch_size=*/16, /*window=*/4);
  bool applied = false;
  sim::Tick done_at = 0;
  s.submit([&applied] { applied = true; },
           {.applied = [&done_at, this] { done_at = sim_.now(); }});
  EXPECT_EQ(s.batches_sent(), 0u);  // waiting on the timer
  sim_.run();
  EXPECT_TRUE(applied);
  EXPECT_EQ(done_at, timeout + server_.config().batch_cost(1));
}

TEST_F(MdBatchTest, ExplicitFlushSkipsTheTimer) {
  auto s = session(/*batch_size=*/16, /*window=*/4);
  int applied = 0;
  sim::Tick done_at = 0;
  for (int i = 0; i < 2; ++i) {
    s.submit([&applied] { ++applied; },
             {.applied = [&done_at, this] { done_at = sim_.now(); }});
  }
  s.flush();
  EXPECT_EQ(s.batches_sent(), 1u);
  sim_.run();
  EXPECT_EQ(applied, 2);
  EXPECT_EQ(done_at, server_.config().batch_cost(2));
}

TEST_F(MdBatchTest, OpsApplyInSubmissionOrderAcrossBatches) {
  auto s = session(/*batch_size=*/4, /*window=*/2);
  std::vector<int> applied;
  for (int i = 0; i < 10; ++i) {
    s.submit([&applied, i] { applied.push_back(i); });
  }
  s.flush();
  sim_.run();
  ASSERT_EQ(applied.size(), 10u);
  for (int i = 0; i < 10; ++i) EXPECT_EQ(applied[i], i);
  EXPECT_EQ(s.applied(), 10u);
  EXPECT_GE(s.batches_sent(), 3u);  // 4 + 4 + 2
}

TEST_F(MdBatchTest, WindowBackpressureDefersAcceptedUntilSlotFrees) {
  auto s = session(/*batch_size=*/2, /*window=*/1);
  std::vector<int> accepted;
  std::vector<int> applied;
  for (int i = 0; i < 6; ++i) {
    s.submit([&applied, i] { applied.push_back(i); },
             {.accepted = [&accepted, i] { accepted.push_back(i); }});
  }
  // Window full (one batch in flight) + forming full: ops 4 and 5 park in
  // overflow and their accepted callbacks are withheld — backpressure.
  EXPECT_EQ(accepted, (std::vector<int>{0, 1, 2, 3}));
  EXPECT_EQ(s.overflow(), 2u);
  sim_.run();
  EXPECT_EQ(accepted, (std::vector<int>{0, 1, 2, 3, 4, 5}));
  EXPECT_EQ(applied, (std::vector<int>{0, 1, 2, 3, 4, 5}));
  EXPECT_EQ(s.overflow(), 0u);
  EXPECT_EQ(s.in_flight(), 0u);
}

TEST_F(MdBatchTest, PipelineKeepsWindowBatchesInFlight) {
  auto s = session(/*batch_size=*/2, /*window=*/4);
  for (int i = 0; i < 8; ++i) s.submit([] {});
  // Four full batches dispatched back-to-back without waiting for the
  // first to complete: that is the pipelining half of the design.
  EXPECT_EQ(s.batches_sent(), 4u);
  EXPECT_EQ(s.in_flight(), 4u);
  sim_.run();
  EXPECT_EQ(s.applied(), 8u);
}

TEST_F(MdBatchTest, DrainFiresAfterEverythingSubmittedApplied) {
  auto s = session(/*batch_size=*/4, /*window=*/4);
  int applied = 0;
  for (int i = 0; i < 5; ++i) s.submit([&applied] { ++applied; });
  bool drained = false;
  s.drain([&] {
    drained = true;
    EXPECT_EQ(applied, 5);
  });
  EXPECT_FALSE(drained);
  sim_.run();
  EXPECT_TRUE(drained);
  EXPECT_EQ(s.applied(), 5u);
}

TEST_F(MdBatchTest, DrainWithNothingPendingFiresImmediately) {
  auto s = session(4, 4);
  bool drained = false;
  s.drain([&] { drained = true; });
  EXPECT_TRUE(drained);
}

TEST_F(MdBatchTest, BarrierRunsOncePerBatchBeforeApplied) {
  int barriers = 0;
  int applied_cbs = 0;
  TxnSession::Hooks hooks;
  hooks.barrier = [&](std::function<void()> done) {
    ++barriers;
    done();
  };
  std::size_t last_batch = 0;
  hooks.on_batch = [&](std::size_t n) { last_batch = n; };
  auto s = session(4, 4, std::move(hooks));
  for (int i = 0; i < 8; ++i) {
    s.submit([] {}, {.applied = [&] {
                 // Applied implies the batch's barrier already ran.
                 EXPECT_GE(barriers, 1 + applied_cbs / 4);
                 ++applied_cbs;
               }});
  }
  sim_.run();
  EXPECT_EQ(barriers, 2);  // one group-commit per batch, not per op
  EXPECT_EQ(applied_cbs, 8);
  EXPECT_EQ(last_batch, 4u);
}

// Satellite regression: a power failure while a batch is in flight must
// neither apply a partial batch nor leak done/applied callbacks to the
// dead jobs — and the server queue must not wedge afterwards.
TEST_F(MdBatchTest, PowerFailTearsInFlightBatchWholeAndStaysLive) {
  auto s = session(/*batch_size=*/4, /*window=*/4);
  int applied_ops = 0;
  int applied_cbs = 0;
  bool drained = false;
  for (int i = 0; i < 3; ++i) {
    s.submit([&applied_ops] { ++applied_ops; },
             {.applied = [&applied_cbs] { ++applied_cbs; }});
  }
  s.drain([&drained] { drained = true; });
  ASSERT_EQ(s.batches_sent(), 1u);
  // Power-fail mid-service: the batch costs batch_cost(3); cut at half.
  sim_.at(server_.config().batch_cost(3) / 2, [&] {
    server_.power_fail();
    s.abandon();
  });
  sim_.run();
  EXPECT_EQ(applied_ops, 0);   // nothing applied — torn whole
  EXPECT_EQ(applied_cbs, 0);   // no applied callback leaked
  EXPECT_FALSE(drained);       // no drain leaked
  EXPECT_EQ(server_.txns_completed(), 0u);

  // The session and server both stay usable after recovery.
  int after = 0;
  s.submit([&after] { ++after; });
  bool drained2 = false;
  s.drain([&drained2] { drained2 = true; });
  sim_.run();
  EXPECT_EQ(after, 1);
  EXPECT_TRUE(drained2);
}

TEST_F(MdBatchTest, AbandonDropsFormingAndOverflowSilently) {
  auto s = session(/*batch_size=*/8, /*window=*/1);
  int accepted = 0;
  int applied = 0;
  for (int i = 0; i < 4; ++i) {
    s.submit([&applied] { ++applied; },
             {.accepted = [&accepted] { ++accepted; }});
  }
  EXPECT_EQ(accepted, 4);
  EXPECT_EQ(s.forming(), 4u);
  s.abandon();
  EXPECT_EQ(s.forming(), 0u);
  sim_.run();
  EXPECT_EQ(applied, 0);  // forming ops vanished with the power failure
}

// Server-level half of the same contract, without a session in front.
TEST_F(MdBatchTest, ServerBatchAtomicAgainstPowerFail) {
  // One rule for every round-trip: a singleton is a batch of one.
  int applied = 0;
  bool done = false;
  for (const std::size_t n : {2u, 1u}) {
    std::vector<std::function<void()>> ops(n, [&applied] { ++applied; });
    server_.metadata_batch(std::move(ops), [&done] { done = true; });
    EXPECT_EQ(server_.txn_queue_depth(), 0u);  // in service, not queued
    sim_.after(server_.config().batch_cost(n) / 2,
               [&] { server_.power_fail(); });
    sim_.run();
    EXPECT_EQ(applied, 0) << n << "-op round-trip";
    EXPECT_FALSE(done) << n << "-op round-trip";
  }
  EXPECT_EQ(server_.txns_completed(), 0u);
  // Queue still pumps: a post-recovery singleton completes normally.
  bool txn_done = false;
  server_.metadata_batch({[&applied] { ++applied; }},
                         [&txn_done] { txn_done = true; });
  sim_.run();
  EXPECT_EQ(applied, 1);
  EXPECT_TRUE(txn_done);
}

// The session at B=1 is the singleton configuration of the same path:
// one round-trip per op at exactly one metadata_txn_cost each, queued
// FIFO on the server.
TEST_F(MdBatchTest, SingletonSessionCostsOneTxnPerOp) {
  auto s = session(/*batch_size=*/1, /*window=*/4);
  std::vector<sim::Tick> applied_at;
  for (int i = 0; i < 6; ++i) {
    s.submit([] {}, {.applied = [&] { applied_at.push_back(sim_.now()); }});
  }
  EXPECT_EQ(s.batches_sent(), 4u);  // the window, nothing forming waits
  sim_.run();
  const sim::Tick cost = server_.config().metadata_txn_cost;
  ASSERT_EQ(applied_at.size(), 6u);
  for (int i = 0; i < 6; ++i) EXPECT_EQ(applied_at[i], (i + 1) * cost);
  EXPECT_EQ(server_.txns_completed(), 6u);
  EXPECT_EQ(server_.batch_ops_completed(), 6u);
}

TEST_F(MdBatchTest, EmptyServerBatchCompletesSynchronously) {
  bool done = false;
  server_.metadata_batch({}, [&done] { done = true; });
  EXPECT_TRUE(done);
  EXPECT_EQ(server_.txns_completed(), 0u);
}

}  // namespace
}  // namespace cpa::hsm
