// Write-ahead log: framing, group commit, torn-tail semantics, checkpoint
// truncation, and crash/recover cycles through the Durable wrapper.
#include "wal/wal.hpp"

#include <gtest/gtest.h>

#include <cstdint>
#include <limits>
#include <random>
#include <string>
#include <string_view>
#include <vector>

#include "hsm/server.hpp"
#include "hsm/txn_batch.hpp"
#include "integrity/fixity.hpp"
#include "obs/observer.hpp"
#include "pftool/core/restart_journal.hpp"
#include "simcore/units.hpp"
#include "wal/codec.hpp"
#include "wal/durable.hpp"

namespace cpa::wal {
namespace {

// A frame exactly as WalWriter lays it down: [len][crc32(payload)][payload].
std::string frame(const std::string& payload) {
  std::string out;
  const auto put = [&out](std::uint32_t v) {
    out.push_back(static_cast<char>(v & 0xFF));
    out.push_back(static_cast<char>((v >> 8) & 0xFF));
    out.push_back(static_cast<char>((v >> 16) & 0xFF));
    out.push_back(static_cast<char>((v >> 24) & 0xFF));
  };
  put(static_cast<std::uint32_t>(payload.size()));
  put(crc32(payload.data(), payload.size()));
  out += payload;
  return out;
}

// -------------------------------------------------------------- WalReader

TEST(WalReader, EmptyLogReplaysZeroRecords) {
  std::uint64_t valid = 99;
  std::uint64_t calls = 0;
  EXPECT_EQ(WalReader::replay("", [&](std::string_view) { ++calls; }, &valid),
            0u);
  EXPECT_EQ(calls, 0u);
  EXPECT_EQ(valid, 0u);
}

TEST(WalReader, StopsAtTornFrameAtEveryByteBoundary) {
  const std::vector<std::string> payloads = {"alpha", "bb", "record-three"};
  std::string log;
  std::vector<std::size_t> boundaries = {0};
  for (const std::string& p : payloads) {
    log += frame(p);
    boundaries.push_back(log.size());
  }
  // Cut the image at every possible byte: replay must apply exactly the
  // frames wholly inside the cut, in order, and report where it stopped.
  for (std::size_t cut = 0; cut <= log.size(); ++cut) {
    std::size_t whole = 0;
    while (whole + 1 < boundaries.size() && boundaries[whole + 1] <= cut) {
      ++whole;
    }
    std::vector<std::string> seen;
    std::uint64_t valid = 0;
    const std::uint64_t n = WalReader::replay(
        log.substr(0, cut), [&](std::string_view r) { seen.emplace_back(r); },
        &valid);
    ASSERT_EQ(n, whole) << "cut=" << cut;
    ASSERT_EQ(valid, boundaries[whole]) << "cut=" << cut;
    for (std::size_t i = 0; i < whole; ++i) EXPECT_EQ(seen[i], payloads[i]);
  }
}

TEST(WalReader, StopsAtCorruptPayload) {
  std::string log = frame("first") + frame("second") + frame("third");
  log[frame("first").size() + 8] ^= 0x40;  // flip a bit in "second"'s payload
  std::uint64_t valid = 0;
  std::vector<std::string> seen;
  EXPECT_EQ(WalReader::replay(
                log, [&](std::string_view r) { seen.emplace_back(r); }, &valid),
            1u);
  ASSERT_EQ(seen.size(), 1u);
  EXPECT_EQ(seen[0], "first");
  EXPECT_EQ(valid, frame("first").size());
}

TEST(WalReader, Crc32MatchesTheIeeeCheckValueAndBytewiseReference) {
  EXPECT_EQ(crc32("123456789", 9), 0xCBF43926u);
  // The sliced kernel must equal the one-bit-at-a-time definition at every
  // length and alignment (the 8-byte fold and the byte tail both run).
  std::string data;
  for (int i = 0; i < 80; ++i) data += static_cast<char>(i * 37 + 11);
  const auto reference = [](const char* p, std::size_t n) {
    std::uint32_t c = 0xFFFFFFFFu;
    for (std::size_t i = 0; i < n; ++i) {
      c ^= static_cast<unsigned char>(p[i]);
      for (int k = 0; k < 8; ++k) c = (c & 1u) ? 0xEDB88320u ^ (c >> 1) : c >> 1;
    }
    return c ^ 0xFFFFFFFFu;
  };
  for (std::size_t off = 0; off < 8; ++off) {
    for (std::size_t n = 0; off + n <= data.size(); ++n) {
      ASSERT_EQ(crc32(data.data() + off, n), reference(data.data() + off, n))
          << "off=" << off << " n=" << n;
    }
  }
}

// -------------------------------------------------------------- WalWriter

TEST(WalWriter, GroupCommitBatchesConcurrentSyncs) {
  sim::Simulation sim;
  obs::Observer obs;
  WalConfig cfg;
  cfg.flush_latency = sim::msecs(2);
  WalWriter w(sim, cfg, obs);
  std::vector<sim::Tick> done;
  for (int i = 0; i < 5; ++i) {
    w.append_record("r" + std::to_string(i));
    w.sync([&] { done.push_back(sim.now()); });
  }
  sim.run();
  // The first sync rides its own flush; the four issued while it was in
  // flight share the next one (group commit), so two flushes total.
  ASSERT_EQ(done.size(), 5u);
  EXPECT_EQ(done[0], sim::msecs(2));
  for (int i = 1; i < 5; ++i) EXPECT_EQ(done[i], sim::msecs(4));
}

TEST(WalWriter, DurablePrefixSurvivesAnyTearSeed) {
  for (std::uint64_t seed = 1; seed <= 16; ++seed) {
    sim::Simulation sim;
    obs::Observer obs;
    WalWriter w(sim, WalConfig{}, obs);
    for (int i = 0; i < 3; ++i) w.append_record("durable" + std::to_string(i));
    bool synced = false;
    w.sync([&] { synced = true; });
    sim.run();
    ASSERT_TRUE(synced);
    w.append_record("volatile0");
    w.append_record("volatile1");
    w.crash(seed);
    std::vector<std::string> seen;
    WalReader::replay(w.log_bytes(),
                      [&](std::string_view r) { seen.emplace_back(r); });
    ASSERT_GE(seen.size(), 3u) << "seed=" << seed;
    ASSERT_LE(seen.size(), 5u) << "seed=" << seed;
    for (int i = 0; i < 3; ++i) {
      EXPECT_EQ(seen[i], "durable" + std::to_string(i)) << "seed=" << seed;
    }
  }
}

TEST(WalWriter, PendingSyncCallbackDiesWithTheCrash) {
  sim::Simulation sim;
  obs::Observer obs;
  WalWriter w(sim, WalConfig{}, obs);
  w.append_record("r");
  bool fired = false;
  w.sync([&] { fired = true; });
  w.crash(7);  // before the flush latency elapsed
  sim.run();
  EXPECT_FALSE(fired);
  // The writer is still usable: a fresh sync after the crash completes.
  w.append_record("r2");
  bool fired2 = false;
  w.sync([&] { fired2 = true; });
  sim.run();
  EXPECT_TRUE(fired2);
}

TEST(WalWriter, CheckpointTruncationNeverDropsUncheckpointedRecords) {
  sim::Simulation sim;
  obs::Observer obs;
  WalWriter w(sim, WalConfig{}, obs);
  w.set_checkpoint_source([] { return std::string("SNAP"); });
  w.append_record("covered0");
  w.append_record("covered1");
  bool synced = false;
  w.sync([&] { synced = true; });
  sim.run();
  ASSERT_TRUE(synced);
  w.checkpoint();
  // Appended after the snapshot was taken but before it installs: must
  // survive the truncation that lands with the install.
  w.append_record("late");
  sim.run();
  EXPECT_EQ(w.installed_checkpoint(), "SNAP");
  std::vector<std::string> seen;
  WalReader::replay(w.log_bytes(),
                    [&](std::string_view r) { seen.emplace_back(r); });
  ASSERT_EQ(seen.size(), 1u);
  EXPECT_EQ(seen[0], "late");
}

TEST(WalWriter, CrashMidCheckpointKeepsThePreviousCheckpoint) {
  sim::Simulation sim;
  obs::Observer obs;
  WalWriter w(sim, WalConfig{}, obs);
  int snaps = 0;
  w.set_checkpoint_source(
      [&] { return "SNAP" + std::to_string(snaps++); });
  w.append_record("r0");
  w.sync([] {});
  sim.run();
  w.checkpoint();
  sim.run();
  ASSERT_EQ(w.installed_checkpoint(), "SNAP0");
  const std::uint64_t before = w.log_bytes().size();
  w.append_record("r1");
  w.checkpoint();  // snapshot taken...
  w.crash(3);      // ...but power dies before the install completes
  sim.run();
  EXPECT_EQ(w.installed_checkpoint(), "SNAP0");  // old checkpoint stands
  EXPECT_GE(w.log_bytes().size(), before);       // nothing truncated
}

// ---------------------------------------------------------------- Durable

// One fully wired metadata plant: a catalog server, the fixity table, and
// a restart journal, all redo-logged through one Durable.
struct World {
  World() : net(sim), server(sim, net, "tsm0", hsm::ServerConfig{}) {
    durable.attach_server(0, server);
    durable.attach_fixity(fixity);
    durable.attach_journal(journal);
  }

  std::uint64_t record(const std::string& path) {
    hsm::ArchiveObject o;
    o.object_id = server.allocate_object_id();
    o.gpfs_file_id = o.object_id;
    o.size_bytes = 1 << 20;
    o.content_tag = 0xAB00 + o.object_id;
    o.cartridge_id = 3;
    o.tape_seq = o.object_id;
    o.path = path;
    const std::uint64_t id = o.object_id;
    server.record_object(std::move(o));
    fixity.add(id, 3, id, 1 << 20, 0xC0FFEE00 + id, 0);
    return id;
  }

  void sync_and_run() {
    bool done = false;
    durable.sync([&] { done = true; });
    sim.run();
    ASSERT_TRUE(done);
  }

  // What CotsParallelArchive::power_fail does to the metadata stores.
  void crash(std::uint64_t seed) {
    server.power_fail();
    fixity.clear();
    journal.clear();
    durable.crash(seed);
  }

  std::uint64_t object_count() {
    std::uint64_t n = 0;
    server.for_each_object([&](const hsm::ArchiveObject&) { ++n; });
    return n;
  }

  sim::Simulation sim;
  sim::FlowNetwork net;
  obs::Observer obs;
  hsm::ArchiveServer server;
  integrity::FixityDb fixity;
  pftool::RestartJournal journal;
  Durable durable{sim, WalConfig{}, obs};
};

TEST(Durable, EmptyLogRecoversToEmptyState) {
  World w;
  const Durable::RecoveryStats st = w.durable.recover();
  EXPECT_EQ(st.replayed_records, 0u);
  EXPECT_EQ(st.checkpoint_bytes, 0u);
  EXPECT_EQ(w.object_count(), 0u);
}

TEST(Durable, SyncedMutationsSurviveCrashAndRecover) {
  World w;
  const std::uint64_t a = w.record("/arch/a");
  const std::uint64_t b = w.record("/arch/b");
  w.journal.begin("/arch/a", 1 << 20, 4);
  w.journal.mark_good("/arch/a", 2);
  w.sync_and_run();
  w.crash(11);
  ASSERT_EQ(w.object_count(), 0u);  // power failure wiped the stores
  const Durable::RecoveryStats st = w.durable.recover();
  EXPECT_GE(st.replayed_records, 6u);  // 2 objects + 2 fixity rows + 2 journal
  EXPECT_EQ(w.object_count(), 2u);
  ASSERT_NE(w.server.object(a), nullptr);
  EXPECT_EQ(w.server.object(a)->path, "/arch/a");
  EXPECT_EQ(w.fixity.by_object(a).size(), 1u);
  EXPECT_EQ(w.fixity.by_object(b).size(), 1u);
  // The allocator resumes above every replayed id.
  EXPECT_GT(w.server.next_object_id(), b);
}

TEST(Durable, RecoverTwiceConvergesOnTheSameState) {
  World w;
  w.record("/arch/a");
  w.record("/arch/b");
  w.journal.begin("/arch/a", 1 << 20, 4);
  w.sync_and_run();
  w.crash(5);
  const Durable::RecoveryStats s1 = w.durable.recover();
  const std::uint64_t objects = w.object_count();
  const std::uint64_t next_id = w.server.next_object_id();
  const std::string journal_img = w.journal.serialize();
  // Replaying the same prefix again (without a second wipe) must be a
  // no-op: every record is a full-row image, so redo is idempotent.
  const Durable::RecoveryStats s2 = w.durable.recover();
  EXPECT_EQ(s2.replayed_records, s1.replayed_records);
  EXPECT_EQ(w.object_count(), objects);
  EXPECT_EQ(w.server.next_object_id(), next_id);
  EXPECT_EQ(w.journal.serialize(), journal_img);
}

TEST(Durable, CheckpointThenEmptyLogRecovers) {
  World w;
  const std::uint64_t a = w.record("/arch/a");
  w.journal.begin("/arch/a", 1 << 20, 4);
  w.journal.mark_good("/arch/a", 0);
  w.journal.mark_good("/arch/a", 3);
  w.sync_and_run();
  w.durable.checkpoint();
  w.sim.run();
  EXPECT_TRUE(w.durable.writer().log_bytes().empty());  // fully truncated
  w.crash(9);
  const Durable::RecoveryStats st = w.durable.recover();
  EXPECT_EQ(st.replayed_records, 0u);
  EXPECT_GT(st.checkpoint_bytes, 0u);
  ASSERT_NE(w.server.object(a), nullptr);
  EXPECT_EQ(w.fixity.by_object(a).size(), 1u);
  EXPECT_FALSE(w.journal.serialize().empty());
}

TEST(Durable, DeleteIsDurable) {
  World w;
  const std::uint64_t a = w.record("/arch/a");
  const std::uint64_t b = w.record("/arch/b");
  w.sync_and_run();
  w.server.delete_object(a);
  w.fixity.erase_object(a);
  w.sync_and_run();
  w.crash(21);
  w.durable.recover();
  EXPECT_EQ(w.server.object(a), nullptr);
  EXPECT_TRUE(w.fixity.by_object(a).empty());
  EXPECT_NE(w.server.object(b), nullptr);
}

// Regression: a tear usually cuts a frame in half, and the surviving torn
// bytes used to stay in the log forever.  Records appended after recovery
// then sat behind CRC garbage where no future replay could reach them —
// durably-acked mutations silently vanished at the *second* crash.
TEST(Durable, MutationsAfterRecoverySurviveASecondCrash) {
  for (std::uint64_t seed = 1; seed <= 16; ++seed) {
    World w;
    w.record("/arch/a");
    w.sync_and_run();
    w.record("/arch/b");  // volatile: the tear lands somewhere inside it
    w.crash(seed);
    w.durable.recover();
    // Post-recovery life: a new durably-acked object...
    const std::uint64_t c = w.record("/arch/c");
    w.sync_and_run();
    // ...must still be there after the next crash.
    w.crash(seed * 977 + 1);
    const Durable::RecoveryStats st = w.durable.recover();
    ASSERT_NE(w.server.object(c), nullptr)
        << "seed=" << seed << " (durably-acked object lost behind torn tail)";
    EXPECT_EQ(w.server.object(c)->path, "/arch/c") << "seed=" << seed;
    EXPECT_EQ(w.fixity.by_object(c).size(), 1u) << "seed=" << seed;
    EXPECT_GE(st.replayed_records, 2u) << "seed=" << seed;
  }
}

// Regression: record_object used to fire its WAL hook before upserting.
// An auto-checkpoint triggered synchronously inside that append then
// snapshotted a catalog *without* the row while the truncation mark
// covered its frame — the object vanished at the next recovery.
TEST(Durable, AutoCheckpointNeverLosesTheRecordThatTriggeredIt) {
  sim::Simulation sim;
  sim::FlowNetwork net(sim);
  obs::Observer obs;
  hsm::ArchiveServer server(sim, net, "tsm0", hsm::ServerConfig{});
  integrity::FixityDb fixity;
  pftool::RestartJournal journal;
  WalConfig cfg;
  cfg.checkpoint_bytes = 2048;  // aggressive: checkpoints every ~20 records
  Durable durable(sim, cfg, obs);
  durable.attach_server(0, server);
  durable.attach_fixity(fixity);
  durable.attach_journal(journal);

  std::vector<std::uint64_t> ids;
  for (int i = 0; i < 120; ++i) {
    hsm::ArchiveObject o;
    o.object_id = server.allocate_object_id();
    o.size_bytes = 1 << 20;
    o.cartridge_id = 1;
    o.tape_seq = i;
    o.path = "/arch/f" + std::to_string(i);
    ids.push_back(o.object_id);
    server.record_object(std::move(o));
    fixity.add(ids.back(), 1, i, 1 << 20, 0xF00D + i, 0);
    if (i % 8 == 7) {
      durable.sync([] {});
      sim.run();
    }
  }
  durable.sync([] {});
  sim.run();
  server.power_fail();
  fixity.clear();
  journal.clear();
  durable.crash(13);
  durable.recover();
  for (const std::uint64_t id : ids) {
    ASSERT_NE(server.object(id), nullptr) << "object " << id << " lost";
    ASSERT_EQ(fixity.by_object(id).size(), 1u) << "fixity row " << id;
  }
}

// Metadata batching rides the WAL's group commit: a TxnSession barrier is
// one durable.sync covering the whole batch.  Once that barrier acks, every
// mutation in the batch must survive a crash — at any torn-tail seed.
TEST(Durable, BatchBarrierAckImpliesWholeBatchDurable) {
  for (std::uint64_t seed = 1; seed <= 16; ++seed) {
    World w;
    hsm::ServerConfig scfg;
    scfg.md_batch_size = 8;
    hsm::TxnSession::Hooks hooks;
    hooks.barrier = [&w](std::function<void()> done) {
      w.durable.sync(std::move(done));
    };
    hsm::TxnSession session(
        w.sim, w.server,
        hsm::TxnSession::Config{scfg.md_batch_size, scfg.md_window},
        std::move(hooks));

    std::vector<std::uint64_t> acked;
    for (int i = 0; i < 8; ++i) {
      const std::string path = "/arch/batched" + std::to_string(i);
      session.submit([&w, path] { w.record(path); });
    }
    bool drained = false;
    session.drain([&] {
      drained = true;
      // Applied implies past the barrier: snapshot what was acked durable.
      w.server.for_each_object([&](const hsm::ArchiveObject& o) {
        acked.push_back(o.object_id);
      });
    });
    w.sim.run();
    ASSERT_TRUE(drained) << "seed=" << seed;
    ASSERT_EQ(acked.size(), 8u) << "seed=" << seed;

    // More mutations land in the log without a barrier: the tear has
    // un-synced frames to cut through while the acked batch sits below.
    for (int i = 0; i < 3; ++i) {
      w.record("/arch/volatile" + std::to_string(i));
    }
    w.crash(seed);
    session.abandon();
    const Durable::RecoveryStats st = w.durable.recover();
    (void)st;
    // Every mutation of the acked batch is back, with its fixity row.
    for (const std::uint64_t id : acked) {
      ASSERT_NE(w.server.object(id), nullptr)
          << "seed=" << seed << " object " << id
          << " from a barrier-acked batch lost";
      EXPECT_EQ(w.fixity.by_object(id).size(), 1u) << "seed=" << seed;
    }
  }
}

// The tear lands *inside* an un-acked batch's WAL records: recovery must
// replay a clean prefix (idempotent full-row images), never garbage, and a
// re-recover converges.
TEST(Durable, TornMidBatchReplaysCleanPrefix) {
  for (std::uint64_t seed = 1; seed <= 16; ++seed) {
    World w;
    // One acked object, then a batch of appends whose sync never lands.
    const std::uint64_t base = w.record("/arch/base");
    w.sync_and_run();
    for (int i = 0; i < 6; ++i) {
      w.record("/arch/torn" + std::to_string(i));  // appended, not synced
    }
    w.crash(seed);  // tear lands inside the batch's frames
    w.durable.recover();
    ASSERT_NE(w.server.object(base), nullptr) << "seed=" << seed;
    const std::uint64_t after_first = w.object_count();
    EXPECT_LE(after_first, 7u) << "seed=" << seed;
    // Idempotent redo: recovering again changes nothing.
    w.durable.recover();
    EXPECT_EQ(w.object_count(), after_first) << "seed=" << seed;
    // Post-recovery appends stay durable through a second crash.
    const std::uint64_t fresh = w.record("/arch/fresh");
    w.sync_and_run();
    w.crash(seed * 131 + 7);
    w.durable.recover();
    ASSERT_NE(w.server.object(fresh), nullptr) << "seed=" << seed;
  }
}

TEST(Durable, RecoveryDurationScalesWithLogAndReplay) {
  World w;
  for (int i = 0; i < 8; ++i) w.record("/arch/f" + std::to_string(i));
  w.sync_and_run();
  w.crash(2);
  const Durable::RecoveryStats st = w.durable.recover();
  const WalConfig& cfg = w.durable.config();
  EXPECT_GE(st.duration, cfg.flush_latency +
                             cfg.replay_record_cost * st.replayed_records);
}

// ------------------------------------------------------------------ codec

hsm::ArchiveObject pinned_object() {
  hsm::ArchiveObject o;
  o.object_id = 42;
  o.gpfs_file_id = 9001;
  o.size_bytes = 1 << 20;
  o.content_tag = 0xBEEF;
  o.cartridge_id = 3;
  o.tape_seq = 17;
  o.aggregate_id = 7;
  o.aggregate_offset = 4096;
  o.path = "/arch/run 1/50%.dat";
  o.colocation_group = "tenant-a";
  o.copies = {{5, 9}, {6, 10}};
  return o;
}

integrity::FixityRow pinned_fixity_row() {
  integrity::FixityRow r;
  r.row_id = 12;
  r.object_id = 42;
  r.cartridge_id = 3;
  r.tape_seq = 17;
  r.length = 1 << 20;
  r.checksum = std::numeric_limits<std::uint64_t>::max();
  r.copy_index = 1;
  r.status = integrity::FixityStatus::Unrepairable;
  return r;
}

// The record bytes are the on-disk format: these literals must only ever
// change on purpose (a new checkpoint/log version), never by a refactor.
TEST(WalCodec, ObjectAndFixityEncodingsArePinned) {
  std::string out;
  codec::encode_object(pinned_object(), out);
  EXPECT_EQ(out,
            "42 9001 1048576 48879 3 17 7 4096 /arch/run%201/50%25.dat "
            "tenant-a - 5:9,6:10");
  out.clear();
  codec::encode_fixity(pinned_fixity_row(), out);
  EXPECT_EQ(out, "12 42 3 17 1048576 18446744073709551615 1 1");
}

TEST(WalCodec, LoggedRecordsCarryThePinnedFields) {
  World w;
  w.server.record_object(pinned_object());
  w.server.delete_object(42);
  w.fixity.add(42, 3, 17, 1 << 20, 5, 0);
  w.fixity.erase_object(42);
  w.journal.begin("/arch/j 1", 64, 2);
  std::vector<std::string> seen;
  WalReader::replay(w.durable.writer().log_bytes(),
                    [&](std::string_view r) { seen.emplace_back(r); });
  const std::vector<std::string> want = {
      "O 0 42 9001 1048576 48879 3 17 7 4096 /arch/run%201/50%25.dat "
      "tenant-a - 5:9,6:10",
      "D 0 42",
      "F 1 42 3 17 1048576 5 0 0",
      "E 42",
      "J b /arch/j%201 64 2",
  };
  EXPECT_EQ(seen, want);
}

TEST(WalCodec, DecodeRoundTripsEdgeCases) {
  constexpr std::uint64_t kMax = std::numeric_limits<std::uint64_t>::max();
  std::vector<hsm::ArchiveObject> cases;
  cases.push_back(pinned_object());
  hsm::ArchiveObject aggregate;  // empty path and group, several members
  aggregate.object_id = 8;
  aggregate.members = {1, 2, kMax};
  cases.push_back(aggregate);
  hsm::ArchiveObject escaped = pinned_object();
  escaped.path = "a b%c\nd\te\r%-";
  escaped.path[5] = '\n';
  escaped.path[8] = '\t';
  escaped.path[11] = '\r';
  escaped.colocation_group = "%-";  // a literal "%-" is not the empty sentinel
  cases.push_back(escaped);
  hsm::ArchiveObject extremes;  // every numeric field at UINT64_MAX
  extremes.object_id = extremes.gpfs_file_id = extremes.size_bytes = kMax;
  extremes.content_tag = extremes.cartridge_id = extremes.tape_seq = kMax;
  extremes.aggregate_id = extremes.aggregate_offset = kMax;
  extremes.path = "/x";
  extremes.copies = {{kMax, kMax}, {0, 0}, {kMax, 1}};
  cases.push_back(extremes);

  for (const hsm::ArchiveObject& want : cases) {
    std::string enc;
    codec::encode_object(want, enc);
    hsm::ArchiveObject got;
    got.members = {99};  // decode must replace, not append
    got.copies = {{99, 99}};
    ASSERT_TRUE(codec::decode_object(enc, got)) << enc;
    EXPECT_EQ(got.object_id, want.object_id) << enc;
    EXPECT_EQ(got.gpfs_file_id, want.gpfs_file_id) << enc;
    EXPECT_EQ(got.size_bytes, want.size_bytes) << enc;
    EXPECT_EQ(got.content_tag, want.content_tag) << enc;
    EXPECT_EQ(got.cartridge_id, want.cartridge_id) << enc;
    EXPECT_EQ(got.tape_seq, want.tape_seq) << enc;
    EXPECT_EQ(got.aggregate_id, want.aggregate_id) << enc;
    EXPECT_EQ(got.aggregate_offset, want.aggregate_offset) << enc;
    EXPECT_EQ(got.path, want.path) << enc;
    EXPECT_EQ(got.colocation_group, want.colocation_group) << enc;
    EXPECT_EQ(got.members, want.members) << enc;
    ASSERT_EQ(got.copies.size(), want.copies.size()) << enc;
    for (std::size_t i = 0; i < want.copies.size(); ++i) {
      EXPECT_EQ(got.copies[i].cartridge_id, want.copies[i].cartridge_id);
      EXPECT_EQ(got.copies[i].tape_seq, want.copies[i].tape_seq);
    }
  }
  std::string enc;
  codec::encode_object(aggregate, enc);
  EXPECT_EQ(enc, "8 0 0 0 0 0 0 0 %- %- 1,2,18446744073709551615 -");

  integrity::FixityRow extremes_row;
  extremes_row.row_id = extremes_row.object_id = kMax;
  extremes_row.cartridge_id = extremes_row.tape_seq = kMax;
  extremes_row.length = extremes_row.checksum = kMax;
  for (const integrity::FixityRow& want : {pinned_fixity_row(), extremes_row}) {
    std::string row;
    codec::encode_fixity(want, row);
    integrity::FixityRow got;
    ASSERT_TRUE(codec::decode_fixity(row, got)) << row;
    EXPECT_EQ(got.row_id, want.row_id);
    EXPECT_EQ(got.object_id, want.object_id);
    EXPECT_EQ(got.cartridge_id, want.cartridge_id);
    EXPECT_EQ(got.tape_seq, want.tape_seq);
    EXPECT_EQ(got.length, want.length);
    EXPECT_EQ(got.checksum, want.checksum);
    EXPECT_EQ(got.copy_index, want.copy_index);
    EXPECT_EQ(got.status, want.status);
  }
}

TEST(WalCodec, MalformedFieldListsAreRejected) {
  hsm::ArchiveObject o;
  EXPECT_FALSE(codec::decode_object("", o));
  EXPECT_FALSE(codec::decode_object("1 2 3 4 5 6 7 8 /p g -", o));  // no copies
  EXPECT_FALSE(codec::decode_object("1 2 3 4 5 6 7 x /p g - -", o));
  EXPECT_FALSE(codec::decode_object("1 2 3 4 5 6 7 8 /p g 1,,2 -", o));
  EXPECT_FALSE(codec::decode_object("1 2 3 4 5 6 7 8 /p g - 5", o));  // no ':'
  EXPECT_FALSE(codec::decode_object("1 2 3 4 5 6 7 18446744073709551616 /p g - -", o));
  integrity::FixityRow r;
  EXPECT_FALSE(codec::decode_fixity("1 2 3 4 5 6 7", r));
  EXPECT_FALSE(codec::decode_fixity("1 2 3 4 5 6 7 -1", r));
}

// ------------------------------------------ recovery equals the live store

// Two hash-routed catalogs (disjoint id ranges), the fixity table and the
// restart journal behind one Durable: the full set of stores a recovery
// rebuilds.
struct Plant {
  Plant()
      : net(sim),
        s0(sim, net, "tsm0", hsm::ServerConfig{}),
        s1(sim, net, "tsm1", server_config(std::uint64_t{1} << 32)) {
    durable.attach_server(0, s0);
    durable.attach_server(1, s1);
    durable.attach_fixity(fixity);
    durable.attach_journal(journal);
  }

  static hsm::ServerConfig server_config(std::uint64_t base) {
    hsm::ServerConfig cfg;
    cfg.object_id_base = base;
    return cfg;
  }

  void sync_and_run() {
    bool done = false;
    durable.sync([&] { done = true; });
    sim.run();
    ASSERT_TRUE(done);
  }

  void crash(std::uint64_t seed) {
    s0.power_fail();
    s1.power_fail();
    fixity.clear();
    journal.clear();
    durable.crash(seed);
  }

  std::uint64_t records() { return durable.writer().records_appended(); }

  sim::Simulation sim;
  sim::FlowNetwork net;
  obs::Observer obs;
  hsm::ArchiveServer s0;
  hsm::ArchiveServer s1;
  integrity::FixityDb fixity;
  pftool::RestartJournal journal;
  Durable durable{sim, WalConfig{}, obs};
  std::uint64_t last_erased = 0;  // object of the latest fixity erase
};

// Everything a recovery must reproduce, rendered as text so a mismatch
// prints the differing rows.
std::string store_image(Plant& p) {
  std::string out;
  for (hsm::ArchiveServer* s : {&p.s0, &p.s1}) {
    out += "server " + s->name() + " next " +
           std::to_string(s->next_object_id()) + " export " +
           std::to_string(s->export_db().size()) + "\n";
    s->for_each_object([&](const hsm::ArchiveObject& o) {
      out += "  O ";
      codec::encode_object(o, out);
      out += "\n";
      if (o.path.empty()) return;
      const metadb::TapeObjectRow* bp = s->export_db().by_path(o.path);
      const metadb::TapeObjectRow* bf =
          s->export_db().by_gpfs_file_id(o.gpfs_file_id);
      out += "    by_path " + std::to_string(bp ? bp->object_id : 0) +
             " by_fid " + std::to_string(bf ? bf->object_id : 0) + "\n";
    });
    for (std::uint64_t cart = 0; cart < 8; ++cart) {
      out += "  on_tape " + std::to_string(cart) + ":";
      for (const metadb::TapeObjectRow* r : s->export_db().on_tape(cart)) {
        out += ' ';
        out += std::to_string(r->object_id);
        out += '@';
        out += std::to_string(r->tape_seq);
      }
      out += "\n";
    }
  }
  out += "fixity next " + std::to_string(p.fixity.next_row_id()) + "\n";
  p.fixity.for_each([&](const integrity::FixityRow& r) {
    out += "  F ";
    codec::encode_fixity(r, out);
    out += "\n";
  });
  out += "journal\n" + p.journal.serialize();
  return out;
}

// One store mutation, drawn up front so a twin can replay the same
// sequence; each emits at most one WAL record.
struct RandomOp {
  enum Kind {
    NewObject, Reupsert, Delete, FixityAdd, Relocate, SetStatus,
    EraseObject, ReAddErased, JournalBegin, JournalGood, JournalForget,
  };
  Kind kind;
  std::uint64_t a, b;
};

std::vector<RandomOp> random_ops(std::uint64_t seed, int n) {
  std::mt19937_64 rng(seed);
  std::vector<RandomOp> ops;
  while (static_cast<int>(ops.size()) < n) {
    const auto kind = static_cast<RandomOp::Kind>(rng() % 11);
    ops.push_back({kind, rng(), rng()});
    // An erase is followed by a re-add for the same object half the time.
    if (kind == RandomOp::EraseObject && rng() % 2 == 0) {
      ops.push_back({RandomOp::ReAddErased, rng(), rng()});
    }
  }
  return ops;
}

void apply_op(Plant& p, const RandomOp& op) {
  hsm::ArchiveServer& s = (op.a & 1) ? p.s1 : p.s0;
  std::vector<std::uint64_t> ids;
  s.for_each_object([&](const hsm::ArchiveObject& o) { ids.push_back(o.object_id); });
  std::vector<integrity::FixityRow> rows;
  p.fixity.for_each([&](const integrity::FixityRow& r) { rows.push_back(r); });
  const std::string dst = "/arch/j " + std::to_string(op.b % 4);
  switch (op.kind) {
    case RandomOp::NewObject: {
      hsm::ArchiveObject o;
      o.object_id = s.allocate_object_id();
      if (op.b % 5 != 0) {
        o.path = "/arch/d" + std::to_string(op.b % 3) + "/f " +
                 std::to_string(o.object_id);
        o.gpfs_file_id = o.object_id * 3;
      } else {
        o.members = {op.a % 40, op.b % 40};  // an aggregate: no path
      }
      o.size_bytes = op.b % 100000;
      o.content_tag = op.a;
      o.cartridge_id = op.b % 8;
      o.tape_seq = op.a % 1000;
      o.colocation_group = op.b % 3 == 0 ? "" : "g" + std::to_string(op.a % 3);
      if (op.a % 3 == 0) o.copies = {{op.b % 8, op.a % 97}};
      s.record_object(std::move(o));
      break;
    }
    case RandomOp::Reupsert: {
      if (ids.empty()) break;
      hsm::ArchiveObject o = *s.object(ids[op.b % ids.size()]);
      o.cartridge_id = op.a % 8;
      o.tape_seq = op.b % 500;
      if (op.a % 2 == 0) {
        o.copies.push_back({op.b % 8, op.a % 89});
      } else {
        o.copies.clear();
      }
      s.record_object(std::move(o));
      break;
    }
    case RandomOp::Delete:  // a live id, or one the catalog never had
      s.delete_object(op.b % 3 != 0 && !ids.empty() ? ids[op.b % ids.size()]
                                                    : 900000 + op.b % 5);
      break;
    case RandomOp::FixityAdd: {
      const std::uint64_t obj = ids.empty() ? 1 : ids[op.b % ids.size()];
      p.fixity.add(obj, op.a % 8, op.b % 1000, op.b % 4096, op.a,
                   static_cast<unsigned>(op.b % 2));
      break;
    }
    case RandomOp::Relocate:
      if (rows.empty()) break;
      {
        const integrity::FixityRow& r = rows[op.b % rows.size()];
        p.fixity.relocate(r.object_id, r.cartridge_id, op.a % 8, op.b % 700);
      }
      break;
    case RandomOp::SetStatus:
      if (rows.empty()) break;
      p.fixity.set_status(rows[op.b % rows.size()].row_id,
                          op.a % 2 ? integrity::FixityStatus::Unrepairable
                                   : integrity::FixityStatus::Ok);
      break;
    case RandomOp::EraseObject:
      if (rows.empty()) break;
      p.last_erased = rows[op.b % rows.size()].object_id;
      p.fixity.erase_object(p.last_erased);
      break;
    case RandomOp::ReAddErased:
      p.fixity.add(p.last_erased, op.a % 8, op.b % 1000, 512, op.b, 0);
      break;
    case RandomOp::JournalBegin:
      p.journal.begin(dst, op.a % 4096, 1 + op.a % 5);
      break;
    case RandomOp::JournalGood:
      p.journal.mark_good(dst, op.a % 5);
      break;
    case RandomOp::JournalForget:
      p.journal.forget(dst);
      break;
  }
}

// Every acknowledged mutation survives a crash: after sync, crash and
// recover, the rebuilt stores equal the pre-crash stores row for row,
// index for index, allocator for allocator.
TEST(DurableFold, RecoveryEqualsTheLiveStore) {
  for (std::uint64_t seed = 1; seed <= 24; ++seed) {
    for (const bool checkpoint : {false, true}) {
      Plant p;
      const std::vector<RandomOp> ops = random_ops(seed, 400);
      for (std::size_t i = 0; i < ops.size(); ++i) {
        apply_op(p, ops[i]);
        if (checkpoint && i == ops.size() / 2) {
          p.durable.checkpoint();
          p.sim.run();
        }
      }
      p.sync_and_run();
      const std::string live = store_image(p);
      p.crash(seed);
      p.durable.recover();
      ASSERT_EQ(store_image(p), live)
          << "seed=" << seed << " checkpoint=" << checkpoint;
    }
  }
}

// A torn tail loses some acknowledged-nowhere suffix; what comes back must
// be exactly the state of a twin that executed only the replayed prefix.
TEST(DurableFold, TornTailRecoveryEqualsTheReplayedPrefix) {
  for (std::uint64_t seed = 1; seed <= 24; ++seed) {
    for (const bool checkpoint : {false, true}) {
      Plant p;
      const std::vector<RandomOp> ops = random_ops(seed * 31 + 5, 300);
      std::mt19937_64 rng(seed);
      std::uint64_t checkpointed = 0;  // records the checkpoint covers
      for (std::size_t i = 0; i < ops.size(); ++i) {
        apply_op(p, ops[i]);
        if (checkpoint && i == ops.size() / 3) {
          checkpointed = p.records();
          p.durable.checkpoint();
          p.sim.run();
        }
        if (i + 40 < ops.size() && rng() % 16 == 0) p.sync_and_run();
      }
      p.crash(seed * 977 + 3);
      const Durable::RecoveryStats st = p.durable.recover();

      Plant twin;
      const std::uint64_t prefix = checkpointed + st.replayed_records;
      for (const RandomOp& op : ops) {
        if (twin.records() == prefix) break;
        apply_op(twin, op);
      }
      ASSERT_EQ(twin.records(), prefix) << "seed=" << seed;
      ASSERT_EQ(store_image(p), store_image(twin))
          << "seed=" << seed << " checkpoint=" << checkpoint
          << " prefix=" << prefix;
    }
  }
}

// The case a fold that ignores erase order gets wrong: an E for an object
// followed by a fresh row for the same object.  Only rows imaged before
// the E are gone.
TEST(DurableFold, RowAddedAfterEraseObjectSurvives) {
  World w;
  const std::uint64_t a = w.record("/arch/a");
  w.fixity.add(a, 4, 40, 1 << 20, 0xAA, 1);
  w.fixity.erase_object(a);
  const std::uint64_t row = w.fixity.add(a, 5, 50, 1 << 20, 0xBB, 0);
  w.fixity.set_status(row, integrity::FixityStatus::Unrepairable);
  w.sync_and_run();
  const std::uint64_t next_row = w.fixity.next_row_id();
  w.crash(3);
  w.durable.recover();
  const auto rows = w.fixity.by_object(a);
  ASSERT_EQ(rows.size(), 1u);
  EXPECT_EQ(rows[0]->row_id, row);
  EXPECT_EQ(rows[0]->cartridge_id, 5u);
  EXPECT_EQ(rows[0]->status, integrity::FixityStatus::Unrepairable);
  // The allocator stays above the erased rows' ids as well.
  EXPECT_EQ(w.fixity.next_row_id(), next_row);
}

}  // namespace
}  // namespace cpa::wal
