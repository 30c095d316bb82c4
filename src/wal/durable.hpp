// Durability wrapper: redo-logs every metadata mutation through the WAL.
//
// Three stores hold archive metadata that must survive a host power
// failure: the per-server object catalog (+ its indexed TSM export, which
// is derived row-by-row and therefore not logged separately), the fixity
// table, and the pftool restart journal.  Durable subscribes to each
// store's mutation hooks and appends one idempotent redo record per
// mutation — full-row images for catalog/fixity upserts, incremental (but
// naturally idempotent) ops for journal bitmaps.  Records are applied
// in-memory first and logged after; a `sync()` barrier is what callers
// use at acknowledgement points (before a punch frees disk data, before a
// job completion is reported) to guarantee the log covers what they are
// about to promise.
//
// Recovery inverts the pipeline as a bulk load rather than a replay of
// single upserts.  Pass 1 (scan) walks the last durably installed
// checkpoint and then the surviving log image (CRC framing stops the walk
// at the torn tail) as views, parses only each record's tag and keys, and
// folds them into a last-writer-wins index of (key, sequence, where the
// record sits).  Pass 2 (build) decodes only the surviving row images and
// installs each catalog and the fixity table wholesale, in key order.
// Installing wholesale makes recovering twice converge by construction.
#pragma once

#include <cstdint>
#include <functional>
#include <string>
#include <string_view>
#include <vector>

#include "hsm/server.hpp"
#include "integrity/fixity.hpp"
#include "pftool/core/restart_journal.hpp"
#include "wal/wal.hpp"

namespace cpa::wal {

class Durable {
 public:
  Durable(sim::Simulation& sim, WalConfig cfg, obs::Observer& obs);

  // --- wiring (once, at plant construction) -------------------------------
  void attach_server(unsigned idx, hsm::ArchiveServer& srv);
  void attach_fixity(integrity::FixityDb& db);
  void attach_journal(pftool::RestartJournal& journal);

  /// Group-commit durability barrier (see WalWriter::sync).
  void sync(std::function<void()> done) { writer_.sync(std::move(done)); }

  /// Manual checkpoint (auto-checkpointing is governed by
  /// WalConfig::checkpoint_bytes).
  void checkpoint() { writer_.checkpoint(); }

  /// Power failure: tear the un-fsynced log tail at a seed-derived byte
  /// offset and drop pending barrier callbacks.  The caller wipes the
  /// attached stores separately.
  void crash(std::uint64_t seed) { writer_.crash(seed); }

  struct RecoveryStats {
    std::uint64_t replayed_records = 0;
    std::uint64_t checkpoint_bytes = 0;
    std::uint64_t log_bytes = 0;
    /// Modeled virtual-time cost of the recovery scan + redo apply.
    sim::Tick duration = 0;
  };

  /// Rebuilds the attached stores from checkpoint + log: every catalog
  /// and the fixity table are replaced wholesale, journal records are
  /// re-applied in order.  Synchronous state change; the returned
  /// duration is the virtual time the caller should charge before
  /// resuming service.
  RecoveryStats recover();

  [[nodiscard]] WalWriter& writer() { return writer_; }
  [[nodiscard]] const WalConfig& config() const { return writer_.config(); }

 private:
  struct Fold;  // pass-1 index (durable.cpp)

  std::string serialize_state() const;  // checkpoint source
  /// Pass 1 for one record: fold catalog/fixity keys, apply journal ops.
  void scan(std::string_view record, Fold& fold);
  /// Pass 2: decode the surviving images and install every table.
  void build(Fold& fold);
  void apply_journal(std::string_view tag, std::string_view record);

  sim::Simulation& sim_;
  obs::Observer& obs_;
  WalWriter writer_;
  std::vector<hsm::ArchiveServer*> servers_;
  integrity::FixityDb* fixity_ = nullptr;
  pftool::RestartJournal* journal_ = nullptr;
  /// Recovery re-applies journal records through the same API that fires
  /// the journal's mutation hook; this flag keeps replay from re-logging
  /// itself.
  bool replaying_ = false;
  /// Reused encode buffer for the append hooks.
  std::string rec_;
};

}  // namespace cpa::wal
