// PFTool runtime tunables (Sec 4.1.2 item 5).
//
// "We manipulate a list of runtime tunable parameters when issuing each
// PFTool command.  Tunable parameters are (a) number of processes created,
// (b) number of tape drives used, (c) basic file copy size, (d) storage
// pool information, (e) Fuse file chunk size used, and (f) tape restoring
// optimization flag."
#pragma once

#include <cstdint>
#include <string>

#include "fault/plan.hpp"
#include "simcore/splitmix64.hpp"
#include "simcore/time.hpp"
#include "simcore/units.hpp"

namespace cpa::pftool {

/// File copy strategy thresholds (Sec 4.1.2 items 3-4).
struct PlannerConfig {
  /// "A single large file ... in the range of 10 GBs to 100 GBs" is split
  /// into equal sub-chunks for N-to-1 parallel copy.
  std::uint64_t large_file_threshold = 10ULL * kGB;
  /// N-to-1 chunk size ("basic file copy size" / CopySize tunable).
  std::uint64_t copy_chunk_size = 4ULL * kGB;
  /// "A file of size greater than 100 GB is considered a very large file"
  /// — goes through ArchiveFUSE as N-to-N.
  std::uint64_t very_large_threshold = 100ULL * kGB;
  /// FUSE chunk size (FuseChunkSize tunable).
  std::uint64_t fuse_chunk_size = 16ULL * kGB;
};

struct PftoolConfig {
  // --- process counts (NumProcs / NumTapeProcs) ---------------------------
  unsigned num_workers = 8;
  unsigned num_readdir = 2;
  /// 0 in the archive direction ("t=0, when in archive process, giving
  /// more worker for copying data").
  unsigned num_tapeprocs = 2;

  PlannerConfig planner;

  // --- per-operation costs --------------------------------------------------
  sim::Tick stat_cost = sim::usecs(500);        // one stat round-trip
  sim::Tick readdir_per_entry = sim::usecs(100);
  /// Per-file open/create/close + metadata-token overhead on the copy
  /// path, charged once per file (before its first chunk moves).  This is
  /// what makes "massive amounts of small" files slow even on fast disk.
  sim::Tick per_file_cost = sim::msecs(2);
  /// Single-stream throughput ceiling of one worker's copy (TCP window +
  /// file-system client limits); 0 = unlimited.
  double per_stream_max_bps = 0.0;
  /// Aggregate ceiling for N writers sharing ONE destination file — the
  /// N-to-1 write-lock/false-sharing penalty (the PLFS problem the paper
  /// cites in Sec 4.1.2 item 4).  GPFS tolerates moderate N-to-1 (the
  /// 10-100 GB band still speeds up with a few workers) but saturates
  /// well below the fabric; ArchiveFUSE N-to-N copies write N distinct
  /// chunk files and escape this limit entirely.
  double nto1_shared_file_bps = 1200.0 * 1e6;
  sim::Tick msg_latency = sim::usecs(50);       // MPI message hop
  /// Stat requests are batched to amortize messages.
  unsigned stat_batch = 64;

  // --- WatchDog ---------------------------------------------------------------
  sim::Tick watchdog_period = sim::minutes(1);
  /// "forces the termination of PFTool runtime activities if the data copy
  /// is stalled without any further progress for a specific amount of time"
  sim::Tick stall_timeout = sim::minutes(30);

  // --- behaviour flags ----------------------------------------------------------
  /// Tape restoring optimization flag: sort recalls into tape order.
  bool tape_optimization = true;
  /// Restart mode: consult the restart journal and skip good chunks.
  bool restartable = false;
  /// Chunk-level recovery: a failed chunk copy (FUSE write error, worker
  /// killed by an FTA node crash, ...) is requeued with backoff instead of
  /// failing the file, up to the policy's attempt budget.  The default
  /// none() preserves the historical fail-fast behaviour.
  fault::RetryPolicy retry = fault::RetryPolicy::none();
  /// Fixity verification (--verify): recompute each copied chunk's content
  /// tag after the transfer and compare against the planned value; tape
  /// recalls additionally report the archive's own fixity verdict.
  bool verify_fixity = false;
  /// Storage pool placement hint for destination files (stgpool support).
  std::string dest_pool_hint;
};

/// Canonical derivation of a chunk's content tag from the whole file's tag.
/// Both the chunked writer and the verifier compute this, so integrity
/// comparison works across representations.
[[nodiscard]] constexpr std::uint64_t chunk_tag(std::uint64_t file_tag,
                                                std::uint64_t index) {
  return mix64(file_tag ^ (index + kSplitMix64Gamma));
}

}  // namespace cpa::pftool
