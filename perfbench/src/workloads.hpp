// The three benchmark workloads.  Each runs its iterations for
// `opts.seconds`, checks its outputs, and returns every metric it measures
// (end-to-end metrics from untraced iterations, per-layer metrics from
// traced ones).
#pragma once

#include <string>

#include "ledger.hpp"

namespace perfbench {

/// The 62-job Open Science campaign on the Roadrunner plant (Fig 10).
Result run_fig10_campaign(const Options& opts, Ledger& ledger);
/// Migrate, open-loop restores, trashcan purge, reclaim, scrub and
/// power-fail recovery on the default plant with the WAL on.
Result run_tape_lifecycle(const Options& opts, Ledger& ledger);
/// Journaled pfcp then pfcm of a generated tree with the real-I/O engine.
Result run_rt_copy(const Options& opts, Ledger& ledger);

}  // namespace perfbench
