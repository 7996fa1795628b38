#ifndef PERFBENCH_TRACE_H_
#define PERFBENCH_TRACE_H_

#include "common.h"
#include "workloads.h"

namespace perfbench {

/// The traced run of one workload: sets the workload's stack up, runs a
/// short stretch of its load (generator lag), times in-process inserts and
/// deletes and leaves them staged, then replays the query pool over that
/// delta one query at a time through each layer boundary in turn —
/// ExecuteAggregate, Database::TryRun, one-query RunBatch,
/// DatabaseEngine::RunBatchAsync, Router::RunBatchAsync, Client::RunBatch
/// over the workload's socket — recording one span per call, and times
/// compaction, the WAL, layout learning and snapshot reopen the same way. Reports every per-layer metric and the tracing overhead, and
/// writes the spans to opts.trace_path. Returns false on wrong answers.
bool RunTraced(WorkloadData* data, const RunOptions& opts, Report* report);

}  // namespace perfbench

#endif  // PERFBENCH_TRACE_H_
