#ifndef PERFBENCH_WORKLOADS_H_
#define PERFBENCH_WORKLOADS_H_

#include <cstdint>
#include <memory>
#include <span>
#include <string>
#include <vector>

#include "api/database.h"
#include "api/sharded_database.h"
#include "common.h"
#include "data/datasets.h"
#include "serve/router.h"
#include "serve/server.h"

namespace perfbench {

/// Command-line options of one run.
struct RunOptions {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  /// Multiplies every row count and pool size (smoke runs use ~0.01).
  double scale = 1.0;
  /// Read p90 limit of serve_point's rate ladder.
  double tail_limit_us = 0.0;
  /// Scratch directory inside the checkout (sockets, WAL, snapshots).
  std::string work_dir;
  /// Where the traced run writes its spans.
  std::string trace_path;
  HostContext host;
};

/// Expected aggregate answer of one query.
struct Answer {
  uint64_t count = 0;
  int64_t sum = 0;
  bool operator==(const Answer&) const = default;
};

/// One workload's generated inputs (all derived from the seed).
struct WorkloadData {
  std::string name;
  flood::BenchDataset ds;
  /// One training workload per set-up, each drawn from the same mix.
  std::vector<flood::Workload> train;
  std::vector<flood::Query> pool;
  /// Oracle answers for `pool`.
  std::vector<Answer> expected;
};

/// Answers of `queries` over `table` from the full_scan registry index (a
/// trivial, non-Flood oracle).
std::vector<Answer> OracleAnswers(const flood::Table& table,
                                  std::span<const flood::Query> queries,
                                  size_t threads);

/// Builds the data, training workload, query pool and the oracle answers
/// of `opts.workload`. Prints the data-size context line.
WorkloadData MakeWorkloadData(const RunOptions& opts);

/// The stack a workload runs against. analytics_large: one Database.
/// serve_point: a ShardedDatabase behind a Router behind a Server.
struct Stack {
  Stack() = default;
  ~Stack();
  Stack(const Stack&) = delete;
  Stack& operator=(const Stack&) = delete;

  std::unique_ptr<flood::Database> db;
  std::unique_ptr<flood::ShardedDatabase> sharded;
  std::unique_ptr<flood::serve::Router> router;
  std::unique_ptr<flood::serve::Server> server;
  std::string uds_path;
};

/// Opens the workload's stack over `data` (Database::Open, layout learning
/// from data.train[index] and build, plus server start): the unit `setup_s`
/// times. `index` also keeps the sockets of successive set-ups apart.
std::unique_ptr<Stack> SetUp(const WorkloadData& data, const RunOptions& opts,
                             int index);

/// Number of set-ups per run (and of training workloads).
inline constexpr int kSetUps = 3;

/// Sets the stack up kSetUps times, reports the median as `setup_s`, and
/// returns the last stack.
std::unique_ptr<Stack> TimedSetUps(const WorkloadData& data,
                                   const RunOptions& opts, Report* report);

/// serve_point's open-loop read rate (one query per frame).
inline constexpr double kServeNominalRate = 25000.0;

/// Queries per analytics_large RunBatch batch.
inline constexpr size_t kAnalyticsBatch = 64;

/// analytics_large's load: one client, a closed loop of kAnalyticsBatch-
/// query Database::RunBatch batches for `seconds`, each batch's queries
/// drawn at random from `pool` (an Rng seeded with `seed`), every answer
/// checked. lag_us is the client's turnaround between batches.
struct ClosedLoopResult {
  Samples batch_us;
  Samples lag_us;
  size_t completed = 0;
  double seconds = 0;
};
ClosedLoopResult RunClosedLoop(flood::Database* db,
                               const std::vector<flood::Query>& pool,
                               const std::vector<Answer>& expected,
                               double seconds, uint64_t seed,
                               Report* report);

/// The untraced end-to-end run of one workload. Returns false on wrong
/// answers.
bool RunEndToEnd(WorkloadData* data, const RunOptions& opts, Report* report);

}  // namespace perfbench

#endif  // PERFBENCH_WORKLOADS_H_
