#include "workloads.h"

#include <unistd.h>

#include <algorithm>
#include <cmath>
#include <cstdio>

#include "loadgen.h"

namespace perfbench {

using flood::Database;
using flood::DatabaseOptions;
using flood::Query;
using flood::Table;
using flood::Value;
using flood::WorkloadKind;

namespace {

// Workload sizes at scale 1 (see perfbench/WORKLOADS.md for why).
constexpr size_t kAnalyticsRows = 12'000'000;
constexpr size_t kAnalyticsPool = 1024;
constexpr size_t kServeRows = 150'000;
constexpr size_t kServeShards = 4;
constexpr size_t kServePool = 2048;
constexpr size_t kTrainQueries = 200;
/// Share of --seconds spent at the nominal rate; the rest is the ladder.
constexpr double kNominalShare = 0.4;
/// Rate ladder: kLadderMinRate * kLadderStep^k for k < kLadderRungs.
constexpr double kLadderMinRate = 2000.0;
constexpr double kLadderStep = 1.05;
/// 94 rungs: the top rung, 2000 * 1.05^93 = 187k/s, sits just below the
/// knee, where the one-thread generator and host noise decide the outcome
/// (206k-290k/s across seeds with a higher top), so sustained_qps is a
/// floor check. Bisection over 94 rungs takes 7 probes, plus repeats of
/// missed rungs: the ladder's share of --seconds is split into this many
/// probes.
constexpr int kLadderRungs = 94;
constexpr int kLadderProbes = 10;

/// Reports `<prefix>_p50_us` and `<prefix>_p90_us` with their sample
/// count, and notes the p95 and p99 beside them.
void AddLatency(Report* report, const std::string& prefix,
                const Samples& us, const std::string& what) {
  report->Add(prefix + "_p50_us", us.Percentile(50), "us");
  report->Add(prefix + "_p90_us", us.Percentile(kTailPercentile), "us");
  Report::Note(prefix + " samples (" + what + ")" +
               Fmt(" n=%.0f; p95 %.1f us, p99 %.1f us",
                   static_cast<double>(us.size()), us.Percentile(95),
                   us.Percentile(99)));
}

flood::serve::ServerOptions ServerOpts(const std::string& uds_path) {
  flood::serve::ServerOptions s;
  s.uds_path = uds_path;
  // The benchmark measures latency under load, not shedding: admission
  // control is sized so an open-loop burst queues instead of being refused.
  s.max_inflight_batches = size_t{1} << 16;
  s.max_inflight_per_connection = size_t{1} << 16;
  return s;
}

void Count(const PhaseResult& r, Report* report) {
  report->attempted += r.reads_attempted;
  report->failed += r.failed;
  report->wrong += r.wrong;
}

/// Counts one batch into `report`: result i checked against
/// expected[picks[i]].
void CheckBatch(const flood::BatchResult& r,
                const std::vector<Answer>& expected,
                std::span<const size_t> picks, Report* report) {
  report->attempted += picks.size();
  if (!r.status.ok() || r.results.size() != picks.size()) {
    report->failed += picks.size();
    return;
  }
  for (size_t i = 0; i < picks.size(); ++i) {
    if (!(Answer{r.results[i].count, r.results[i].sum} ==
          expected[picks[i]])) {
      ++report->wrong;
      ++report->failed;
    }
  }
}

}  // namespace

ClosedLoopResult RunClosedLoop(Database* db, const std::vector<Query>& pool,
                               const std::vector<Answer>& expected,
                               double seconds, uint64_t seed,
                               Report* report) {
  ClosedLoopResult out;
  flood::Rng rng(seed);
  std::vector<Query> batch(kAnalyticsBatch);
  std::vector<size_t> picks(kAnalyticsBatch);
  const int64_t start = NowNs();
  const int64_t end = start + static_cast<int64_t>(seconds * 1e9);
  int64_t prev_done = start;
  int64_t now = start;
  while (now < end) {
    for (size_t i = 0; i < kAnalyticsBatch; ++i) {
      picks[i] = static_cast<size_t>(
          rng.UniformInt(0, static_cast<int64_t>(pool.size()) - 1));
      batch[i] = pool[picks[i]];
    }
    const int64_t t0 = NowNs();
    out.lag_us.Add((t0 - prev_done) / 1e3);
    const flood::BatchResult r = db->RunBatch(batch);
    now = NowNs();
    prev_done = now;
    out.batch_us.Add((now - t0) / 1e3);
    CheckBatch(r, expected, picks, report);
    out.completed += batch.size();
  }
  out.seconds = (now - start) / 1e9;
  return out;
}

namespace {

bool RunAnalytics(WorkloadData* data, const RunOptions& opts,
                  Report* report) {
  RssSampler rss;
  std::vector<size_t> all(data->pool.size());
  for (size_t i = 0; i < all.size(); ++i) all[i] = i;

  // Each set-up learns its layout from its own training workload, and the
  // closed loop runs a share of --seconds on each: the figures average
  // over kSetUps learned layouts.
  std::vector<double> setup_secs;
  ClosedLoopResult loop;
  std::unique_ptr<Stack> stack;
  for (int i = 0; i < kSetUps; ++i) {
    stack.reset();  // One stack alive at a time.
    const int64_t t0 = NowNs();
    stack = SetUp(*data, opts, i);
    setup_secs.push_back((NowNs() - t0) / 1e9);
    Database& db = *stack->db;
    // Warm-up: one pass over the pool, checked, not timed.
    CheckBatch(db.RunBatch(data->pool), data->expected, all, report);
    const ClosedLoopResult part =
        RunClosedLoop(&db, data->pool, data->expected, opts.seconds / kSetUps,
                      opts.seed * 101 + 5 + static_cast<uint64_t>(i), report);
    Report::Note(Fmt("set-up %.0f: %.3f s; closed loop %.1f queries/s, batch "
                     "p50 %.0f us",
                     i, setup_secs.back(), part.completed / part.seconds,
                     part.batch_us.Percentile(50)));
    loop.batch_us.Append(part.batch_us);
    loop.lag_us.Append(part.lag_us);
    loop.completed += part.completed;
    loop.seconds += part.seconds;
  }
  const double qps = loop.completed / loop.seconds;
  const double peak_rss_mb = rss.max_mb();

  Report::Note(Fmt("closed loop: %.0f queries in %.3f s, batches of %.0f "
                   "drawn from the pool on %.0f pool threads",
                   static_cast<double>(loop.completed), loop.seconds,
                   static_cast<double>(kAnalyticsBatch),
                   static_cast<double>(stack->db->num_threads())));
  Report::Note(Fmt("generator turnaround p99 %.3f us (closed loop)",
                   loop.lag_us.Percentile(99)));
  report->Add("setup_s", Median(setup_secs), "s");
  report->Add("query_qps", qps, "1/s");
  // A closed loop offers exactly what completes: no backlog can form, so
  // the sustained rate is the completed rate.
  report->Add("sustained_qps", qps, "1/s");
  AddLatency(report, "request", loop.batch_us, "RunBatch batches");
  report->Add("peak_rss_mb", peak_rss_mb, "MB");
  return report->wrong == 0;
}

bool RunServePoint(WorkloadData* data, const RunOptions& opts,
                   Report* report) {
  RssSampler rss;
  std::unique_ptr<Stack> stack = TimedSetUps(*data, opts, report);
  data->ds.table = Table();  // The shards keep their own copies.

  const size_t conns = std::min<size_t>(opts.host.nproc, 4);
  LoadGen gen(stack->uds_path, conns, &data->pool, &data->expected);
  if (!gen.Connect()) Die("load generator could not connect");

  const double measured_s = opts.seconds * kNominalShare;
  // Warm-up at the nominal rate: checked, not timed.
  Count(gen.Run({kServeNominalRate, std::min(1.0, 0.1 * opts.seconds),
                 opts.seed * 101 + 1}),
        report);
  const PhaseResult nom =
      gen.Run({kServeNominalRate, measured_s, opts.seed * 101 + 2});
  Count(nom, report);
  // Peak memory of set-up and the nominal phase; the ladder's larger
  // request schedules are the generator's memory, not the program's.
  const double peak_rss_mb = rss.max_mb();

  const LadderResult ladder = RunLadder(
      &gen, kLadderMinRate, kLadderStep, kLadderRungs,
      (opts.seconds - measured_s) / kLadderProbes, opts.tail_limit_us,
      opts.tail_limit_us / 2, opts.seed * 101 + 3, report);
  for (const std::string& line : ladder.log) Report::Note(line);

  // The generator is on time when its lateness at the reported tail
  // percentile is a small part of the limit; a millisecond host stall at
  // the 1% level shows in its p99 and does not make the run invalid.
  const double lag_tail = nom.lag_us.Percentile(kTailPercentile);
  const double max_lag_us = opts.tail_limit_us / 4;
  Report::Note(Fmt("open loop at %.0f queries/s for %.2f s: %.0f answered",
                   kServeNominalRate, measured_s,
                   static_cast<double>(nom.reads_completed)));
  Report::Note(Fmt("generator lag p90 %.1f us (limit %.0f us), p99 %.1f us, "
                   "backlog at schedule end %.0f",
                   lag_tail, max_lag_us, nom.lag_us.Percentile(99),
                   static_cast<double>(nom.backlog_at_end)));
  if (lag_tail > max_lag_us) {
    report->valid = false;
    report->invalid_reason = "the open-loop generator fell behind";
  }
  report->Add("query_qps", nom.reads_completed / measured_s, "1/s");
  report->Add("sustained_qps", ladder.sustained_qps, "1/s");
  AddLatency(report, "request", nom.read_us, "one-query frames");
  report->Add("peak_rss_mb", peak_rss_mb, "MB");
  return report->wrong == 0;
}

}  // namespace

std::vector<Answer> OracleAnswers(const Table& table,
                                  std::span<const Query> queries,
                                  size_t threads) {
  DatabaseOptions o;
  o.index_name = "full_scan";
  o.num_threads = threads;
  flood::StatusOr<Database> db = Database::Open(table, o);
  if (!db.ok()) Die("oracle open: " + db.status().ToString());
  const flood::BatchResult r = db->RunBatch(queries);
  if (!r.status.ok()) Die("oracle batch: " + r.status.ToString());
  std::vector<Answer> out;
  out.reserve(r.results.size());
  for (const flood::QueryResult& q : r.results) out.push_back({q.count, q.sum});
  return out;
}

WorkloadData MakeWorkloadData(const RunOptions& opts) {
  WorkloadData w;
  w.name = opts.workload;
  const uint64_t s = opts.seed;
  WorkloadKind kind = WorkloadKind::kOlapSkewed;
  size_t pool = 0;
  if (w.name == "analytics_large") {
    w.ds = flood::MakeTpchDataset(Scaled(kAnalyticsRows, opts.scale, 20'000),
                                  s);
    pool = kAnalyticsPool;
    kind = WorkloadKind::kOlapSkewed;
  } else if (w.name == "serve_point") {
    w.ds = flood::MakeSalesDataset(Scaled(kServeRows, opts.scale, 5'000), s);
    pool = kServePool;
    kind = WorkloadKind::kOltpSingleKey;
  } else {
    Die("unknown workload '" + w.name + "'");
  }
  pool = Scaled(pool, std::sqrt(opts.scale), 64);
  for (int i = 0; i < kSetUps; ++i) {
    w.train.push_back(
        flood::MakeWorkload(w.ds, kind, kTrainQueries, s * 1000 + 1 + 10 * i));
  }
  w.pool = flood::MakeWorkload(w.ds, kind, pool, s * 1000 + 2).queries();
  const Table& t = w.ds.table;
  const double raw_mb = t.num_rows() * t.num_dims() * sizeof(Value) / 1048576.0;
  const double encoded_mb = t.MemoryUsageBytes() / 1048576.0;
  const int64_t oracle_start = NowNs();
  w.expected = OracleAnswers(t, w.pool, opts.host.nproc);
  const double oracle_s = (NowNs() - oracle_start) / 1e9;
  const double llc = opts.host.llc_mb > 0 ? opts.host.llc_mb : 1.0;
  char buf[512];
  std::snprintf(buf, sizeof(buf),
                "context data workload=%s dataset=%s rows=%zu dims=%zu "
                "raw_mb=%.1f encoded_mb=%.1f raw/llc=%.2fx encoded/llc=%.2fx "
                "pool=%zu oracle_s=%.2f",
                w.name.c_str(), w.ds.name.c_str(), t.num_rows(),
                t.num_dims(), raw_mb, encoded_mb, raw_mb / llc,
                encoded_mb / llc, w.pool.size(), oracle_s);
  Report::Note(buf);
  return w;
}

Stack::~Stack() {
  if (server) {
    server->Shutdown();
    (void)server->Join();
    server.reset();
  }
  router.reset();
  sharded.reset();
  db.reset();
  if (!uds_path.empty()) ::unlink(uds_path.c_str());
}

std::unique_ptr<Stack> SetUp(const WorkloadData& data, const RunOptions& opts,
                             int index) {
  auto stack = std::make_unique<Stack>();
  const size_t nproc = opts.host.nproc;
  DatabaseOptions o;
  o.index_name = "flood";
  o.training_workload = data.train[static_cast<size_t>(index)];
  o.num_threads = nproc;
  if (data.name == "analytics_large") {
    flood::StatusOr<Database> db = Database::Open(data.ds.table, o);
    if (!db.ok()) Die("Database::Open: " + db.status().ToString());
    stack->db = std::make_unique<Database>(std::move(*db));
    return stack;
  }
  stack->uds_path =
      opts.work_dir + "/" + data.name + "-" + std::to_string(index) + ".sock";
  flood::ShardedDatabaseOptions so;
  so.num_shards = kServeShards;
  so.sort_dim = data.ds.key_dims[0];
  so.shard_options = o;
  // Database threads total nproc, split across the shards.
  so.shard_options.num_threads = std::max<size_t>(1, nproc / kServeShards);
  flood::StatusOr<flood::ShardedDatabase> db =
      flood::ShardedDatabase::Open(data.ds.table, so);
  if (!db.ok()) Die("ShardedDatabase::Open: " + db.status().ToString());
  stack->sharded = std::make_unique<flood::ShardedDatabase>(std::move(*db));
  stack->router = flood::serve::Router::Over(stack->sharded.get());
  flood::StatusOr<std::unique_ptr<flood::serve::Server>> server =
      flood::serve::Server::Create(stack->router.get(),
                                   ServerOpts(stack->uds_path));
  if (!server.ok()) Die("Server::Create: " + server.status().ToString());
  stack->server = std::move(*server);
  stack->server->Start();
  return stack;
}

std::unique_ptr<Stack> TimedSetUps(const WorkloadData& data,
                                   const RunOptions& opts, Report* report) {
  std::vector<double> secs;
  std::unique_ptr<Stack> stack;
  for (int i = 0; i < kSetUps; ++i) {
    stack.reset();  // One stack alive at a time.
    const int64_t t0 = NowNs();
    stack = SetUp(data, opts, i);
    secs.push_back((NowNs() - t0) / 1e9);
  }
  Report::Note(Fmt("set-ups: %.3f s, %.3f s, %.3f s (median reported)",
                   secs[0], secs[1], secs[2]));
  report->Add("setup_s", Median(secs), "s");
  return stack;
}

bool RunEndToEnd(WorkloadData* data, const RunOptions& opts,
                 Report* report) {
  if (data->name == "analytics_large") return RunAnalytics(data, opts, report);
  return RunServePoint(data, opts, report);
}

}  // namespace perfbench
