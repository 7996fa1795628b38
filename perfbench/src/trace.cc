#include "trace.h"

#include <unistd.h>

#include <cmath>
#include <fstream>
#include <future>
#include <memory>
#include <set>

#include "common/rng.h"
#include "core/cost_model.h"
#include "core/flood_index.h"
#include "core/layout_optimizer.h"
#include "loadgen.h"
#include "query/executor.h"
#include "serve/client.h"

namespace perfbench {

namespace fs = flood::serve;
using flood::Database;
using flood::Query;
using flood::Value;

namespace {

/// Queries replayed per traced run (analytics_large's are ~1 ms each).
constexpr size_t kReplayQueries = 512;
constexpr size_t kAnalyticsReplayQueries = 256;
/// In-process inserts, and deletes, timed per traced run and left staged
/// in the delta for the replay.
constexpr size_t kTraceWrites = 500;
/// Share of --seconds the traced run spends on the workload's own load.
constexpr double kLoadShare = 0.25;

/// Deterministic stream of fresh rows: copies of random base rows whose
/// `dim` is set past the table's maximum, so every fresh row is distinct
/// from every base row and from every other fresh row.
class FreshRows {
 public:
  FreshRows(const flood::Table& table, size_t dim, uint64_t seed);
  std::vector<Value> Next();

 private:
  std::vector<std::vector<Value>> templates_;
  size_t dim_;
  Value next_;
  flood::Rng rng_;
};

FreshRows::FreshRows(const flood::Table& table, size_t dim, uint64_t seed)
    : dim_(dim), rng_(seed) {
  constexpr size_t kTemplates = 4096;
  const size_t n = table.num_rows();
  for (size_t i = 0; i < std::min(kTemplates, n); ++i) {
    const flood::RowId r = static_cast<flood::RowId>(
        rng_.UniformInt(0, static_cast<int64_t>(n) - 1));
    std::vector<Value> row(table.num_dims());
    for (size_t d = 0; d < row.size(); ++d) row[d] = table.Get(r, d);
    templates_.push_back(std::move(row));
  }
  next_ = table.max_value(dim) + 1;
}

std::vector<Value> FreshRows::Next() {
  std::vector<Value> row = templates_[static_cast<size_t>(rng_.UniformInt(
      0, static_cast<int64_t>(templates_.size()) - 1))];
  row[dim_] = next_++;
  return row;
}

/// Layer boundaries a span can be recorded at.
enum Boundary : uint8_t {
  kExecute,
  kRun,
  kPool,
  kEngine,
  kRouter,
  kWire,
  kInsert,
  kDelete,
  kInsertWal,
  kInsertNoWal,
  kCompact,
  kLearn,
  kReopen,
};
constexpr const char* kBoundaryNames[] = {
    "query.execute",  // ExecuteAggregate(db.index(), q)
    "api.run",        // Database::TryRun
    "api.pool",       // Database::RunBatch of one query
    "serve.engine",   // DatabaseEngine::RunBatchAsync
    "serve.router",   // Router::RunBatchAsync
    "serve.wire",     // Client::RunBatch over the socket
    "api.insert",       "api.delete",     "persist.insert_wal",
    "persist.insert_nowal", "api.compact", "core.learn",
    "persist.reopen",
};
/// The next outer boundary of the same request (-1: outermost).
constexpr int kParent[] = {kRun, kPool, kEngine, kRouter, kWire, -1, -1,
                           -1,   -1,   -1,      -1,      -1,    -1};

struct Span {
  Boundary name;
  uint64_t id;
  int64_t start_ns;
  int64_t end_ns;
};

/// In-memory span log; Record is a push_back, written out once at exit.
class Tracer {
 public:
  explicit Tracer(bool on) : on_(on) {
    if (on_) spans_.reserve(1 << 16);
  }
  void Record(Boundary b, uint64_t id, int64_t start, int64_t end) {
    if (on_) spans_.push_back({b, id, start, end});
  }
  size_t size() const { return spans_.size(); }
  bool Write(const std::string& path, int64_t origin_ns) const {
    std::ofstream out(path);
    for (const Span& s : spans_) {
      const int parent = kParent[s.name];
      out << "{\"name\": \"" << kBoundaryNames[s.name] << "\", \"parent\": ";
      if (parent < 0) {
        out << "null";
      } else {
        out << '"' << kBoundaryNames[parent] << '"';
      }
      out << ", \"id\": " << s.id << ", \"start_ns\": " << s.start_ns - origin_ns
          << ", \"end_ns\": " << s.end_ns - origin_ns << "}\n";
    }
    return static_cast<bool>(out);
  }

 private:
  bool on_;
  std::vector<Span> spans_;
};

/// Times `fn()` as one span; returns its duration in ns.
template <typename Fn>
int64_t Timed(Tracer* tracer, Boundary b, uint64_t id, Fn&& fn) {
  const int64_t t0 = NowNs();
  fn();
  const int64_t t1 = NowNs();
  tracer->Record(b, id, t0, t1);
  return t1 - t0;
}

/// Runs one query through an engine and waits for the callback.
fs::EngineBatchResult RunSync(fs::BatchEngine* engine, const Query& q) {
  auto done = std::make_shared<std::promise<fs::EngineBatchResult>>();
  std::future<fs::EngineBatchResult> f = done->get_future();
  engine->RunBatchAsync({q}, [done](fs::EngineBatchResult r) {
    done->set_value(std::move(r));
  });
  return f.get();
}

/// The boundaries a query is replayed through.
struct Layers {
  std::vector<Database*> shards;  ///< One entry unless sharded.
  const flood::ShardMap* map = nullptr;
  std::vector<std::unique_ptr<fs::DatabaseEngine>> engines;
  fs::Router* router = nullptr;
  fs::Client* client = nullptr;
};

std::vector<size_t> TargetShards(const Layers& l, const Query& q) {
  if (q.IsEmpty()) return {};
  if (l.map == nullptr) return {0};
  const auto [first, last] = l.map->ShardsForQuery(q);
  std::vector<size_t> out;
  for (size_t s = first; s <= last; ++s) out.push_back(s);
  return out;
}

/// Per-query outcome of one replay.
struct Replay {
  std::vector<int64_t> ns[6];  ///< By boundary kExecute..kWire.
  Samples points_scanned, scan_overhead, cells_visited, blocks_skipped_frac,
      delta_rows;
  double prune_frac = 0;
  int64_t wall_ns = 0;
};

/// Replays `queries` one at a time; each query goes through every
/// boundary in turn, innermost first, after one untimed execution that
/// brings its data into cache — so the increments between boundaries are
/// layer costs, not cache effects (cold-cache cost is what the untraced
/// run measures). Checks every answer against `expected`.
Replay ReplayPool(const std::vector<Query>& queries,
                  const std::vector<Answer>& expected, Layers* l,
                  Tracer* tracer, Report* report) {
  Replay r;
  const size_t n = queries.size();
  for (auto& v : r.ns) v.assign(n, 0);
  auto check = [&](size_t i, bool ok, Answer got) {
    ++report->attempted;
    if (!ok) {
      ++report->failed;
    } else if (!(got == expected[i])) {
      ++report->wrong;
      ++report->failed;
    }
  };
  const fs::RouterCounters before = l->router->counters();
  const int64_t start = NowNs();
  for (size_t i = 0; i < n; ++i) {
    const Query& q = queries[i];
    const std::span<const Query> one_query(&q, 1);
    const std::vector<size_t> targets = TargetShards(*l, q);
    for (size_t s : targets) {
      (void)flood::ExecuteAggregate(l->shards[s]->index(), q);  // Warm-up.
    }

    flood::QueryStats st;
    for (size_t s : targets) {
      flood::QueryStats one;
      r.ns[kExecute][i] += Timed(tracer, kExecute, i, [&] {
        (void)flood::ExecuteAggregate(l->shards[s]->index(), q, &one);
      });
      st.Add(one);
    }
    const double scanned = static_cast<double>(st.points_scanned);
    r.points_scanned.Add(scanned);
    r.scan_overhead.Add(scanned / std::max<double>(1.0, st.points_matched));
    r.cells_visited.Add(static_cast<double>(st.cells_visited));
    // Every block the simd kernel visits is skipped, exact or filtered.
    const double blocks = static_cast<double>(
        st.blocks_skipped + st.blocks_exact + st.simd_blocks);
    r.blocks_skipped_frac.Add(blocks > 0 ? st.blocks_skipped / blocks : 0.0);

    Answer run_sum;
    bool run_ok = true;
    uint64_t delta_rows = 0;
    for (size_t s : targets) {
      flood::StatusOr<flood::QueryResult> res = flood::QueryResult();
      r.ns[kRun][i] +=
          Timed(tracer, kRun, i, [&] { res = l->shards[s]->TryRun(q); });
      run_ok = run_ok && res.ok();
      if (res.ok()) {
        run_sum.count += res->count;
        run_sum.sum += res->sum;
        delta_rows += res->stats.delta_rows_scanned;
      }
    }
    r.delta_rows.Add(static_cast<double>(delta_rows));
    check(i, run_ok, run_sum);

    for (size_t s : targets) {
      r.ns[kPool][i] += Timed(tracer, kPool, i, [&] {
        (void)l->shards[s]->RunBatch(one_query);
      });
    }
    for (size_t s : targets) {
      r.ns[kEngine][i] += Timed(tracer, kEngine, i, [&] {
        (void)RunSync(l->engines[s].get(), q);
      });
    }

    fs::EngineBatchResult routed;
    r.ns[kRouter][i] =
        Timed(tracer, kRouter, i, [&] { routed = RunSync(l->router, q); });
    const bool routed_ok = routed.status.ok() && routed.results.size() == 1 &&
                           routed.results[0].code == fs::WireCode::kOk;
    check(i, routed_ok,
          routed_ok ? Answer{routed.results[0].count, routed.results[0].sum}
                    : Answer{});

    flood::StatusOr<fs::BatchResultResponse> wire =
        flood::Status::Internal("not run");
    r.ns[kWire][i] =
        Timed(tracer, kWire, i, [&] { wire = l->client->RunBatch(one_query); });
    const bool wire_ok = wire.ok() && wire->code == fs::WireCode::kOk &&
                         wire->results.size() == 1;
    check(i, wire_ok,
          wire_ok ? Answer{wire->results[0].count, wire->results[0].sum}
                  : Answer{});
  }
  r.wall_ns = NowNs() - start;
  const fs::RouterCounters after = l->router->counters();
  const double sent =
      static_cast<double>(after.subqueries_sent - before.subqueries_sent);
  const double pruned =
      static_cast<double>(after.subqueries_pruned - before.subqueries_pruned);
  r.prune_frac = sent + pruned > 0 ? pruned / (sent + pruned) : 0.0;
  return r;
}

/// Self time of `outer` over `inner`, per query, in microseconds.
Samples SelfUs(const std::vector<int64_t>& outer,
               const std::vector<int64_t>& inner) {
  Samples s;
  for (size_t i = 0; i < outer.size(); ++i) {
    s.Add((outer[i] - inner[i]) / 1e3);
  }
  return s;
}

Samples Us(const std::vector<int64_t>& ns) {
  Samples s;
  for (int64_t v : ns) s.Add(v / 1e3);
  return s;
}

/// The workload's own load for a short stretch: returns the generator's
/// lag p99 (closed loop: the client's turnaround between batches).
double LoadPhase(WorkloadData* data, const RunOptions& opts, Stack* stack,
                 Report* report) {
  const double seconds = std::max(0.5, kLoadShare * opts.seconds);
  if (stack->server == nullptr) {
    return RunClosedLoop(stack->db.get(), data->pool, data->expected, seconds,
                         opts.seed * 101 + 9, report)
        .lag_us.Percentile(99);
  }
  LoadGen gen(stack->uds_path, std::min<size_t>(opts.host.nproc, 4),
              &data->pool, &data->expected);
  if (!gen.Connect()) Die("load generator could not connect");
  const PhaseResult r =
      gen.Run({kServeNominalRate, seconds, opts.seed * 101 + 9});
  report->attempted += r.reads_attempted;
  report->failed += r.failed;
  report->wrong += r.wrong;
  return r.lag_us.Percentile(99);
}

/// Adds `copies` of `row` (negative: removes them) to the answer of every
/// query in `queries` that `row` matches.
void AdjustExpected(const std::vector<Query>& queries,
                    const std::vector<Value>& row, int64_t copies,
                    std::vector<Answer>* expected) {
  for (size_t i = 0; i < queries.size(); ++i) {
    const Query& q = queries[i];
    bool match = true;
    for (size_t d = 0; d < row.size() && match; ++d) {
      match = q.range(d).Contains(row[d]);
    }
    if (!match) continue;
    Answer& a = (*expected)[i];
    // Wrapping arithmetic, as the engine's aggregation.
    a.count += static_cast<uint64_t>(copies);
    if (q.agg().kind == flood::AggSpec::Kind::kSum) {
      a.sum = static_cast<int64_t>(
          static_cast<uint64_t>(a.sum) +
          static_cast<uint64_t>(copies) *
              static_cast<uint64_t>(row[q.agg().dim]));
    }
  }
}

}  // namespace

bool RunTraced(WorkloadData* data, const RunOptions& opts, Report* report) {
  const int64_t origin = NowNs();
  Tracer tracer(true);
  std::unique_ptr<Stack> stack = TimedSetUps(*data, opts, report);
  FreshRows fresh(data->ds.table, data->ds.key_dims[0], opts.seed * 31 + 11);

  // core: the layout optimizer alone, on the table and the training
  // workload of the last set-up.
  flood::LayoutOptimizer::Options lo;
  lo.max_cells = flood::FloodIndex::Options().max_cells;
  const flood::CostModel cost_model = flood::CostModel::Default();
  const flood::LayoutOptimizer optimizer(&cost_model, lo);
  double learn_s = 0;
  {
    const int64_t ns = Timed(&tracer, kLearn, 0, [&] {
      (void)optimizer.Optimize(data->ds.table, data->train.back());
    });
    learn_s = ns / 1e9;
  }

  const double lag_p99 = LoadPhase(data, opts, stack.get(), report);

  // The boundaries: every workload gets all of them. Single-database
  // workloads replay the router boundary through a one-shard Router, and
  // analytics_large gets a server of its own for the wire boundary.
  Layers layers;
  std::unique_ptr<fs::Router> local_router;
  if (stack->sharded != nullptr) {
    for (size_t s = 0; s < stack->sharded->num_shards(); ++s) {
      layers.shards.push_back(stack->sharded->shard(s));
    }
    layers.map = &stack->sharded->shard_map();
    layers.router = stack->router.get();
  } else {
    layers.shards.push_back(stack->db.get());
    std::vector<std::unique_ptr<fs::BatchEngine>> backends;
    backends.push_back(std::make_unique<fs::DatabaseEngine>(stack->db.get()));
    local_router = std::make_unique<fs::Router>(flood::ShardMap(0),
                                                std::move(backends));
    layers.router = local_router.get();
  }
  for (Database* db : layers.shards) {
    layers.engines.push_back(std::make_unique<fs::DatabaseEngine>(db));
  }
  if (stack->server == nullptr) {
    stack->uds_path = opts.work_dir + "/" + data->name + "-trace.sock";
    fs::ServerOptions so;
    so.uds_path = stack->uds_path;
    flood::StatusOr<std::unique_ptr<fs::Server>> server =
        fs::Server::Create(stack->db.get(), so);
    if (!server.ok()) Die("Server::Create: " + server.status().ToString());
    stack->server = std::move(*server);
    stack->server->Start();
  }
  flood::StatusOr<fs::Client> client =
      fs::Client::Connect("unix:" + stack->uds_path);
  if (!client.ok()) Die("trace client: " + client.status().ToString());
  layers.client = &*client;

  const size_t replay_n = std::min(
      data->pool.size(),
      Scaled(data->name == "analytics_large" ? kAnalyticsReplayQueries
                                             : kReplayQueries,
             std::sqrt(opts.scale), 32));
  const std::vector<Query> queries(data->pool.begin(),
                                   data->pool.begin() + replay_n);
  std::vector<Answer> expected(data->expected.begin(),
                               data->expected.begin() + replay_n);

  // Writes, in process, each on the database that owns the row, left
  // staged so the replay's TryRun merges a delta of inserts and
  // tombstones; the expected answers follow every acknowledged write.
  auto owner = [&](const std::vector<Value>& row) {
    return layers.map == nullptr
               ? layers.shards[0]
               : layers.shards[layers.map->ShardForValue(
                     row[layers.map->sort_dim()])];
  };
  const size_t writes = Scaled(kTraceWrites, opts.scale, 50);
  Samples insert_us, delete_us;
  Database* fresh_owner = layers.shards[0];
  for (size_t i = 0; i < writes; ++i) {
    const std::vector<Value> row = fresh.Next();
    Database* db = owner(row);
    fresh_owner = db;
    flood::Status st = flood::Status::OK();
    insert_us.Add(Timed(&tracer, kInsert, i, [&] { st = db->Insert(row); }) /
                  1e3);
    ++report->attempted;
    if (st.ok()) {
      AdjustExpected(queries, row, 1, &expected);
    } else {
      ++report->failed;
    }
  }
  // Deletes of distinct base rows, in random order: tombstones.
  const flood::Table& base = data->ds.table;
  flood::Rng rng(opts.seed * 31 + 13);
  std::set<std::vector<Value>> seen;
  std::vector<std::vector<Value>> victims;
  while (victims.size() < std::min<size_t>(writes, base.num_rows())) {
    const flood::RowId r = static_cast<flood::RowId>(
        rng.UniformInt(0, static_cast<int64_t>(base.num_rows()) - 1));
    std::vector<Value> row(base.num_dims());
    for (size_t d = 0; d < row.size(); ++d) row[d] = base.Get(r, d);
    if (seen.insert(row).second) victims.push_back(std::move(row));
  }
  for (size_t i = 0; i < victims.size(); ++i) {
    Database* db = owner(victims[i]);
    flood::StatusOr<size_t> d = size_t{0};
    delete_us.Add(
        Timed(&tracer, kDelete, i, [&] { d = db->Delete(victims[i]); }) / 1e3);
    ++report->attempted;
    if (!d.ok() || *d == 0) {
      // A base row that is there must be found.
      ++report->failed;
      if (d.ok()) ++report->wrong;
      continue;
    }
    AdjustExpected(queries, victims[i], -static_cast<int64_t>(*d), &expected);
  }
  size_t staged = 0;
  for (Database* db : layers.shards) {
    staged += db->delta_inserts() + db->delta_tombstones();
  }

  Tracer off(false);
  (void)ReplayPool(queries, expected, &layers, &off, report);  // Warm-up.
  const Replay traced = ReplayPool(queries, expected, &layers, &tracer, report);
  const Replay untraced = ReplayPool(queries, expected, &layers, &off, report);
  const double overhead_pct =
      100.0 * (static_cast<double>(traced.wall_ns) - untraced.wall_ns) /
      static_cast<double>(untraced.wall_ns);

  // Explicit compactions of the database holding the inserts (the first
  // drains its delta).
  Database* wdb = fresh_owner;
  Samples compact_ms;
  const int compacts = data->name == "analytics_large" ? 1 : 3;
  for (int i = 0; i < compacts; ++i) {
    flood::Status st = flood::Status::OK();
    compact_ms.Add(Timed(&tracer, kCompact, static_cast<uint64_t>(i),
                         [&] { st = wdb->Compact(); }) /
                   1e6);
    if (!st.ok()) Die("Compact: " + st.ToString());
  }

  // persist: snapshot, reopen with and without a WAL, paired inserts.
  const std::string snap = opts.work_dir + "/" + data->name + ".snap";
  const std::string wal = opts.work_dir + "/" + data->name + "-trace.wal";
  ::unlink(wal.c_str());
  {
    const flood::Status st = wdb->Save(snap);
    if (!st.ok()) Die("Save: " + st.ToString());
  }
  flood::DatabaseOptions ro;
  ro.num_threads = opts.host.nproc;
  flood::StatusOr<Database> with_wal = flood::Status::Internal("not opened");
  flood::DatabaseOptions wo = ro;
  wo.wal_path = wal;
  wo.durability = flood::Durability::kAsync;
  const double reopen_s =
      Timed(&tracer, kReopen, 0,
            [&] { with_wal = Database::Open(snap, wo); }) /
      1e9;
  if (!with_wal.ok()) Die("reopen: " + with_wal.status().ToString());
  flood::StatusOr<Database> no_wal = Database::Open(snap, ro);
  if (!no_wal.ok()) Die("reopen: " + no_wal.status().ToString());
  Samples wal_self_us;
  for (size_t i = 0; i < writes; ++i) {
    const std::vector<Value> a = fresh.Next();
    const std::vector<Value> b = fresh.Next();
    int64_t with_ns = 0, without_ns = 0;
    bool ok = true;
    auto ins_wal = [&] {
      with_ns = Timed(&tracer, kInsertWal, i,
                      [&] { ok = with_wal->Insert(a).ok() && ok; });
    };
    auto ins_plain = [&] {
      without_ns = Timed(&tracer, kInsertNoWal, i,
                         [&] { ok = no_wal->Insert(b).ok() && ok; });
    };
    if (i % 2 == 0) {
      ins_wal();
      ins_plain();
    } else {
      ins_plain();
      ins_wal();
    }
    report->attempted += 2;
    if (!ok) ++report->failed;
    wal_self_us.Add((with_ns - without_ns) / 1e3);
  }
  with_wal = flood::Status::Internal("closed");
  no_wal = flood::Status::Internal("closed");
  ::unlink(snap.c_str());
  ::unlink(wal.c_str());
  // The server fronts the router on serve_point and a DatabaseEngine
  // elsewhere: the wire's self time is over whichever it fronts.
  const Samples wire_self = SelfUs(
      traced.ns[kWire],
      layers.map != nullptr ? traced.ns[kRouter] : traced.ns[kEngine]);
  client = flood::Status::Internal("closed");
  layers = Layers();
  local_router.reset();
  stack.reset();

  report->AddDist("query.execute_us", Us(traced.ns[kExecute]), "us");
  report->AddDist("query.points_scanned_per_query", traced.points_scanned,
                  "count");
  report->AddDist("query.scan_overhead", traced.scan_overhead, "ratio");
  report->AddDist("query.cells_visited_per_query", traced.cells_visited,
                  "count");
  report->AddDist("query.blocks_skipped_frac", traced.blocks_skipped_frac,
                  "ratio");
  report->AddDist("api.run_self_us",
                  SelfUs(traced.ns[kRun], traced.ns[kExecute]), "us");
  report->AddDist("api.delta_rows_per_query", traced.delta_rows, "count");
  report->AddDist("api.pool_self_us",
                  SelfUs(traced.ns[kPool], traced.ns[kRun]), "us");
  report->AddDist("serve.router_self_us",
                  SelfUs(traced.ns[kRouter], traced.ns[kEngine]), "us");
  report->Add("serve.router_prune_frac", traced.prune_frac, "ratio");
  report->AddDist("serve.wire_self_us", wire_self, "us");
  report->AddDist("api.insert_us", insert_us, "us");
  report->AddDist("api.delete_us", delete_us, "us");
  report->AddDist("persist.wal_self_us", wal_self_us, "us");
  report->AddDist("api.compact_ms", compact_ms, "ms");
  report->Add("core.learn_s", learn_s, "s");
  report->Add("persist.reopen_s", reopen_s, "s");
  report->Add("gen.lag_p99_us", lag_p99, "us");
  report->Add("trace.overhead_pct", overhead_pct, "%");
  report->Add("trace.spans", static_cast<double>(tracer.size()), "count");
  Report::Note(Fmt("trace: %.0f spans, replay %.0f queries per boundary, "
                   "traced %.3f s vs untraced %.3f s",
                   static_cast<double>(tracer.size()),
                   static_cast<double>(replay_n), traced.wall_ns / 1e9,
                   untraced.wall_ns / 1e9));
  Report::Note(Fmt("replayed over a delta of %.0f staged rows (%.0f inserts, "
                   "%.0f deletes)",
                   static_cast<double>(staged), static_cast<double>(writes),
                   static_cast<double>(victims.size())));
  if (!tracer.Write(opts.trace_path, origin)) {
    Die("could not write spans to " + opts.trace_path);
  }
  Report::Note("spans written to " + opts.trace_path);
  return report->wrong == 0;
}

}  // namespace perfbench
