#ifndef PERFBENCH_LOADGEN_H_
#define PERFBENCH_LOADGEN_H_

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "common.h"
#include "query/query.h"
#include "serve/protocol.h"
#include "workloads.h"

namespace perfbench {

/// One open-loop phase: Poisson arrivals at `rate` queries per second for
/// `seconds`.
struct PhaseConfig {
  double rate = 1000.0;
  double seconds = 1.0;
  uint64_t seed = 1;
  /// Outstanding requests still unanswered this long after the schedule
  /// ends are dropped and counted as failed.
  double drain_timeout_s = 10.0;
  /// Stop offering load once this many requests are unanswered (0 = never):
  /// the phase has already failed and a longer backlog only delays the next.
  uint64_t max_backlog = 0;
};

/// What one phase measured. Latencies are from each request's intended
/// send time (so a stall also delays, and is charged to, the requests
/// scheduled behind it), in microseconds.
struct PhaseResult {
  Samples read_us;
  Samples lag_us;  ///< Actual minus intended send time, per request.
  uint64_t reads_attempted = 0;
  uint64_t reads_completed = 0;  ///< Answered with kOk.
  uint64_t failed = 0;  ///< Error replies, transport errors, late drops.
  uint64_t wrong = 0;   ///< Mismatched answers (subset of failed).
  uint64_t backlog_at_end = 0;  ///< Unanswered when the schedule ended.
};

/// Open-loop load generator over Unix-domain socket connections to one
/// serve::Server. A single thread sends every connection's frames at their
/// scheduled times and reads the replies in between (non-blocking sockets,
/// ppoll), so a slow reply never delays the next send: the schedule, not
/// the server, sets the offered load. One query per RunBatch frame.
///
/// Queries draw from `pool` and every reply is checked against `expected`.
class LoadGen {
 public:
  LoadGen(std::string uds_path, size_t connections,
          const std::vector<flood::Query>* pool,
          const std::vector<Answer>* expected);
  ~LoadGen();
  LoadGen(const LoadGen&) = delete;
  LoadGen& operator=(const LoadGen&) = delete;

  /// Opens the connections; false (with a note printed) on failure.
  bool Connect();

  PhaseResult Run(const PhaseConfig& config);

 private:
  struct Conn;
  struct Pending;

  /// Sends every scheduled request whose time has come.
  void SendDue(PhaseResult* result);
  void Send(size_t op, int64_t now_ns, PhaseResult* result);
  void HandleFrame(const flood::serve::Frame& frame, int64_t now_ns,
                   PhaseResult* result);
  bool Flush(Conn* conn);
  void ReadAll(Conn* conn, PhaseResult* result);

  std::string uds_path_;
  size_t num_connections_;
  const std::vector<flood::Query>* pool_;
  const std::vector<Answer>* expected_;

  std::vector<std::unique_ptr<Conn>> conns_;
  uint64_t next_request_id_ = 1;
  std::vector<Pending> pending_;  ///< By request id - first id of the phase.
  uint64_t phase_first_id_ = 0;
  uint64_t outstanding_ = 0;
  size_t next_op_ = 0;  ///< First request of the phase not yet sent.
  uint64_t max_backlog_ = 0;
};

/// Result of the rate ladder: the highest qualifying rung.
struct LadderResult {
  double sustained_qps = 0;
  std::vector<std::string> log;  ///< One line per probe.
};

/// Searches a fixed geometric ladder of offered read rates (`min_rate` *
/// `step`^k, k < `rungs`) by bisection for the highest rate that
/// qualifies: no failures, read p90 within `tail_limit_us`, the generator
/// on time (lag p90 within `max_lag_us`), and no growing backlog (what is
/// unanswered when the schedule ends is at most twice the arrivals of one
/// latency limit or 50 ms, whichever is longer, or 64).
/// Each probe is one open-loop phase of `probe_seconds`; a rung that
/// misses is probed up to twice more and qualifies if any probe meets.
LadderResult RunLadder(LoadGen* gen, double min_rate, double step,
                       int rungs, double probe_seconds, double tail_limit_us,
                       double max_lag_us, uint64_t seed, Report* report);

}  // namespace perfbench

#endif  // PERFBENCH_LOADGEN_H_
