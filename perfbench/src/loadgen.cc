#include "loadgen.h"

#include <errno.h>
#include <fcntl.h>
#include <poll.h>
#include <sys/prctl.h>
#include <sys/socket.h>
#include <sys/un.h>
#include <unistd.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstring>

#include "common/rng.h"

namespace perfbench {

namespace fs = flood::serve;

struct LoadGen::Conn {
  int fd = -1;
  bool dead = false;
  std::string out;
  size_t out_off = 0;
  fs::FrameAssembler in;
};

struct LoadGen::Pending {
  int64_t intended_ns = 0;
  bool done = true;
  uint32_t query = 0;
};

LoadGen::LoadGen(std::string uds_path, size_t connections,
                 const std::vector<flood::Query>* pool,
                 const std::vector<Answer>* expected)
    : uds_path_(std::move(uds_path)),
      num_connections_(std::max<size_t>(1, connections)),
      pool_(pool),
      expected_(expected) {}

LoadGen::~LoadGen() {
  for (auto& c : conns_) {
    if (c->fd >= 0) ::close(c->fd);
  }
}

bool LoadGen::Connect() {
  for (size_t i = 0; i < num_connections_; ++i) {
    auto conn = std::make_unique<Conn>();
    conn->fd = ::socket(AF_UNIX, SOCK_STREAM | SOCK_CLOEXEC, 0);
    if (conn->fd < 0) return false;
    sockaddr_un addr{};
    addr.sun_family = AF_UNIX;
    if (uds_path_.size() >= sizeof(addr.sun_path)) return false;
    std::memcpy(addr.sun_path, uds_path_.c_str(), uds_path_.size() + 1);
    if (::connect(conn->fd, reinterpret_cast<sockaddr*>(&addr),
                  sizeof(addr)) != 0) {
      std::fprintf(stderr, "perfbench: connect %s: %s\n", uds_path_.c_str(),
                   std::strerror(errno));
      ::close(conn->fd);
      return false;
    }
    const int flags = ::fcntl(conn->fd, F_GETFL, 0);
    ::fcntl(conn->fd, F_SETFL, flags | O_NONBLOCK);
    conns_.push_back(std::move(conn));
  }
  return true;
}

bool LoadGen::Flush(Conn* conn) {
  while (!conn->dead && conn->out_off < conn->out.size()) {
    const ssize_t n =
        ::send(conn->fd, conn->out.data() + conn->out_off,
               conn->out.size() - conn->out_off, MSG_NOSIGNAL);
    if (n > 0) {
      conn->out_off += static_cast<size_t>(n);
    } else if (n < 0 && (errno == EAGAIN || errno == EWOULDBLOCK)) {
      return false;
    } else if (n < 0 && errno == EINTR) {
      continue;
    } else {
      conn->dead = true;
    }
  }
  if (conn->out_off == conn->out.size()) {
    conn->out.clear();
    conn->out_off = 0;
  }
  return true;
}

void LoadGen::SendDue(PhaseResult* result) {
  const int64_t now = NowNs();
  while (next_op_ < pending_.size() && pending_[next_op_].intended_ns <= now) {
    Send(next_op_, now, result);
    ++next_op_;
    if (max_backlog_ > 0 && outstanding_ > max_backlog_) {
      next_op_ = pending_.size();  // Clearly over capacity: stop offering.
    }
  }
}

void LoadGen::Send(size_t op, int64_t now_ns, PhaseResult* result) {
  Pending& p = pending_[op];
  Conn* conn = conns_[op % conns_.size()].get();
  const uint64_t id = phase_first_id_ + op;
  fs::RunBatchRequest req;
  req.request_id = id;
  req.queries.push_back((*pool_)[p.query]);
  fs::AppendRunBatch(req, &conn->out);
  ++result->reads_attempted;
  result->lag_us.Add((now_ns - p.intended_ns) / 1e3);
  p.done = false;
  ++outstanding_;
  if (conn->dead) return;  // Left outstanding: dropped at the drain limit.
  Flush(conn);
}

void LoadGen::HandleFrame(const fs::Frame& frame, int64_t now_ns,
                          PhaseResult* result) {
  uint64_t id = 0;
  fs::WireCode code = fs::WireCode::kOk;
  std::vector<fs::WireQueryResult> results;
  switch (frame.type) {
    case fs::MessageType::kBatchResult: {
      flood::StatusOr<fs::BatchResultResponse> batch =
          fs::ParseBatchResult(frame.payload);
      if (!batch.ok()) return;
      id = batch->request_id;
      code = batch->code;
      results = std::move(batch->results);
      break;
    }
    case fs::MessageType::kError: {
      flood::StatusOr<fs::ErrorResponse> err = fs::ParseError(frame.payload);
      if (!err.ok()) return;
      id = err->request_id;
      code = err->code;
      break;
    }
    default:
      return;
  }
  if (id < phase_first_id_ || id >= phase_first_id_ + pending_.size()) {
    return;  // A reply to an earlier phase's dropped request.
  }
  Pending& p = pending_[id - phase_first_id_];
  if (p.done) return;
  p.done = true;
  --outstanding_;
  const double us = (now_ns - p.intended_ns) / 1e3;
  if (code != fs::WireCode::kOk) {
    ++result->failed;
    return;
  }
  result->read_us.Add(us);
  ++result->reads_completed;
  const Answer& want = (*expected_)[p.query];
  if (results.size() != 1 || results[0].count != want.count ||
      results[0].sum != want.sum) {
    ++result->wrong;
    ++result->failed;
  }
}

void LoadGen::ReadAll(Conn* conn, PhaseResult* result) {
  // Small reads, with due sends in between: a burst of replies (after a
  // server stall) must not hold up the schedule.
  char buf[8 * 1024];
  while (!conn->dead) {
    const ssize_t n = ::recv(conn->fd, buf, sizeof(buf), 0);
    if (n > 0) {
      const int64_t now_ns = NowNs();
      conn->in.Feed(buf, static_cast<size_t>(n));
      fs::Frame frame;
      while (conn->in.Next(&frame) == fs::FrameAssembler::Result::kFrame) {
        HandleFrame(frame, now_ns, result);
      }
      if (conn->in.bad()) conn->dead = true;
      SendDue(result);
    } else if (n < 0 && (errno == EAGAIN || errno == EWOULDBLOCK)) {
      return;
    } else if (n < 0 && errno == EINTR) {
      continue;
    } else {
      conn->dead = true;
    }
  }
}

PhaseResult LoadGen::Run(const PhaseConfig& config) {
  // Wake-ups as close to the schedule as the kernel allows.
  ::prctl(PR_SET_TIMERSLACK, 1UL, 0, 0, 0);
  PhaseResult result;

  // The Poisson schedule, from the seed alone.
  flood::Rng rng(config.seed);
  pending_.clear();
  double t = 0;
  for (;;) {
    t += -std::log(1.0 - rng.NextDouble()) / config.rate;
    if (t >= config.seconds) break;
    Pending p;
    p.intended_ns = static_cast<int64_t>(t * 1e9);  // Offset until start.
    p.query = static_cast<uint32_t>(
        rng.UniformInt(0, static_cast<int64_t>(pool_->size()) - 1));
    pending_.push_back(std::move(p));
  }
  // The clock starts once the schedule is built, 1 ms ahead.
  const int64_t start = NowNs() + 1'000'000;
  for (Pending& p : pending_) p.intended_ns += start;
  const size_t num_ops = pending_.size();
  phase_first_id_ = next_request_id_;
  next_request_id_ += num_ops;
  outstanding_ = 0;

  std::vector<pollfd> fds(conns_.size());
  next_op_ = 0;
  max_backlog_ = config.max_backlog;
  bool schedule_over = false;
  int64_t schedule_end = 0;
  const int64_t drain_ns = static_cast<int64_t>(config.drain_timeout_s * 1e9);
  for (;;) {
    SendDue(&result);
    const size_t next = next_op_;
    int64_t now = NowNs();
    if (next == num_ops) {
      if (!schedule_over) {
        schedule_over = true;
        schedule_end = now;
        result.backlog_at_end = outstanding_;
      }
      if (outstanding_ == 0) break;
      if (now - schedule_end > drain_ns) break;
    }
    int64_t wait_ns = next < num_ops
                          ? pending_[next].intended_ns - now
                          : std::min<int64_t>(10'000'000,
                                              schedule_end + drain_ns - now);
    wait_ns = std::max<int64_t>(0, wait_ns);
    for (size_t c = 0; c < conns_.size(); ++c) {
      fds[c].fd = conns_[c]->dead ? -1 : conns_[c]->fd;
      fds[c].events = POLLIN;
      if (conns_[c]->out_off < conns_[c]->out.size()) fds[c].events |= POLLOUT;
      fds[c].revents = 0;
    }
    const timespec ts{static_cast<time_t>(wait_ns / 1'000'000'000),
                      static_cast<long>(wait_ns % 1'000'000'000)};
    const int ready = ::ppoll(fds.data(), fds.size(), &ts, nullptr);
    if (ready <= 0) continue;
    for (size_t c = 0; c < conns_.size(); ++c) {
      if (fds[c].revents & (POLLIN | POLLHUP | POLLERR)) {
        ReadAll(conns_[c].get(), &result);
      }
      if (fds[c].revents & POLLOUT) Flush(conns_[c].get());
    }
  }
  // Whatever is still unanswered is dropped: a failure.
  for (Pending& p : pending_) {
    if (p.done) continue;
    p.done = true;
    ++result.failed;
  }
  outstanding_ = 0;
  return result;
}

namespace {

/// Arrivals of this long count as no backlog, whatever the latency limit.
constexpr double kBacklogWindowS = 0.05;

}  // namespace

LadderResult RunLadder(LoadGen* gen, double min_rate, double step,
                       int rungs, double probe_seconds, double tail_limit_us,
                       double max_lag_us, uint64_t seed, Report* report) {
  LadderResult out;
  int lo = -1;     // Highest rung known to qualify.
  int hi = rungs;  // Lowest rung known not to.
  const double limit_s = tail_limit_us / 1e6;
  while (hi - lo > 1) {
    const int mid = (lo + hi) / 2;
    const double rate = min_rate * std::pow(step, mid);
    // A rung that misses is probed up to twice more: a stall of the host
    // must not decide the search. It qualifies if any probe meets.
    bool ok = false;
    for (int attempt = 0; attempt < 3 && !ok; ++attempt) {
      PhaseConfig cfg;
      cfg.rate = rate;
      cfg.seconds = probe_seconds;
      cfg.seed = seed * 1000 + static_cast<uint64_t>(mid) * 2 + attempt;
      // Drain long enough that even an over-capacity probe is answered
      // (nothing is dropped), but stop offering once the backlog is far
      // past what the limit allows.
      cfg.drain_timeout_s = 20.0;
      // A host stall of tens of milliseconds right at the end of the
      // schedule must not read as a growing backlog.
      const double allowed_backlog =
          std::max(64.0, rate * std::max(limit_s, kBacklogWindowS));
      cfg.max_backlog = static_cast<uint64_t>(4 * allowed_backlog);
      const PhaseResult r = gen->Run(cfg);
      report->attempted += r.reads_attempted;
      report->failed += r.failed;
      report->wrong += r.wrong;
      const double tail = r.read_us.empty()
                              ? 1e300
                              : r.read_us.Percentile(kTailPercentile);
      const double lag =
          r.lag_us.empty() ? 0 : r.lag_us.Percentile(kTailPercentile);
      // A backlog that grows through the probe ends far past what one
      // latency limit allows; a short stall just before the end does not.
      ok = r.failed == 0 && tail <= tail_limit_us && lag <= max_lag_us &&
           static_cast<double>(r.backlog_at_end) <= 2 * allowed_backlog &&
           r.reads_completed == r.reads_attempted;
      char buf[256];
      std::snprintf(buf, sizeof(buf),
                    "ladder rung %3d rate %8.0f/s: p90 %10.1f us, lag p90 "
                    "%8.1f us, backlog %6llu, failed %llu -> %s",
                    mid, rate, tail > 1e299 ? -1.0 : tail, lag,
                    static_cast<unsigned long long>(r.backlog_at_end),
                    static_cast<unsigned long long>(r.failed),
                    ok ? "meets" : "misses");
      out.log.push_back(buf);
    }
    if (ok) {
      lo = mid;
    } else {
      hi = mid;
    }
  }
  out.sustained_qps = lo >= 0 ? min_rate * std::pow(step, lo) : 0.0;
  return out;
}

}  // namespace perfbench
