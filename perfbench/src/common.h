#ifndef PERFBENCH_COMMON_H_
#define PERFBENCH_COMMON_H_

#include <atomic>
#include <chrono>
#include <cstdint>
#include <string>
#include <thread>
#include <vector>

namespace perfbench {

/// Monotonic nanoseconds (steady_clock), the one clock every timing in the
/// benchmark uses.
inline int64_t NowNs() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

/// Raw samples with exact nearest-rank percentiles: the p-th percentile is
/// the ceil(p/100 * n)-th smallest sample. No bucketing, so the readout is
/// a value that was actually measured. Samples keep their arrival order.
class Samples {
 public:
  void Add(double v) { values_.push_back(v); }
  void Append(const Samples& other) {
    values_.insert(values_.end(), other.values_.begin(), other.values_.end());
  }
  size_t size() const { return values_.size(); }
  bool empty() const { return values_.empty(); }
  /// p in (0, 100]. Requires !empty().
  double Percentile(double p) const;

 private:
  std::vector<double> values_;
};

/// Everything a run reports: metrics by name with unit, the
/// attempted/failed/wrong counters, and human-readable lines.
class Report {
 public:
  void Add(const std::string& name, double value, const std::string& unit);
  /// Adds `<name>.p50`, `<name>.p99` (in `unit`) and `<name>.n` (count).
  void AddDist(const std::string& name, const Samples& samples,
               const std::string& unit);
  /// Prints one human-readable line ("# " prefixed) to stdout.
  static void Note(const std::string& line);

  /// The machine-readable line run.py turns into the result object.
  std::string ResultLine(bool correct) const;

  uint64_t attempted = 0;  ///< Operations issued (reads + writes).
  uint64_t failed = 0;     ///< Failed, refused, late-dropped or wrong.
  uint64_t wrong = 0;      ///< Subset of failed: answers that mismatched.
  /// False when the measurement cannot be trusted (the open-loop
  /// generator fell behind its schedule); no result is printed then.
  bool valid = true;
  std::string invalid_reason;

 private:
  struct Metric {
    std::string name;
    double value;
    std::string unit;
  };
  std::vector<Metric> metrics_;
};

/// Resident set size of this process right now, in MB.
double CurrentRssMb();

/// Samples CurrentRssMb() every few milliseconds on a background thread
/// while alive; max_mb() is the peak seen.
class RssSampler {
 public:
  RssSampler();
  ~RssSampler();
  RssSampler(const RssSampler&) = delete;
  RssSampler& operator=(const RssSampler&) = delete;
  double max_mb() const;

 private:
  std::atomic<bool> stop_{false};
  std::atomic<double> max_mb_{0.0};
  std::thread thread_;
};

/// Host and build context printed at the top of every run: nproc, CPU
/// model and last-level cache from cpuid, build type, FLOOD_METRICS state,
/// SIMD tier and scan kernel.
struct HostContext {
  size_t nproc = 1;
  std::string cpu_model;
  double llc_mb = 0.0;
};
HostContext DetectHost();
void PrintContext(const HostContext& host);

/// The tail percentile of the end-to-end latencies and of the rate
/// ladder's limit. On a shared 4-vCPU KVM guest the highest percentiles of
/// microsecond requests are set by vCPU steal (every thread stalls for
/// milliseconds, ~1% of the time), so the end-to-end tail is p90; p95 and
/// p99 are printed beside it.
inline constexpr double kTailPercentile = 90.0;

/// Median of a small vector (by nearest rank on the sorted copy).
double Median(std::vector<double> v);

/// max(min, round(n * scale)): row counts and pool sizes under --scale.
size_t Scaled(size_t n, double scale, size_t min);

/// printf-style formatting of up to four numbers.
std::string Fmt(const char* fmt, double a, double b = 0, double c = 0,
                double d = 0);

/// Prints `what` to stderr and exits with status 2 (no result line).
[[noreturn]] void Die(const std::string& what);

}  // namespace perfbench

#endif  // PERFBENCH_COMMON_H_
