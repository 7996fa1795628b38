#include "common.h"

#include <unistd.h>

#if defined(__x86_64__) || defined(__i386__)
#include <cpuid.h>
#endif

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>

#include "common/macros.h"
#include "query/scan_util.h"
#include "query/simd.h"

namespace perfbench {

double Samples::Percentile(double p) const {
  FLOOD_CHECK(!values_.empty());
  std::vector<double> v = values_;
  std::sort(v.begin(), v.end());
  const double n = static_cast<double>(v.size());
  size_t rank = static_cast<size_t>(std::ceil(p / 100.0 * n));
  rank = std::clamp<size_t>(rank, 1, v.size());
  return v[rank - 1];
}

void Report::Add(const std::string& name, double value,
                 const std::string& unit) {
  if (!std::isfinite(value)) value = 0.0;
  metrics_.push_back({name, value, unit});
  char buf[256];
  std::snprintf(buf, sizeof(buf), "metric %-34s %14.4f %s", name.c_str(),
                value, unit.c_str());
  Note(buf);
}

void Report::AddDist(const std::string& name, const Samples& samples,
                     const std::string& unit) {
  const bool any = !samples.empty();
  Add(name + ".p50", any ? samples.Percentile(50) : 0.0, unit);
  Add(name + ".p99", any ? samples.Percentile(99) : 0.0, unit);
  Add(name + ".n", static_cast<double>(samples.size()), "count");
}

void Report::Note(const std::string& line) {
  std::printf("# %s\n", line.c_str());
  std::fflush(stdout);
}

std::string Report::ResultLine(bool correct) const {
  std::string out = "@result {\"correct\": ";
  out += correct ? "true" : "false";
  out += ", \"attempted\": " + std::to_string(attempted);
  out += ", \"failed\": " + std::to_string(failed);
  out += ", \"metrics\": {";
  for (size_t i = 0; i < metrics_.size(); ++i) {
    char buf[64];
    std::snprintf(buf, sizeof(buf), "%.17g", metrics_[i].value);
    if (i > 0) out += ", ";
    out += "\"" + metrics_[i].name + "\": {\"value\": " + buf +
           ", \"unit\": \"" + metrics_[i].unit + "\"}";
  }
  out += "}}";
  return out;
}

double CurrentRssMb() {
  // The process's own resident set: second field of /proc/self/statm.
  std::ifstream statm("/proc/self/statm");
  long pages_total = 0;
  long pages_resident = 0;
  if (!(statm >> pages_total >> pages_resident)) return 0.0;
  return static_cast<double>(pages_resident) *
         static_cast<double>(::sysconf(_SC_PAGESIZE)) / (1024.0 * 1024.0);
}

RssSampler::RssSampler() {
  max_mb_.store(CurrentRssMb());
  thread_ = std::thread([this] {
    while (!stop_.load(std::memory_order_relaxed)) {
      const double mb = CurrentRssMb();
      if (mb > max_mb_.load(std::memory_order_relaxed)) {
        max_mb_.store(mb, std::memory_order_relaxed);
      }
      std::this_thread::sleep_for(std::chrono::milliseconds(20));
    }
  });
}

RssSampler::~RssSampler() {
  stop_.store(true);
  thread_.join();
}

double RssSampler::max_mb() const {
  return std::max(max_mb_.load(), CurrentRssMb());
}

namespace {

#if defined(__x86_64__) || defined(__i386__)
std::string CpuBrand() {
  unsigned regs[12] = {};
  unsigned max_ext = __get_cpuid_max(0x80000000u, nullptr);
  if (max_ext < 0x80000004u) return "unknown";
  for (unsigned i = 0; i < 3; ++i) {
    __get_cpuid(0x80000002u + i, &regs[4 * i], &regs[4 * i + 1],
                &regs[4 * i + 2], &regs[4 * i + 3]);
  }
  char brand[49] = {};
  std::memcpy(brand, regs, 48);
  std::string s(brand);
  const size_t b = s.find_first_not_of(' ');
  const size_t e = s.find_last_not_of(' ');
  return b == std::string::npos ? "unknown" : s.substr(b, e - b + 1);
}

/// Largest cache reported by the deterministic cache-parameters leaf
/// (Intel leaf 4, AMD leaf 0x8000001D), in MB.
double LastLevelCacheMb() {
  unsigned leaf = 4;
  unsigned eax = 0, ebx = 0, ecx = 0, edx = 0;
  __get_cpuid(0, &eax, &ebx, &ecx, &edx);
  const bool amd = ebx == 0x68747541u;  // "Auth"enticAMD
  if (amd) leaf = 0x8000001Du;
  double best = 0.0;
  for (unsigned sub = 0; sub < 16; ++sub) {
    __cpuid_count(leaf, sub, eax, ebx, ecx, edx);
    if ((eax & 0x1fu) == 0) break;
    const double ways = ((ebx >> 22) & 0x3ffu) + 1.0;
    const double parts = ((ebx >> 12) & 0x3ffu) + 1.0;
    const double line = (ebx & 0xfffu) + 1.0;
    const double sets = ecx + 1.0;
    best = std::max(best, ways * parts * line * sets / (1024.0 * 1024.0));
  }
  return best;
}
#else
std::string CpuBrand() { return "unknown"; }
double LastLevelCacheMb() { return 0.0; }
#endif

const char* EnvOr(const char* name, const char* fallback) {
  const char* v = std::getenv(name);
  return v != nullptr ? v : fallback;
}

}  // namespace

HostContext DetectHost() {
  HostContext h;
  const long n = ::sysconf(_SC_NPROCESSORS_ONLN);
  h.nproc = n > 0 ? static_cast<size_t>(n) : 1;
  h.cpu_model = CpuBrand();
  h.llc_mb = LastLevelCacheMb();
  return h;
}

void PrintContext(const HostContext& host) {
  const flood::ScanKernel kernel = flood::ActiveScanKernel();
  const char* kernel_name = kernel == flood::ScanKernel::kSimd    ? "simd"
                            : kernel == flood::ScanKernel::kBlock ? "block"
                                                                  : "naive";
#ifdef FLOOD_METRICS_DISABLED
  const char* metrics = "off";
#else
  const char* metrics = "on";
#endif
  char buf[512];
  std::snprintf(buf, sizeof(buf),
                "context host nproc=%zu cpu=\"%s\" llc_mb=%.1f",
                host.nproc, host.cpu_model.c_str(), host.llc_mb);
  Report::Note(buf);
  std::snprintf(
      buf, sizeof(buf),
      "context build type=%s flood_metrics=%s simd_detected=%s "
      "simd_active=%s scan_kernel=%s FLOOD_SIMD_LEVEL=%s "
      "FLOOD_SCAN_KERNEL=%s",
      PERFBENCH_BUILD_TYPE, metrics,
      flood::simd::SimdLevelName(flood::simd::DetectedSimdLevel()),
      flood::simd::SimdLevelName(flood::simd::ActiveSimdLevel()), kernel_name,
      EnvOr("FLOOD_SIMD_LEVEL", "unset"), EnvOr("FLOOD_SCAN_KERNEL", "unset"));
  Report::Note(buf);
}

double Median(std::vector<double> v) {
  FLOOD_CHECK(!v.empty());
  std::sort(v.begin(), v.end());
  return v[(v.size() + 1) / 2 - 1];
}

size_t Scaled(size_t n, double scale, size_t min) {
  return std::max(min, static_cast<size_t>(std::llround(n * scale)));
}

std::string Fmt(const char* fmt, double a, double b, double c, double d) {
  char buf[512];
  std::snprintf(buf, sizeof(buf), fmt, a, b, c, d);
  return buf;
}

void Die(const std::string& what) {
  std::fprintf(stderr, "perfbench: %s\n", what.c_str());
  std::exit(2);
}

}  // namespace perfbench
