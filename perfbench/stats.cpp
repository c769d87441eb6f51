#include <algorithm>
#include <cmath>
#include <fstream>
#include <functional>
#include <numeric>
#include <queue>
#include <random>
#include <unordered_map>

#include "common.hpp"
#include "util/error.hpp"
#include "util/rng.hpp"

namespace perfbench {

double quantile(std::vector<double> v, double q) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const double pos = q * double(v.size() - 1);
  const auto lo = std::size_t(std::floor(pos));
  const std::size_t hi = std::min(lo + 1, v.size() - 1);
  return v[lo] + (v[hi] - v[lo]) * (pos - double(lo));
}

double mean(const std::vector<double>& v) {
  if (v.empty()) return 0.0;
  return std::accumulate(v.begin(), v.end(), 0.0) / double(v.size());
}

std::uint64_t request_seed(std::uint64_t workload_seed, std::uint64_t index) {
  return scpg::Rng::stream(workload_seed, index).next();
}

double calibrate_host_ms() {
  std::vector<double> times;
  volatile std::uint64_t sink = 0;
  for (int rep = 0; rep < 5; ++rep) {
    const auto t0 = Clock::now();
    std::uint64_t x = 0x9e3779b97f4a7c15ULL + std::uint64_t(rep);
    for (int i = 0; i < 20'000'000; ++i) {
      x ^= x << 13;
      x ^= x >> 7;
      x ^= x << 17;
    }
    sink = x;
    times.push_back(ms_between(t0, Clock::now()));
  }
  (void)sink;
  return quantile(times, 0.5);
}

double reference_ms() {
  const auto t0 = Clock::now();
  std::mt19937_64 rng(7);
  std::priority_queue<std::uint64_t, std::vector<std::uint64_t>,
                      std::greater<>>
      heap;
  std::unordered_map<std::uint32_t, std::uint32_t> map;
  std::uint64_t acc = 0;
  for (int i = 0; i < 100'000; ++i) {
    const std::uint64_t v = rng();
    heap.push(v);
    if (heap.size() > 4096) {
      acc += heap.top();
      heap.pop();
    }
    auto& e = map[std::uint32_t(v % 50'000)];
    if (v & 1) e += std::uint32_t(v);
    else acc ^= e;
  }
  volatile std::uint64_t sink = acc;
  (void)sink;
  return ms_between(t0, Clock::now());
}

void SetupClock::start() {
  ref0_ms_ = reference_ms();
  t0_ = Clock::now();
}

void SetupClock::stop() {
  const double s = std::chrono::duration<double>(Clock::now() - t0_).count();
  const double ref1_ms = reference_ms();
  raw_s.push_back(s);
  norm_s.push_back(s * kReferenceMs / ((ref0_ms_ + ref1_ms) / 2));
}

double peak_rss_mb() {
  // VmHWM, not getrusage's ru_maxrss: the latter survives execve, so it
  // would report the launching process's peak when that one is larger.
  std::ifstream in("/proc/self/status");
  std::string line;
  while (std::getline(in, line))
    if (line.rfind("VmHWM:", 0) == 0)
      return std::stod(line.substr(6)) / 1024.0; // kB -> MiB
  throw scpg::Error("no VmHWM line in /proc/self/status");
}

} // namespace perfbench
