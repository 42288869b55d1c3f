#include "common.hpp"

#include <fcntl.h>
#include <malloc.h>
#include <sys/resource.h>
#include <unistd.h>

#include <algorithm>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <stdexcept>

namespace perfbench {

Sizes full_sizes() {
  return Sizes{
      .analyze_runs = 200000,
      .fleet_joints = 1000,
      .fleet_runs = 500,
      .serve_sweep_runs = 500,
      .serve_adaptive_cap = 8192,
      .layer_scaling_runs = 100000,
      .layer_kernel_runs = 20000,
      .layer_reps = 200,
      .layer_draws = 4000000,
  };
}

Sizes tiny_sizes() {
  return Sizes{
      .analyze_runs = 4000,
      .fleet_joints = 40,
      .fleet_runs = 100,
      .serve_sweep_runs = 200,
      .serve_adaptive_cap = 4096,
      .layer_scaling_runs = 4000,
      .layer_kernel_runs = 1000,
      .layer_reps = 5,
      .layer_draws = 10000,
  };
}

double wall_now() {
  return std::chrono::duration<double>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

double cpu_now() {
  rusage u{};
  getrusage(RUSAGE_SELF, &u);
  const auto sec = [](const timeval& t) {
    return static_cast<double>(t.tv_sec) + 1e-6 * static_cast<double>(t.tv_usec);
  };
  return sec(u.ru_utime) + sec(u.ru_stime);
}

double peak_rss_mb() {
  rusage u{};
  getrusage(RUSAGE_SELF, &u);
  return static_cast<double>(u.ru_maxrss) / 1024.0;  // ru_maxrss is in KiB
}

double heap_bytes() {
  const struct mallinfo2 m = mallinfo2();
  return static_cast<double>(m.uordblks + m.hblkhd);
}

double quantile(std::vector<double> v, double q) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const double pos = q * static_cast<double>(v.size() - 1);
  const auto lo = static_cast<std::size_t>(pos);
  const std::size_t hi = std::min(lo + 1, v.size() - 1);
  const double frac = pos - static_cast<double>(lo);
  return v[lo] + frac * (v[hi] - v[lo]);
}

std::string read_file(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  if (!in) throw std::runtime_error("cannot read '" + path + "'");
  std::ostringstream ss;
  ss << in.rdbuf();
  return ss.str();
}

void remove_tree(const std::string& path) {
  std::error_code ec;
  std::filesystem::remove_all(path, ec);
}

void sync_fs(const std::string& dir) {
  const int fd = ::open(dir.c_str(), O_RDONLY | O_DIRECTORY);
  if (fd < 0) return;
  ::syncfs(fd);
  ::close(fd);
}

std::string digest(const std::string& text) {
  std::uint64_t h = 0xcbf29ce484222325ULL;
  for (const unsigned char c : text) {
    h ^= c;
    h *= 0x100000001b3ULL;
  }
  char buf[17];
  std::snprintf(buf, sizeof buf, "%016llx", static_cast<unsigned long long>(h));
  return buf;
}

void Phase::add(const OpResult& r) {
  latencies_s.push_back(r.latency_s);
  ++attempted;
  if (!r.ok) ++failed;
  wall_s += r.latency_s;
  cpu_s += r.cpu_s;
  trajectories += r.trajectories;
}

double Phase::ops_per_s() const {
  return wall_s > 0.0 ? static_cast<double>(attempted - failed) / wall_s : 0.0;
}

}  // namespace perfbench
