// Shared helpers for the experiment benches. Each bench regenerates one
// table/figure from the DESIGN.md experiment index and prints the rows the
// paper reports. Sample counts can be scaled with FMTREE_BENCH_TRAJECTORIES.
#pragma once

#include <cstdint>
#include <cstdlib>
#include <iostream>
#include <limits>
#include <optional>
#include <string>

#include "smc/kpi.hpp"
#include "util/format.hpp"
#include "util/table.hpp"

namespace fmtree::bench {

// Positive decimal count from environment variable `name`; unset or empty
// means `dflt`. Anything else (a sign, a non-digit, zero, or a value above
// `max`) ends the bench with status 2 at the first read, so "-1" cannot wrap
// to the type's maximum.
inline std::uint64_t env_count(
    const char* name, std::uint64_t dflt,
    std::uint64_t max = std::numeric_limits<std::uint64_t>::max()) {
  const char* env = std::getenv(name);
  if (env == nullptr || *env == '\0') return dflt;
  const std::optional<std::uint64_t> v = parse_count(env, max);
  if (!v || *v == 0) {
    std::cerr << "error: " << name << "='" << env << "' must be an integer in [1, "
              << max << "]\n";
    std::exit(2);
  }
  return *v;
}

inline std::uint64_t trajectories(std::uint64_t dflt) {
  return env_count("FMTREE_BENCH_TRAJECTORIES", dflt);
}

inline smc::AnalysisSettings default_settings(double horizon, std::uint64_t dflt_n,
                                              std::uint64_t seed = 20160628) {
  smc::AnalysisSettings s;
  s.horizon = horizon;
  s.trajectories = trajectories(dflt_n);
  s.seed = seed;
  return s;
}

inline void header(const std::string& id, const std::string& title,
                   const std::string& claim) {
  std::cout << "================================================================\n"
            << id << ": " << title << "\n"
            << "Reproduces: " << claim << "\n"
            << "================================================================\n\n";
}

inline std::string ci_cell(const ConfidenceInterval& ci, int decimals) {
  return cell(ci.point, decimals) + " [" + cell(ci.lo, decimals) + ", " +
         cell(ci.hi, decimals) + "]";
}

}  // namespace fmtree::bench
