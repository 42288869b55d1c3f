#include "util/fault_injection.hpp"

#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <thread>

#include "util/format.hpp"

namespace fmtree::fault {

namespace {

/// splitmix64: the standard 64-bit finalizer — full avalanche, so
/// consecutive hit indices decorrelate into independent coin flips.
std::uint64_t mix64(std::uint64_t x) noexcept {
  x += 0x9e3779b97f4a7c15ull;
  x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ull;
  x = (x ^ (x >> 27)) * 0x94d049bb133111ebull;
  return x ^ (x >> 31);
}

std::uint64_t fnv1a(std::string_view s) noexcept {
  std::uint64_t h = 0xcbf29ce484222325ull;
  for (const char c : s) {
    h ^= static_cast<unsigned char>(c);
    h *= 0x100000001b3ull;
  }
  return h;
}

/// Deterministic coin for the probability trigger: hit i of a site fires
/// iff u01 < p, where u01 is a pure function of (seed, site, i).
bool coin(std::uint64_t seed, std::string_view site, std::uint64_t hit,
          double p) noexcept {
  const std::uint64_t v = mix64(seed ^ mix64(fnv1a(site)) ^ mix64(hit));
  const double u01 =
      static_cast<double>(v >> 11) * 0x1.0p-53;  // 53 uniform bits in [0,1)
  return u01 < p;
}

double parse_number(std::string_view text, std::string_view what) {
  const std::string copy(text);
  char* end = nullptr;
  const double v = std::strtod(copy.c_str(), &end);
  if (end == copy.c_str() || *end != '\0')
    throw DomainError("fault spec: bad " + std::string(what) + " '" + copy + "'");
  return v;
}

std::uint64_t parse_count(std::string_view text, std::string_view what) {
  const std::optional<std::uint64_t> v = fmtree::parse_count(text);
  if (!v)
    throw DomainError("fault spec: " + std::string(what) +
                      " must be a nonnegative integer");
  return *v;
}

}  // namespace

FaultSpec parse_fault_spec(std::string_view text) {
  const std::size_t colon = text.find(':');
  if (colon == std::string_view::npos || colon == 0)
    throw DomainError("fault spec '" + std::string(text) +
                      "' must look like site:mode[,trigger][,limit=n]");
  FaultSpec spec;
  spec.site = std::string(text.substr(0, colon));

  bool have_mode = false;
  std::string_view rest = text.substr(colon + 1);
  while (!rest.empty()) {
    const std::size_t comma = rest.find(',');
    const std::string_view token = rest.substr(0, comma);
    rest = comma == std::string_view::npos ? std::string_view{}
                                           : rest.substr(comma + 1);
    if (token.empty())
      throw DomainError("fault spec '" + std::string(text) + "': empty token");
    const std::size_t eq = token.find('=');
    const std::string_view key = token.substr(0, eq);
    const std::string_view value =
        eq == std::string_view::npos ? std::string_view{} : token.substr(eq + 1);
    if (key == "error" || key == "corrupt") {
      spec.mode = key == "error" ? Mode::Error : Mode::Corrupt;
      have_mode = true;
    } else if (key == "stall") {
      spec.mode = Mode::Stall;
      spec.stall_ms = parse_count(value, "stall duration");
      have_mode = true;
    } else if (key == "always") {
      spec.probability = -1.0;
      spec.nth = 0;
    } else if (key == "p") {
      spec.probability = parse_number(value, "probability");
      if (!(spec.probability > 0 && spec.probability <= 1))
        throw DomainError("fault spec: probability must lie in (0,1]");
    } else if (key == "seed") {
      spec.seed = parse_count(value, "seed");
    } else if (key == "nth") {
      spec.nth = parse_count(value, "nth");
      if (spec.nth == 0) throw DomainError("fault spec: nth is 1-based");
    } else if (key == "limit") {
      spec.limit = parse_count(value, "limit");
      if (spec.limit == 0) throw DomainError("fault spec: limit must be positive");
    } else {
      throw DomainError("fault spec '" + std::string(text) +
                        "': unknown token '" + std::string(key) + "'");
    }
  }
  if (!have_mode)
    throw DomainError("fault spec '" + std::string(text) +
                      "' needs a mode (error, corrupt, or stall=<ms>)");
  if (spec.probability > 0 && spec.nth != 0)
    throw DomainError("fault spec: p= and nth= triggers are mutually exclusive");
  return spec;
}

FaultRegistry::FaultRegistry() {
  const char* env = std::getenv("FMTREE_FAULTS");
  if (env == nullptr) return;
  std::string_view all(env);
  while (!all.empty()) {
    const std::size_t semi = all.find(';');
    const std::string_view one = all.substr(0, semi);
    all = semi == std::string_view::npos ? std::string_view{}
                                         : all.substr(semi + 1);
    if (one.empty()) continue;
    try {
      arm(parse_fault_spec(one));
    } catch (const DomainError& e) {
      // Env arming must never take the process down; report and skip.
      std::fprintf(stderr, "fmtree: FMTREE_FAULTS: %s (entry skipped)\n",
                   e.what());
    }
  }
}

FaultRegistry& FaultRegistry::instance() {
  static FaultRegistry registry;
  return registry;
}

void FaultRegistry::arm(FaultSpec spec) {
  if (spec.site.empty()) throw DomainError("fault spec needs a site name");
  // Copy the key first: the RHS of map[key] = value is sequenced before the
  // subscript, so keying on spec.site while moving spec would key on "".
  const std::string site = spec.site;
  std::lock_guard lock(mutex_);
  sites_[site] = Armed{std::move(spec), 0, 0};
  armed_count_.store(sites_.size(), std::memory_order_relaxed);
}

bool FaultRegistry::disarm(std::string_view site) {
  std::lock_guard lock(mutex_);
  const bool erased = sites_.erase(std::string(site)) != 0;
  armed_count_.store(sites_.size(), std::memory_order_relaxed);
  return erased;
}

void FaultRegistry::disarm_all() {
  std::lock_guard lock(mutex_);
  sites_.clear();
  armed_count_.store(0, std::memory_order_relaxed);
}

std::uint64_t FaultRegistry::hits(std::string_view site) const {
  std::lock_guard lock(mutex_);
  const auto it = sites_.find(std::string(site));
  return it == sites_.end() ? 0 : it->second.hits;
}

std::optional<FaultHit> FaultRegistry::check(std::string_view site) {
  std::optional<FaultHit> hit;
  {
    std::lock_guard lock(mutex_);
    const auto it = sites_.find(std::string(site));
    if (it == sites_.end()) return std::nullopt;
    Armed& armed = it->second;
    const std::uint64_t index = ++armed.hits;
    if (armed.fired >= armed.spec.limit) return std::nullopt;
    bool fire = true;
    if (armed.spec.nth != 0) {
      fire = index == armed.spec.nth;
    } else if (armed.spec.probability > 0) {
      fire = coin(armed.spec.seed, site, index, armed.spec.probability);
    }
    if (!fire) return std::nullopt;
    ++armed.fired;
    fires_.fetch_add(1, std::memory_order_relaxed);
    hit = FaultHit{armed.spec.mode, armed.spec.stall_ms};
  }
  // Sleep outside the registry mutex so a stalled site cannot block other
  // sites (or the watchdog arming path) behind it.
  if (hit->mode == Mode::Stall) {
    std::this_thread::sleep_for(std::chrono::milliseconds(hit->stall_ms));
  }
  return hit;
}

namespace detail {

bool fault_point_slow(std::string_view site) {
  const std::optional<FaultHit> hit = FaultRegistry::instance().check(site);
  if (!hit.has_value()) return false;
  if (hit->mode == Mode::Error) throw InjectedFault(std::string(site));
  return hit->mode == Mode::Corrupt;
}

}  // namespace detail

Scope::Scope(const std::vector<std::string>& specs) {
  sites_.reserve(specs.size());
  for (const std::string& text : specs) {
    FaultSpec spec = parse_fault_spec(text);
    sites_.push_back(spec.site);
    FaultRegistry::instance().arm(std::move(spec));
  }
}

Scope::~Scope() {
  for (const std::string& site : sites_) FaultRegistry::instance().disarm(site);
}

}  // namespace fmtree::fault
