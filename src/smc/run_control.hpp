// Cooperative run control for long Monte-Carlo batches.
//
// A RunControl is a small, thread-safe handle shared between the party that
// wants to stop a run (a SIGINT handler, a watchdog, an adaptive driver) and
// the workers executing it. Workers poll should_stop() before each unit of
// work they take (a trajectory, or a lane block on the batch engine); none of
// the mechanisms preempt a unit mid-flight, so every unit taken completes and
// results over the delivered prefix stay exact (see smc::run_parallel in
// runner.hpp for the truncation contract).
//
// Three independent stop conditions, first one to fire wins:
//   - request_stop(): externally signalled (async-signal-safe, lock-free);
//   - a wall-clock deadline (set_timeout / set_deadline);
//   - a trajectory budget (set_trajectory_budget).
#pragma once

#include <atomic>
#include <chrono>
#include <cstdint>
#include <limits>
#include <string_view>

namespace fmtree::smc {

/// Why a run ended early. None means it ran to natural completion.
enum class StopReason : std::uint8_t {
  None = 0,
  Interrupted,      ///< request_stop() was called (e.g. SIGINT/SIGTERM)
  DeadlineExpired,  ///< wall-clock deadline passed
  BudgetExhausted,  ///< trajectory budget consumed
  Stalled,          ///< a watchdog saw no progress for its stall timeout
};

constexpr const char* stop_reason_name(StopReason r) noexcept {
  switch (r) {
    case StopReason::None: return "none";
    case StopReason::Interrupted: return "interrupted";
    case StopReason::DeadlineExpired: return "deadline";
    case StopReason::BudgetExhausted: return "budget";
    case StopReason::Stalled: return "stalled";
  }
  return "?";
}

/// Inverse of stop_reason_name, for wire decoders (the serve protocol
/// transports stop reasons by their stable names). Unknown names map to
/// None rather than failing: a newer server introducing a reason must not
/// break an older client's ability to read the rest of the response.
constexpr StopReason stop_reason_from_name(std::string_view name) noexcept {
  if (name == "interrupted") return StopReason::Interrupted;
  if (name == "deadline") return StopReason::DeadlineExpired;
  if (name == "budget") return StopReason::BudgetExhausted;
  if (name == "stalled") return StopReason::Stalled;
  return StopReason::None;
}

class RunControl {
public:
  using Clock = std::chrono::steady_clock;

  /// Requests a stop at the next trajectory boundary. Safe to call from a
  /// signal handler (a single lock-free atomic store).
  void request_stop() noexcept { stop_.store(true, std::memory_order_release); }
  bool stop_requested() const noexcept {
    return stop_.load(std::memory_order_acquire);
  }

  /// Stops the run once the wall clock passes now() + seconds. Non-positive
  /// timeouts fire immediately.
  void set_timeout(double seconds) noexcept {
    set_deadline(Clock::now() + std::chrono::duration_cast<Clock::duration>(
                                    std::chrono::duration<double>(seconds)));
  }
  void set_deadline(Clock::time_point deadline) noexcept {
    deadline_ns_.store(deadline.time_since_epoch().count(),
                       std::memory_order_release);
  }

  /// Stops the run once `budget` trajectories have completed.
  void set_trajectory_budget(std::uint64_t budget) noexcept {
    budget_.store(budget, std::memory_order_release);
  }

  /// Cooperative poll: the first stop condition that holds, or None.
  /// `completed` is the number of trajectories the run has finished or
  /// already taken on (used by the budget check); smc::run_parallel passes
  /// the trajectories claimed so far, every one of which completes.
  StopReason should_stop(std::uint64_t completed) const noexcept {
    if (stop_requested()) return StopReason::Interrupted;
    const auto deadline = deadline_ns_.load(std::memory_order_acquire);
    if (deadline != kNoDeadline &&
        Clock::now().time_since_epoch().count() >= deadline)
      return StopReason::DeadlineExpired;
    if (completed >= budget_.load(std::memory_order_acquire))
      return StopReason::BudgetExhausted;
    return StopReason::None;
  }

  /// Rearms the handle for another run (clears all three conditions).
  void reset() noexcept {
    stop_.store(false, std::memory_order_release);
    deadline_ns_.store(kNoDeadline, std::memory_order_release);
    budget_.store(kNoBudget, std::memory_order_release);
  }

private:
  static constexpr auto kNoDeadline = std::numeric_limits<Clock::rep>::max();
  static constexpr auto kNoBudget = std::numeric_limits<std::uint64_t>::max();

  std::atomic<bool> stop_{false};
  std::atomic<Clock::rep> deadline_ns_{kNoDeadline};
  std::atomic<std::uint64_t> budget_{kNoBudget};
};

}  // namespace fmtree::smc
