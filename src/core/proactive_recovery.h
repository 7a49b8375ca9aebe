// Proactive recovery policy (Castro & Liskov, "Practical Byzantine
// Fault-Tolerance and Proactive Recovery" — reference [14] of the paper).
//
// Intrusion tolerance assumes at most f compromised replicas *at a time*;
// periodically reincarnating each replica from a clean image, on a fresh
// key epoch, bounds the window an undetected intrusion can survive. This
// object is the whole policy and nothing else: it has no clock and does no
// I/O. Its driver passes in the current time and which replicas are down,
// and performs the kill and the restart itself:
//
//  * the simulator's driver crashes / reboots replicas of a
//    ReplicatedDeployment (durable reboot from checkpoint + WAL, or the
//    volatile crash()/recover() pair);
//  * `deploy local --supervise` with SS_PROACTIVE_PERIOD SIGKILLs, reaps and
//    respawns replica processes;
//  * `load_openloop --proactive-period` does the same under open-loop load.
//
// The rules: kills fall due on the grid start + k·period (k ≥ 1); victims
// are taken round-robin over the group; a kill happens only when every
// replica is up and no victim is still inside its downtime (proactive
// recovery must never be the f+1-th fault), and a skipped kill does not
// advance the round-robin; a victim comes back after `downtime`, and on
// stop() at once.
#pragma once

#include <cstdint>
#include <functional>
#include <optional>
#include <utility>

#include "common/types.h"

namespace ss::core {

struct ProactiveRecoveryOptions {
  /// Time between two consecutive replica reincarnations.
  SimTime period = seconds(60);
  /// How long a reincarnating replica stays down before rejoining.
  SimTime downtime = millis(500);
};

struct ProactiveRecoveryStats {
  std::uint64_t recoveries = 0;
  std::uint64_t skipped_unhealthy = 0;
};

class ProactiveRecovery {
 public:
  /// `n` is the caller's group size (3f+1 under PBFT, 2f+1 under MinBFT);
  /// `start` is the origin of the period grid.
  ProactiveRecovery(std::uint32_t n, ProactiveRecoveryOptions options,
                    SimTime start = 0)
      : n_(n), opt_(options), next_kill_at_(start + options.period) {}

  /// The replica to take down at `now`, if a kill is due and the fault
  /// budget allows it. `is_down(i)` reports whether replica i is down for
  /// any reason (crashed, dead process, pending restart). A due kill that
  /// is refused counts as skipped_unhealthy and waits for the next grid
  /// point; the round-robin stays on the same victim.
  std::optional<std::uint32_t> kill_due(
      SimTime now, const std::function<bool(std::uint32_t)>& is_down) {
    if (stopped_ || now < next_kill_at_) return std::nullopt;
    while (next_kill_at_ <= now) next_kill_at_ += opt_.period;
    bool healthy = !victim_.has_value();
    for (std::uint32_t i = 0; healthy && i < n_; ++i) healthy = !is_down(i);
    if (!healthy) {
      ++stats_.skipped_unhealthy;
      return std::nullopt;
    }
    victim_ = turn_;
    restore_at_ = now + opt_.downtime;
    turn_ = (turn_ + 1) % n_;
    ++stats_.recoveries;
    return victim_;
  }

  /// The victim whose downtime is over at `now`, once.
  std::optional<std::uint32_t> restore_due(SimTime now) {
    if (!victim_.has_value() || now < restore_at_) return std::nullopt;
    return std::exchange(victim_, std::nullopt);
  }

  /// Ends the policy: no further kills. Returns the victim still inside its
  /// downtime, once — the caller must bring it back now, or it would stay
  /// down for good.
  std::optional<std::uint32_t> stop() {
    stopped_ = true;
    return std::exchange(victim_, std::nullopt);
  }

  /// When the next kill or restore falls due; nullopt once stopped.
  std::optional<SimTime> next_deadline() const {
    if (stopped_) return std::nullopt;
    if (victim_.has_value() && restore_at_ < next_kill_at_) return restore_at_;
    return next_kill_at_;
  }

  const ProactiveRecoveryStats& stats() const { return stats_; }

 private:
  std::uint32_t n_;
  ProactiveRecoveryOptions opt_;
  SimTime next_kill_at_;
  /// Round-robin position: the replica the next kill takes.
  std::uint32_t turn_ = 0;
  /// Victim inside its downtime window, if any, and when it comes back.
  std::optional<std::uint32_t> victim_;
  SimTime restore_at_ = 0;
  bool stopped_ = false;
  ProactiveRecoveryStats stats_;
};

}  // namespace ss::core
