// Tests for the proactive-recovery policy (core::ProactiveRecovery):
// clock-free unit cases for its rules (fault-budget gate, round-robin,
// period grid, stop()), then the policy driven on the simulator — rolling
// durable reincarnation under live traffic (reboot from checkpoint + WAL
// replay + key-epoch bump), fault-budget safety, the stop()-during-downtime
// regression — and the sim substrate's queueing sanity (delivered
// throughput saturates at modeled capacity).
#include <gtest/gtest.h>

#include <vector>

#include "core/proactive_recovery.h"
#include "core/replicated_deployment.h"
#include "obs/metrics.h"

namespace ss::core {
namespace {

// ---------------------------------------------------------------------------
// The policy alone: no clock, no deployment.

bool none_down(std::uint32_t) { return false; }

TEST(ProactiveRecoveryPolicy, NoKillWhileAnyReplicaDownOrPending) {
  ProactiveRecovery policy(4, {.period = seconds(1), .downtime = seconds(5)});
  std::vector<bool> down(4, false);
  auto is_down = [&down](std::uint32_t i) { return down[i]; };

  down[3] = true;  // an external fault
  EXPECT_FALSE(policy.kill_due(seconds(1), is_down).has_value());
  down[3] = false;
  EXPECT_EQ(policy.kill_due(seconds(2), is_down), 0u);
  // Replica 0 is inside its downtime: even a caller that reports every
  // replica up gets no second victim until it is restored.
  EXPECT_FALSE(policy.kill_due(seconds(3), none_down).has_value());
  EXPECT_FALSE(policy.restore_due(seconds(7) - 1).has_value());
  EXPECT_EQ(policy.restore_due(seconds(7)), 0u);
  EXPECT_FALSE(policy.restore_due(seconds(7)).has_value());
  EXPECT_EQ(policy.kill_due(seconds(8), none_down), 1u);
  EXPECT_EQ(policy.stats().recoveries, 2u);
  EXPECT_EQ(policy.stats().skipped_unhealthy, 2u);
}

TEST(ProactiveRecoveryPolicy, SkipDoesNotAdvanceRoundRobin) {
  // A MinBFT-sized group: the round-robin wraps at n = 3.
  ProactiveRecovery policy(3, {.period = seconds(1), .downtime = millis(100)});
  std::vector<bool> down(3, false);
  auto is_down = [&down](std::uint32_t i) { return down[i]; };
  std::vector<std::uint32_t> victims;
  for (std::int64_t t = 1; t <= 5; ++t) {
    down[2] = t == 2;  // replica 2 is down during the second grid point
    if (auto victim = policy.kill_due(seconds(t), is_down)) {
      victims.push_back(*victim);
      EXPECT_EQ(policy.restore_due(seconds(t) + millis(100)), *victim);
    }
  }
  EXPECT_EQ(victims, (std::vector<std::uint32_t>{0, 1, 2, 0}));
  EXPECT_EQ(policy.stats().skipped_unhealthy, 1u);
}

TEST(ProactiveRecoveryPolicy, KillsLandOnThePeriodGrid) {
  ProactiveRecovery policy(4, {.period = seconds(10), .downtime = seconds(1)},
                           /*start=*/seconds(3));
  EXPECT_EQ(policy.next_deadline(), seconds(13));
  EXPECT_FALSE(policy.kill_due(seconds(13) - 1, none_down).has_value());
  EXPECT_EQ(policy.kill_due(seconds(13), none_down), 0u);
  EXPECT_EQ(policy.next_deadline(), seconds(14));  // the restore
  EXPECT_EQ(policy.restore_due(seconds(14)), 0u);
  EXPECT_EQ(policy.next_deadline(), seconds(23));
  // A late poll fires once, not once per missed grid point, and does not
  // shift the grid.
  EXPECT_EQ(policy.kill_due(seconds(45), none_down), 1u);
  EXPECT_EQ(policy.restore_due(seconds(46)), 1u);
  EXPECT_EQ(policy.next_deadline(), seconds(53));
  EXPECT_EQ(policy.stats().recoveries, 2u);
  EXPECT_EQ(policy.stats().skipped_unhealthy, 0u);
}

TEST(ProactiveRecoveryPolicy, StopReturnsDownVictimExactlyOnce) {
  ProactiveRecovery idle(4, {.period = seconds(1), .downtime = seconds(1)});
  EXPECT_FALSE(idle.stop().has_value());

  ProactiveRecovery policy(4, {.period = seconds(1), .downtime = seconds(30)});
  EXPECT_EQ(policy.kill_due(seconds(1), none_down), 0u);
  EXPECT_EQ(policy.stop(), 0u);
  EXPECT_FALSE(policy.stop().has_value());
  // Stopped: the victim is not handed out again, and nothing new is due.
  EXPECT_FALSE(policy.restore_due(seconds(60)).has_value());
  EXPECT_FALSE(policy.kill_due(seconds(60), none_down).has_value());
  EXPECT_FALSE(policy.next_deadline().has_value());
}

// ---------------------------------------------------------------------------
// The policy driven on the simulator.

/// The simulator's proactive-recovery driver: one event-loop timer armed at
/// the policy's next deadline. A kill is a durable process kill (reboot
/// from checkpoint + WAL on restore), or a volatile crash when the
/// deployment is not durable.
class SimRecoveryDriver {
 public:
  SimRecoveryDriver(ReplicatedDeployment& deployment,
                    ProactiveRecoveryOptions options)
      : dep_(deployment),
        policy_(deployment.replica(0).quorum_config().n, options,
                deployment.loop().now()) {
    arm();
  }

  void stop() {
    if (auto victim = policy_.stop()) bring_back(*victim);
  }

  const ProactiveRecoveryStats& stats() const { return policy_.stats(); }

 private:
  void arm() {
    if (auto at = policy_.next_deadline()) {
      dep_.loop().schedule_at(*at, [this] { poll(); });
    }
  }

  void poll() {
    SimTime now = dep_.loop().now();
    if (auto victim = policy_.restore_due(now)) bring_back(*victim);
    auto crashed = [this](std::uint32_t i) {
      return dep_.replica(i).crashed();
    };
    if (auto victim = policy_.kill_due(now, crashed)) {
      went_down_at_ = now;
      if (dep_.durable()) {
        dep_.kill_replica_process(*victim);
      } else {
        dep_.crash_replica(*victim);
      }
    }
    arm();
  }

  void bring_back(std::uint32_t victim) {
    if (dep_.durable() && dep_.replica_killed(victim)) {
      dep_.restart_replica_process(victim);
    } else if (dep_.replica(victim).crashed()) {
      dep_.recover_replica(victim);
    }
    obs::Registry::instance()
        .histogram("recovery.reincarnation_ns")
        .record(static_cast<std::int64_t>(dep_.loop().now() - went_down_at_));
  }

  ReplicatedDeployment& dep_;
  ProactiveRecovery policy_;
  SimTime went_down_at_ = 0;
};

ReplicatedOptions fast_options() {
  ReplicatedOptions options;
  options.costs = sim::CostModel::zero();
  options.costs.hop_latency = micros(50);
  return options;
}

ReplicatedOptions durable_options() {
  ReplicatedOptions options = fast_options();
  options.durable = true;
  options.checkpoint_interval = 8;
  return options;
}

TEST(ProactiveRecovery, RollingReincarnationKeepsServiceLive) {
  ReplicatedDeployment system(durable_options());
  ItemId item = system.add_point("sensor");
  system.start();

  ProactiveRecoveryOptions options;
  options.period = seconds(4);
  options.downtime = seconds(1);  // long enough to miss decisions
  SimRecoveryDriver recovery(system, options);

  // ~24 s of traffic: the policy reincarnates ~6 replicas (1.5 cycles).
  int sent = 0;
  for (int i = 0; i < 120; ++i) {
    system.frontend().field_update(item, scada::Variant{double(i)});
    ++sent;
    system.run_until(system.loop().now() + millis(200));
  }
  system.run_until(system.loop().now() + seconds(5));

  EXPECT_GE(recovery.stats().recoveries, 5u);
  // Every update made it through despite the rolling restarts.
  EXPECT_EQ(system.hmi().counters().updates_received,
            static_cast<std::uint64_t>(sent));
  // Each reincarnation was a durable process restart: every replica the
  // policy cycled through carries a fresh (bumped) key epoch and went
  // through at least one state transfer.
  std::uint64_t transfers = 0;
  std::uint32_t epoch_bumped = 0;
  for (std::uint32_t i = 0; i < system.n(); ++i) {
    transfers += system.replica(i).stats().state_transfers;
    if (system.replica(i).key_epoch() > 0) ++epoch_bumped;
    EXPECT_FALSE(system.replica(i).crashed());
  }
  EXPECT_GE(transfers, 4u);
  EXPECT_GE(epoch_bumped, 4u);
  // Quiesce, then verify convergence.
  system.net().set_policy(kFrontendEndpoint, kProxyFrontendEndpoint,
                          sim::LinkPolicy::cut_link());
  system.run_until(system.loop().now() + seconds(3));
  EXPECT_TRUE(system.masters_converged());
}

// Under MinBFT the group is 2f+1 = 3 replicas; the policy's round-robin
// must cycle over exactly those 3 (the driver sizes it from the engine's
// quorum_config() instead of assuming 3f+1). One full cycle of rolling
// reincarnation, every update still delivered.
TEST(ProactiveRecovery, MinBftGroupReincarnatesAllReplicas) {
  ReplicatedOptions deployment_options = durable_options();
  deployment_options.group = GroupConfig::for_protocol(Protocol::kMinBft, 1);
  ReplicatedDeployment system(deployment_options);
  ASSERT_EQ(system.n(), 3u);
  ItemId item = system.add_point("sensor");
  system.start();

  ProactiveRecoveryOptions options;
  options.period = seconds(4);
  options.downtime = seconds(1);
  SimRecoveryDriver recovery(system, options);

  int sent = 0;
  for (int i = 0; i < 90; ++i) {
    system.frontend().field_update(item, scada::Variant{double(i)});
    ++sent;
    system.run_until(system.loop().now() + millis(200));
  }
  system.run_until(system.loop().now() + seconds(5));

  // ~18 s of traffic at a 4 s period: at least one full 3-replica cycle.
  EXPECT_GE(recovery.stats().recoveries, 3u);
  EXPECT_EQ(system.hmi().counters().updates_received,
            static_cast<std::uint64_t>(sent));
  std::uint32_t epoch_bumped = 0;
  for (std::uint32_t i = 0; i < system.n(); ++i) {
    if (system.replica(i).key_epoch() > 0) ++epoch_bumped;
    EXPECT_FALSE(system.replica(i).crashed());
  }
  EXPECT_EQ(epoch_bumped, 3u);
  system.net().set_policy(kFrontendEndpoint, kProxyFrontendEndpoint,
                          sim::LinkPolicy::cut_link());
  system.run_until(system.loop().now() + seconds(3));
  EXPECT_TRUE(system.masters_converged());
}

TEST(ProactiveRecovery, NeverExceedsFaultBudget) {
  ReplicatedDeployment system(fast_options());
  ItemId item = system.add_point("sensor");
  system.start();

  // Replica 2 is already down for external reasons.
  system.crash_replica(2);

  ProactiveRecoveryOptions options;
  options.period = seconds(2);
  options.downtime = seconds(1);
  SimRecoveryDriver recovery(system, options);

  system.run_until(system.loop().now() + seconds(10));
  // The policy refused to take a second replica down.
  EXPECT_EQ(recovery.stats().recoveries, 0u);
  EXPECT_GE(recovery.stats().skipped_unhealthy, 4u);

  // Service continued on the remaining 3 replicas throughout.
  system.frontend().field_update(item, scada::Variant{1.0});
  system.run_until(system.loop().now() + seconds(1));
  EXPECT_EQ(system.hmi().counters().updates_received, 1u);

  // Once the external fault heals, reincarnation resumes.
  system.recover_replica(2);
  system.run_until(system.loop().now() + seconds(6));
  EXPECT_GE(recovery.stats().recoveries, 1u);
}

// Regression: stop() used to leave a victim stranded when it landed inside
// the downtime window — the pending restore bailed once stopped, after the
// kill had already run, and nothing else ever brought the replica back.
// stop() must hand the in-flight victim back for an immediate restore.
TEST(ProactiveRecovery, StopDuringDowntimeBringsVictimBack) {
  ReplicatedDeployment system(durable_options());
  ItemId item = system.add_point("sensor");
  system.start();

  ProactiveRecoveryOptions options;
  options.period = seconds(1);
  options.downtime = seconds(30);  // stop() will land inside this window
  SimRecoveryDriver recovery(system, options);

  // Run past the first tick: one replica is now down for "30 s".
  system.run_until(system.loop().now() + millis(1500));
  std::uint32_t crashed = 0;
  for (std::uint32_t i = 0; i < system.n(); ++i) {
    if (system.replica(i).crashed()) ++crashed;
  }
  ASSERT_EQ(crashed, 1u);

  recovery.stop();
  for (std::uint32_t i = 0; i < system.n(); ++i) {
    EXPECT_FALSE(system.replica(i).crashed());
  }

  // The driver's armed timer still fires later; it must stay a no-op
  // and the group must serve traffic with all four replicas.
  system.run_until(system.loop().now() + seconds(31));
  for (std::uint32_t i = 0; i < system.n(); ++i) {
    EXPECT_FALSE(system.replica(i).crashed());
  }
  system.frontend().field_update(item, scada::Variant{42.0});
  system.run_until(system.loop().now() + seconds(1));
  EXPECT_EQ(system.hmi().counters().updates_received, 1u);
}

// Sim-substrate sanity: when the offered load exceeds the modeled capacity
// of the single-lane Master, delivered throughput saturates near capacity
// instead of growing or collapsing — the queueing behaviour every Figure 8
// number rests on.
TEST(CostModelSanity, DeliveredSaturatesAtModeledCapacity) {
  ReplicatedOptions options;
  options.costs = sim::CostModel::zero();
  options.costs.hop_latency = micros(50);
  options.costs.da_process = millis(1);  // capacity: exactly 1000 ops/s
  options.client_reply_timeout = seconds(60);
  options.request_timeout = seconds(60);
  ReplicatedDeployment system(options);
  ItemId item = system.add_point("sensor");
  system.start();

  // Offer 2000 updates/s for 5 s.
  double value = 0;
  std::function<void()> tick = [&] {
    system.frontend().field_update(item, scada::Variant{value});
    value += 1.0;
    if (system.loop().now() < seconds(6)) {
      system.loop().schedule(micros(500), tick);
    }
  };
  system.loop().schedule(0, tick);
  system.run_until(seconds(3));
  std::uint64_t at3 = system.hmi().counters().updates_received;
  system.run_until(seconds(5));
  std::uint64_t at5 = system.hmi().counters().updates_received;

  double delivered_per_sec = static_cast<double>(at5 - at3) / 2.0;
  EXPECT_GT(delivered_per_sec, 850.0);
  EXPECT_LT(delivered_per_sec, 1100.0);
}

}  // namespace
}  // namespace ss::core
