// Robustness tests: request forwarding, flood bounds, and fuzz-ish garbage
// input at every endpoint (a Byzantine sender can put any bytes on the
// wire; nothing may crash, hang, or corrupt state).
#include <gtest/gtest.h>

#include <functional>
#include <tuple>

#include "common/rng.h"
#include "tests/bft_harness.h"

namespace ss::bft {
namespace {

using testing::Cluster;
using testing::KvApp;

TEST(Forwarding, LeaderDeafToClientStillOrdersWithoutViewChange) {
  Cluster cluster;
  // The client's link to the leader (replica 0) is dead both ways; every
  // other link is fine. Without request forwarding this forces a view
  // change; with it, a follower hands the request to the leader.
  cluster.net.set_policy("client/1", "replica/0", sim::LinkPolicy::cut_link());
  cluster.net.set_policy("replica/0", "client/1", sim::LinkPolicy::cut_link());

  auto client = cluster.make_client(1);
  int completed = 0;
  for (int i = 0; i < 5; ++i) {
    client->invoke_ordered(KvApp::put("k" + std::to_string(i), "v"),
                           [&](Bytes) { ++completed; });
  }
  cluster.run_for(seconds(10));

  EXPECT_EQ(completed, 5);
  // The leader stayed in office the whole time...
  EXPECT_EQ(cluster.replicas[0]->regency(), 0u);
  EXPECT_EQ(cluster.replicas[0]->stats().view_changes, 0u);
  // ...because followers forwarded what it could not hear.
  std::uint64_t forwarded = 0;
  for (auto& replica : cluster.replicas) {
    forwarded += replica->stats().requests_forwarded;
  }
  EXPECT_GE(forwarded, 1u);
}

TEST(Forwarding, DisabledFallsBackToViewChange) {
  ReplicaOptions options;
  options.forward_to_leader = false;
  Cluster cluster(1, options);
  cluster.net.set_policy("client/1", "replica/0", sim::LinkPolicy::cut_link());
  cluster.net.set_policy("replica/0", "client/1", sim::LinkPolicy::cut_link());

  auto client = cluster.make_client(1);
  bool done = false;
  client->invoke_ordered(KvApp::put("k", "v"), [&](Bytes) { done = true; });
  cluster.run_for(seconds(10));

  EXPECT_TRUE(done);
  EXPECT_GE(cluster.replicas[1]->regency(), 1u);  // had to change leader
}

TEST(FloodProtection, ExcessPendingRequestsAreDropped) {
  ReplicaOptions options;
  options.max_pending_per_client = 8;
  options.max_batch = 1;
  Cluster cluster(1, options);

  // Freeze ordering so pending requests accumulate: cut the leader off
  // from the followers' votes.
  for (std::uint32_t i = 1; i < 4; ++i) {
    cluster.net.set_policy(crypto::replica_principal(ReplicaId{i}),
                           "replica/0", sim::LinkPolicy::cut_link());
  }

  ClientOptions client_options;
  client_options.reply_timeout = seconds(30);  // no retransmit churn
  auto client = cluster.make_client(1, client_options);
  for (int i = 0; i < 40; ++i) {
    client->invoke_ordered(KvApp::put("k" + std::to_string(i), "v"), {});
  }
  cluster.run_for(seconds(1));
  EXPECT_GE(cluster.replicas[0]->stats().requests_flood_dropped, 30u);
}

// ---------------------------------------------------------------------------
// Garbage-input fuzzing: random byte strings, truncated real messages, and
// type-confused envelopes against replicas and clients.

TEST(Fuzz, RandomBytesNeverCrashAnyEndpoint) {
  Cluster cluster;
  auto client = cluster.make_client(1);
  Rng rng(0xF022);

  for (int i = 0; i < 2000; ++i) {
    Bytes garbage(rng.below(200), 0);
    for (auto& b : garbage) b = static_cast<std::uint8_t>(rng.next());
    std::string to = i % 5 == 4
                         ? "client/1"
                         : crypto::replica_principal(
                               ReplicaId{static_cast<std::uint32_t>(i % 4)});
    cluster.net.send("attacker", to, std::move(garbage));
  }
  cluster.run_for(seconds(1));

  // The system still works afterwards.
  bool done = false;
  client->invoke_ordered(KvApp::put("after", "fuzz"),
                         [&](Bytes) { done = true; });
  cluster.run_for(seconds(5));
  EXPECT_TRUE(done);
  EXPECT_TRUE(cluster.apps_converged());
  // And the garbage was rejected at decode/MAC stage, not executed.
  for (auto& replica : cluster.replicas) {
    EXPECT_EQ(replica->stats().requests_executed, 1u);
    EXPECT_GE(replica->stats().decode_failures +
                  replica->stats().mac_failures,
              1u);
  }
}

TEST(Fuzz, BitFlippedRealTrafficIsRejectedByMacs) {
  Cluster cluster;
  // 5% of all replica-to-replica bytes get corrupted in flight.
  sim::LinkPolicy corrupt;
  corrupt.corrupt_prob = 0.05;
  for (ReplicaId a : cluster.group.replica_ids()) {
    for (ReplicaId b : cluster.group.replica_ids()) {
      if (a == b) continue;
      cluster.net.set_policy(crypto::replica_principal(a),
                             crypto::replica_principal(b), corrupt);
    }
  }
  ClientOptions client_options;
  client_options.reply_timeout = millis(200);
  client_options.max_retries = 100;
  auto client = cluster.make_client(1, client_options);
  int completed = 0;
  for (int i = 0; i < 10; ++i) {
    client->invoke_ordered(KvApp::put("k" + std::to_string(i), "v"),
                           [&](Bytes) { ++completed; });
  }
  cluster.run_for(seconds(30));
  EXPECT_EQ(completed, 10);
  EXPECT_TRUE(cluster.apps_converged());
  std::uint64_t rejected = 0;
  for (auto& replica : cluster.replicas) {
    rejected += replica->stats().mac_failures +
                replica->stats().decode_failures;
  }
  EXPECT_GE(rejected, 1u);
}

TEST(Fuzz, TypeConfusedEnvelopesIgnored) {
  Cluster cluster;
  auto client = cluster.make_client(1);
  bool done = false;
  client->invoke_ordered(KvApp::put("x", "1"), [&](Bytes) { done = true; });
  cluster.run_for(seconds(2));
  ASSERT_TRUE(done);

  // Take a legitimate STOP body but label the envelope as a PROPOSE, with a
  // valid MAC for the mislabeled type: the decoder must reject it.
  Stop stop{5, ReplicaId{1}};
  Bytes body = stop.encode();
  Bytes material = envelope_mac_material(MsgType::kPropose, "replica/1",
                                         "replica/0", /*epoch=*/0, body);
  Envelope env;
  env.type = MsgType::kPropose;
  env.sender = "replica/1";
  env.body = body;
  env.mac = cluster.keys.mac("replica/1", "replica/0", material);
  cluster.net.send("replica/1", "replica/0", env.encode());
  cluster.run_for(seconds(1));

  EXPECT_EQ(cluster.replicas[0]->regency(), 0u);  // no spurious view change
  EXPECT_GE(cluster.replicas[0]->stats().decode_failures, 1u);
}

// ---------------------------------------------------------------------------
// Replay protection: a captured request must never execute twice, however
// many later requests the same client has completed since.

/// Forwards to the simulated network and keeps a copy of every datagram
/// sent while `recording` is set.
class RecordingTransport final : public net::Transport {
 public:
  explicit RecordingTransport(sim::Network& inner) : inner_(inner) {}

  void attach(const std::string& name, Handler handler) override {
    inner_.attach(name, std::move(handler));
  }
  void detach(const std::string& name) override { inner_.detach(name); }
  bool attached(const std::string& name) const override {
    return inner_.attached(name);
  }
  void send(const std::string& from, const std::string& to,
            Bytes payload) override {
    if (recording) captured.emplace_back(from, to, payload);
    inner_.send(from, to, std::move(payload));
  }
  net::Timer schedule(SimTime delay, std::function<void()> action) override {
    return inner_.schedule(delay, std::move(action));
  }
  SimTime now() const override { return inner_.now(); }

  bool recording = false;
  std::vector<std::tuple<std::string, std::string, Bytes>> captured;

 private:
  sim::Network& inner_;
};

TEST(ReplayProtection, RequestOlderThanExecutedWindowIsNotReExecuted) {
  Cluster cluster;
  RecordingTransport tap(cluster.net);
  ClientProxy client(tap, cluster.group, ClientId{7}, cluster.keys);

  tap.recording = true;
  bool first_done = false;
  client.invoke_ordered(KvApp::put("k", "first"),
                        [&](Bytes) { first_done = true; });
  tap.recording = false;
  ASSERT_FALSE(tap.captured.empty());
  cluster.run_for(seconds(1));
  ASSERT_TRUE(first_done);

  // Push the first request's sequence number out of every replica's
  // executed window, one request at a time.
  constexpr int kLater = 4200;
  int completed = 0;
  std::function<void()> next = [&] {
    if (completed == kLater) return;
    client.invoke_ordered(KvApp::put("k", "v" + std::to_string(completed)),
                          [&](Bytes) {
                            ++completed;
                            next();
                          });
  };
  next();
  cluster.run_for(seconds(600));
  ASSERT_EQ(completed, kLater);
  for (const auto& app : cluster.apps) {
    ASSERT_EQ(app->applied(), 1u + kLater);
  }

  // Re-send the captured datagrams unchanged: their MACs still verify.
  for (auto& [from, to, payload] : tap.captured) {
    cluster.net.send(from, to, payload);
  }
  cluster.run_for(seconds(5));

  const std::string last = "v" + std::to_string(kLater - 1);
  for (const auto& app : cluster.apps) {
    EXPECT_EQ(app->applied(), 1u + kLater);
    EXPECT_EQ(app->data().at("k"), last);
  }
}

}  // namespace
}  // namespace ss::bft
