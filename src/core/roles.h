// The three roles of the SMaRt-SCADA architecture (paper Figure 5), each
// wired in exactly one place: a ProxyMaster (BFT replica + Adapter +
// deterministic SCADA Master), the HMI side (HMI + ProxyHMI) and the
// Frontend side (Frontend + ProxyFrontend). The multi-process deployment,
// the simulated ReplicatedDeployment and the socket benches all build their
// roles from here, over whichever net::Transport they run on. Each role is
// configured only through the existing option structs; endpoints and client
// ids are the role's own. DESIGN.md §18 lists what each role owns and the
// ordering it guarantees.
#pragma once

#include <cstdint>
#include <memory>

#include "bft/client.h"
#include "bft/replica.h"
#include "common/config.h"
#include "core/adapter.h"
#include "core/nodes.h"
#include "core/proxies.h"
#include "core/runner.h"
#include "crypto/keychain.h"
#include "scada/frontend.h"
#include "scada/hmi.h"
#include "scada/master.h"
#include "storage/replica_storage.h"

namespace ss::core {

/// Well-known client ids.
inline constexpr std::uint32_t kProxyHmiClient = 1;
inline constexpr std::uint32_t kProxyFrontendClient = 2;
inline constexpr std::uint32_t kAdapterClientBase = 100;

/// The secret every process of a deployment derives its session keys from.
inline constexpr const char* kGroupSecret = "smart-scada-secret";

/// The group every process of a multi-process deployment agrees on.
/// SS_PROTOCOL selects the agreement engine (pbft, the default, runs 3f+1
/// replicas; minbft runs 2f+1). Spawned children inherit the environment,
/// so every role and every bench that forks replicas agrees on n.
GroupConfig group_from_env(std::uint32_t f);

/// The reactor demo plant the multi-process deployment serves. Item ids are
/// dense by registration order, so every process that registers the points
/// through add_points agrees on these ids.
namespace reactor {
inline constexpr ItemId kTemperature{1};
inline constexpr ItemId kSetpoint{2};
inline constexpr const char* kTemperatureName = "plant/reactor/temperature";
inline constexpr const char* kSetpointName = "plant/reactor/setpoint";
inline constexpr double kInitialSetpoint = 20.0;

void add_points(scada::ScadaMaster& master);
void add_points(scada::Frontend& frontend);
}  // namespace reactor

/// ProxyMaster `id`: the deterministic SCADA Master, its Adapter with both
/// proxy clients registered, the BFT replica executing through the Adapter,
/// and the Adapter's logical-timeout client (id kAdapterClientBase + id).
class ProxyMaster {
 public:
  /// `master.deterministic` is forced on: timestamps come from agreement.
  /// `storage` (may be null) reaches the replica at construction through
  /// ReplicaOptions::storage; the role owns it, so it outlives the replica.
  ProxyMaster(net::Transport& net, GroupConfig group, ReplicaId id,
              const crypto::Keychain& keys, scada::MasterOptions master,
              AdapterOptions adapter, bft::ReplicaOptions replica,
              bft::ClientOptions timeout_client,
              std::unique_ptr<storage::ReplicaStorage> storage = nullptr);

  ProxyMaster(const ProxyMaster&) = delete;
  ProxyMaster& operator=(const ProxyMaster&) = delete;

  /// Hands the replica its runner (bft::Replica::set_runner). The role
  /// destroys the runner first, so no worker task outlives the replica.
  Runner& set_runner(std::unique_ptr<Runner> runner);

  scada::ScadaMaster& master() { return master_; }
  const scada::ScadaMaster& master() const { return master_; }
  Adapter& adapter() { return adapter_; }
  const Adapter& adapter() const { return adapter_; }
  bft::Replica& replica() { return replica_; }
  const bft::Replica& replica() const { return replica_; }
  storage::ReplicaStorage* storage() { return storage_.get(); }

 private:
  // Declaration order is destruction order reversed: the runner goes
  // first, the storage last.
  std::unique_ptr<storage::ReplicaStorage> storage_;
  scada::ScadaMaster master_;
  Adapter adapter_;
  bft::Replica replica_;
  bft::ClientProxy timeout_client_;
  std::unique_ptr<Runner> runner_;
};

/// The operator side: the HMI, its ProxyHMI (client kProxyHmiClient) and
/// the node that puts the HMI on its endpoint, talking only to the proxy.
/// Callers set the cost fields and the proxy's bft::ClientOptions; the
/// endpoint fields of `proxy` and `node` are overwritten by the role.
class HmiSide {
 public:
  HmiSide(net::Transport& net, GroupConfig group, const crypto::Keychain& keys,
          ProxyOptions proxy = {}, NodeOptions node = {});

  scada::Hmi& hmi() { return hmi_; }
  ComponentProxy& proxy() { return proxy_; }
  const ComponentProxy& proxy() const { return proxy_; }

 private:
  scada::Hmi hmi_;
  ComponentProxy proxy_;
  HmiNode node_;
};

/// The field side: the Frontend, its ProxyFrontend (client
/// kProxyFrontendClient) and its node; same option rules as HmiSide.
class FrontendSide {
 public:
  FrontendSide(net::Transport& net, GroupConfig group,
               const crypto::Keychain& keys, ProxyOptions proxy = {},
               NodeOptions node = {});

  scada::Frontend& frontend() { return frontend_; }
  ComponentProxy& proxy() { return proxy_; }
  const ComponentProxy& proxy() const { return proxy_; }

 private:
  scada::Frontend frontend_;
  ComponentProxy proxy_;
  FrontendNode node_;
};

}  // namespace ss::core
