#include "core/roles.h"

#include <cstdlib>
#include <utility>

#include "core/scada_link.h"

namespace ss::core {

namespace {

scada::MasterOptions deterministic(scada::MasterOptions options) {
  options.deterministic = true;  // challenge (b)/(c): no local clock
  return options;
}

bft::ReplicaOptions with_storage(bft::ReplicaOptions options,
                                 storage::ReplicaStorage* storage) {
  // At construction, not through the deprecated set_storage shim: the
  // MinBFT engine reads its durable USIG counter lease before the first
  // message arrives.
  options.storage = storage;
  return options;
}

ProxyOptions proxy_on(ProxyOptions options, const char* endpoint,
                      const char* component) {
  options.endpoint = endpoint;
  options.component_endpoint = component;
  return options;
}

NodeOptions node_on(NodeOptions options, const char* endpoint,
                    const char* peer) {
  options.endpoint = endpoint;
  options.peer = peer;
  return options;
}

}  // namespace

GroupConfig group_from_env(std::uint32_t f) {
  Protocol protocol = Protocol::kPbft;
  if (const char* name = std::getenv("SS_PROTOCOL")) {
    protocol = parse_protocol(name);
  }
  return GroupConfig::for_protocol(protocol, f);
}

namespace reactor {

void add_points(scada::ScadaMaster& master) {
  master.add_item(kTemperatureName);
  master.add_item(kSetpointName);
}

void add_points(scada::Frontend& frontend) {
  frontend.add_item(kTemperatureName);
  frontend.add_item(kSetpointName, scada::Variant{kInitialSetpoint});
}

}  // namespace reactor

ProxyMaster::ProxyMaster(net::Transport& net, GroupConfig group, ReplicaId id,
                         const crypto::Keychain& keys,
                         scada::MasterOptions master, AdapterOptions adapter,
                         bft::ReplicaOptions replica,
                         bft::ClientOptions timeout_client,
                         std::unique_ptr<storage::ReplicaStorage> storage)
    : storage_(std::move(storage)),
      master_(deterministic(std::move(master))),
      adapter_(net, group, id, keys, master_, adapter),
      replica_(net, group, id, keys, adapter_, adapter_,
               with_storage(std::move(replica), storage_.get())),
      timeout_client_(net, group, ClientId{kAdapterClientBase + id.value},
                      keys, timeout_client) {
  adapter_.register_client(kHmiEndpoint, ClientId{kProxyHmiClient});
  adapter_.register_client(kFrontendEndpoint, ClientId{kProxyFrontendClient});
  adapter_.attach_replica(&replica_);
  // Timeout injections reach the Masters tagged with a neutral source: the
  // timeout client is deliberately not registered as a named source.
  adapter_.attach_timeout_client(&timeout_client_);
}

Runner& ProxyMaster::set_runner(std::unique_ptr<Runner> runner) {
  runner_ = std::move(runner);
  replica_.set_runner(runner_.get());
  return *runner_;
}

HmiSide::HmiSide(net::Transport& net, GroupConfig group,
                 const crypto::Keychain& keys, ProxyOptions proxy,
                 NodeOptions node)
    : hmi_(scada::HmiOptions{.instance_id = 2,
                             .subscriber_name = kHmiEndpoint}),
      proxy_(net, group, ClientId{kProxyHmiClient}, keys,
             proxy_on(std::move(proxy), kProxyHmiEndpoint, kHmiEndpoint)),
      node_(net, keys, hmi_,
            node_on(std::move(node), kHmiEndpoint, kProxyHmiEndpoint)) {}

FrontendSide::FrontendSide(net::Transport& net, GroupConfig group,
                           const crypto::Keychain& keys, ProxyOptions proxy,
                           NodeOptions node)
    : frontend_(scada::FrontendOptions{.instance_id = 1}),
      proxy_(net, group, ClientId{kProxyFrontendClient}, keys,
             proxy_on(std::move(proxy), kProxyFrontendEndpoint,
                      kFrontendEndpoint)),
      node_(net, keys, frontend_,
            node_on(std::move(node), kFrontendEndpoint,
                    kProxyFrontendEndpoint)) {}

}  // namespace ss::core
