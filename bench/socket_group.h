// Socket backend shared by the benches that drive real replica processes: a
// replica group of forked `deploy replica` processes on localhost, plus the
// in-process HMI and Frontend sides (core/roles) that drive it over UDP.
// There is no RTU: without a field driver the Frontend applies writes
// locally and acks, so the measured path is HMI -> agreement -> Frontend ->
// agreement -> voted reply.
#pragma once

#include <signal.h>
#include <sys/wait.h>
#include <unistd.h>

#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <stdexcept>
#include <string>
#include <vector>

#include "core/roles.h"
#include "net/resolver.h"
#include "net/socket_transport.h"

namespace ss::bench {

/// The `deploy` binary: `override_path`, else $SS_DEPLOY, else the build
/// tree's examples/deploy next to this binary's directory, else PATH.
inline std::string locate_deploy(const std::string& override_path) {
  if (!override_path.empty()) return override_path;
  if (const char* env = std::getenv("SS_DEPLOY")) return env;
  char buf[4096];
  ssize_t n = ::readlink("/proc/self/exe", buf, sizeof(buf) - 1);
  if (n > 0) {
    buf[n] = '\0';
    std::string dir(buf);
    std::size_t slash = dir.rfind('/');
    if (slash != std::string::npos) dir.resize(slash);
    for (const std::string& cand :
         {dir + "/../examples/deploy", dir + "/deploy"}) {
      if (::access(cand.c_str(), X_OK) == 0) return cand;
    }
  }
  return "deploy";
}

class SocketGroup {
 public:
  /// Sizes the group from SS_PROTOCOL and `f` (core::group_from_env, as the
  /// spawned replicas do), writes `deploy config` for it, forks `deploy
  /// replica` for every member and builds both client sides with the
  /// reactor plant's points. Throws if `deploy config` fails.
  SocketGroup(std::uint32_t f, std::uint16_t base_port,
              const std::string& deploy = {})
      : group_(core::group_from_env(f)),
        replicas_(locate_deploy(deploy), f, base_port, group_.n),
        transport_(net::Resolver::from_file(replicas_.config),
                   net::socket_options_from_env()),
        keys_(core::kGroupSecret),
        hmi_side_(transport_, group_, keys_),
        frontend_side_(transport_, group_, keys_) {
    core::reactor::add_points(frontend_side_.frontend());
  }

  const GroupConfig& group() const { return group_; }
  net::SocketTransport& transport() { return transport_; }
  scada::Hmi& hmi() { return hmi_side_.hmi(); }
  scada::Frontend& frontend() { return frontend_side_.frontend(); }

  /// Subscribes the HMI and proves both op paths end-to-end (one write, one
  /// field update), retrying for up to 30 s. False if the group never
  /// became live.
  bool warm_up() {
    scada::Hmi& hmi = this->hmi();
    hmi.subscribe_all();
    SimTime deadline = transport_.now() + seconds(30);
    while (transport_.now() < deadline) {
      bool write_done = false;
      bool write_ok = false;
      hmi.write(core::reactor::kSetpoint, scada::Variant{20.0},
                [&](const scada::WriteResult& r) {
                  write_done = true;
                  write_ok = r.status == scada::WriteStatus::kOk;
                });
      frontend().field_update(core::reactor::kTemperature,
                              scada::Variant{-1.0});
      auto live = [&] {
        return write_done && hmi.item(core::reactor::kTemperature) != nullptr;
      };
      transport_.run_until(live, seconds(2));
      if (live() && write_ok) return true;
    }
    return false;
  }

  /// SIGKILLs and reaps replica i.
  void kill_replica(std::uint32_t i) {
    pid_t& pid = replicas_.pids.at(i);
    if (pid > 0) {
      ::kill(pid, SIGKILL);
      ::waitpid(pid, nullptr, 0);
    }
    pid = -1;
  }

  /// False once replica i was killed or has exited on its own.
  bool replica_up(std::uint32_t i) {
    pid_t& pid = replicas_.pids.at(i);
    if (pid > 0 && ::waitpid(pid, nullptr, WNOHANG) == pid) pid = -1;
    return pid > 0;
  }

  /// Forks replica i again (after kill_replica).
  void spawn_replica(std::uint32_t i) {
    replicas_.pids.at(i) = replicas_.spawn(i);
  }

 private:
  /// The `deploy replica` children and their config file. Declared before
  /// the transport, so every in-process endpoint is gone before the
  /// replicas are TERMed and reaped.
  struct Replicas {
    Replicas(std::string deploy_path, std::uint32_t f_in,
             std::uint16_t base_port, std::uint32_t n)
        : deploy(std::move(deploy_path)),
          config("/tmp/smart-scada-bench-" + std::to_string(::getpid()) + "-" +
                 std::to_string(base_port) + ".conf"),
          f(std::to_string(f_in)) {
      std::string cmd = deploy + " config --f " + f + " --base-port " +
                        std::to_string(base_port);
      std::FILE* pipe = ::popen(cmd.c_str(), "r");
      if (pipe == nullptr) throw std::runtime_error("cannot run: " + cmd);
      std::string text;
      char buf[4096];
      std::size_t len;
      while ((len = std::fread(buf, 1, sizeof(buf), pipe)) > 0) {
        text.append(buf, len);
      }
      if (::pclose(pipe) != 0 || text.empty()) {
        throw std::runtime_error("`" + cmd +
                                 "` failed; pass --deploy PATH or set "
                                 "SS_DEPLOY");
      }
      std::ofstream(config) << text;
      for (std::uint32_t i = 0; i < n; ++i) pids.push_back(spawn(i));
      ::usleep(300 * 1000);  // let the replicas bind before we start asking
    }

    ~Replicas() {
      for (pid_t pid : pids) {
        if (pid > 0) ::kill(pid, SIGTERM);
      }
      for (pid_t pid : pids) {
        if (pid > 0) ::waitpid(pid, nullptr, 0);
      }
      ::unlink(config.c_str());
    }

    Replicas(const Replicas&) = delete;
    Replicas& operator=(const Replicas&) = delete;

    pid_t spawn(std::uint32_t i) const {
      pid_t pid = ::fork();
      if (pid == 0) {
        std::string id = std::to_string(i);
        const char* argv[] = {deploy.c_str(), "replica", "--id",
                              id.c_str(),     "--f",     f.c_str(),
                              "--config",     config.c_str(), nullptr};
        ::execv(deploy.c_str(), const_cast<char**>(argv));
        std::perror("execv deploy replica");
        std::_Exit(127);
      }
      return pid;
    }

    std::string deploy;
    std::string config;
    std::string f;
    std::vector<pid_t> pids;
  };

  GroupConfig group_;
  Replicas replicas_;
  net::SocketTransport transport_;
  crypto::Keychain keys_;
  core::HmiSide hmi_side_;
  core::FrontendSide frontend_side_;
};

}  // namespace ss::bench
