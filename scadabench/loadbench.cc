// scada_loadbench: one socket-mode SMaRt-SCADA deployment under open-loop
// load, measured from the outside.
//
// The process forks `deploy replica` n times (n from the protocol, exactly as
// `deploy`'s own group_from_env derives it), hosts the HMI, the Frontend and
// both component proxies itself, and drives them from one single-threaded
// load::OpenLoopDriver: virtual clients are multiplexed over the fixed proxy
// endpoints, so no client owns a socket. Modes:
//
//   fixed:  setup -> warm-up at rate -> window [-> traced window]
//           -> replica agreement check -> TERM
//   probe:  setup -> warm-up -> one step at rate, judged by the knee's pass
//           rule (see passes())
//   setup:  setup -> TERM
//
// With --durable LIB the replicas keep their WAL, checkpoints and USIG lease
// under DIR/state (SS_STATE_DIR) and run with LIB preloaded; after the
// graceful TERM their checkpoints are audited.
//
// Each run ends with one JSON line on stdout holding the raw measurements;
// run.py turns those into the benchmark's metrics. Latency is measured from
// each arrival's scheduled send time, and a failed or timed-out op is kept in
// the sample as missing every limit.
//
// Everything here sees the system from outside: spans around calls into the
// repository's public classes, /proc/<pid> of each replica, and the registry
// snapshots a replica prints on SIGUSR1 (plus the SS_DEPLOY_STATS heartbeat
// in traced windows). Nothing in src/ is instrumented for the benchmark.
//
//   scada_loadbench --deploy PATH --dir DIR --port P --op write|update
//       [--protocol pbft|minbft] [--alarm-pct P] [--mode fixed|probe|setup]
//       [--rate R] [--warmup S] [--seconds S] [--seed N] [--trace 0|1]
//       [--durable LIB]
#include <dirent.h>
#include <fcntl.h>
#include <signal.h>
#include <sys/prctl.h>
#include <sys/resource.h>
#include <sys/stat.h>
#include <sys/wait.h>
#include <unistd.h>

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <limits>
#include <map>
#include <memory>
#include <optional>
#include <sstream>
#include <stdexcept>
#include <string>
#include <vector>

#include "core/nodes.h"
#include "core/proxies.h"
#include "core/replicated_deployment.h"
#include "core/scada_link.h"
#include "crypto/hmac.h"
#include "crypto/keychain.h"
#include "load/driver.h"
#include "load/schedule.h"
#include "net/resolver.h"
#include "net/socket_transport.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "scada/frontend.h"
#include "scada/hmi.h"
#include "storage/checkpoint.h"
#include "storage/env.h"

using namespace ss;

namespace {

// Must match examples/deploy.cpp: item ids are dense by registration order.
constexpr ItemId kTemperature{1};
constexpr ItemId kSetpoint{2};
const char* kTemperatureName = "plant/reactor/temperature";
const char* kSetpointName = "plant/reactor/setpoint";
const char* kGroupSecret = "smart-scada-secret";
// Replicas run with SS_ALARM_THRESHOLD=kAlarmThreshold; every encoded alarm
// value is far above it and every normal value (negative) far below.
const char* kAlarmThreshold = "100";
constexpr double kPhaseStride = 1e9;  // value = phase * stride + index
constexpr SimTime kOpTimeout = seconds(2);
// The knee's pass rule, applied to every probe step.
constexpr double kKneeGoodput = 0.99;  ///< ok ops / scheduled, at least
constexpr double kKneeP99Ms = 100;     ///< p99 over attempted ops, at most

struct Args {
  std::string deploy;
  std::string dir;
  int port = 0;
  std::string op = "write";
  std::string protocol = "pbft";
  int alarm_pct = -1;
  double rate = 1000;
  double warmup_s = 2;
  double seconds = 5;
  std::uint64_t seed = 1;
  bool trace = false;
  std::string mode = "fixed";  ///< fixed | probe | setup
  std::string durable;  ///< preload library of durable replicas; "" = none
};

SimTime mono_ns() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

std::string read_text(const std::string& path) {
  std::ifstream in(path);
  std::stringstream ss;
  ss << in.rdbuf();
  return ss.str();
}

// ---------------------------------------------------------------------------
// /proc view of a process.

struct Cpu {
  std::int64_t run_ns = 0;     ///< on-CPU time, all threads (schedstat)
  std::int64_t sys_ticks = 0;  ///< kernel time, clock ticks (stat)
};

Cpu read_cpu(pid_t pid) {
  Cpu cpu;
  const std::string base = "/proc/" + std::to_string(pid);
  if (DIR* d = ::opendir((base + "/task").c_str())) {
    while (dirent* e = ::readdir(d)) {
      if (e->d_name[0] == '.') continue;
      std::string s = read_text(base + "/task/" + e->d_name + "/schedstat");
      cpu.run_ns += std::strtoll(s.c_str(), nullptr, 10);
    }
    ::closedir(d);
  }
  // Fields after the parenthesised command name: state is field 3, stime 15.
  std::string stat = read_text(base + "/stat");
  std::size_t close = stat.rfind(')');
  if (close != std::string::npos) {
    std::istringstream in(stat.substr(close + 2));
    std::string field;
    for (int i = 3; i <= 15 && in >> field; ++i) {
      if (i == 15) cpu.sys_ticks = std::strtoll(field.c_str(), nullptr, 10);
    }
  }
  return cpu;
}

long read_hwm_kb(pid_t pid) {
  std::istringstream in(read_text("/proc/" + std::to_string(pid) + "/status"));
  std::string line;
  while (std::getline(in, line)) {
    if (line.rfind("VmHWM:", 0) == 0) {
      return std::strtol(line.c_str() + 6, nullptr, 10);
    }
  }
  return 0;
}

// ---------------------------------------------------------------------------
// Traced transport: times each handler dispatch and each send made through
// the seam by the client-side components, and keeps the spans in memory.

class TimedTransport final : public net::Transport {
 public:
  struct Span {
    bool send = false;  ///< send call, else handler dispatch
    std::uint16_t endpoint = 0;
    SimTime begin = 0;
    SimTime end = 0;
  };

  explicit TimedTransport(net::SocketTransport& inner) : inner_(inner) {}

  void set_enabled(bool on) { enabled_ = on; }

  void attach(const std::string& name, Handler handler) override {
    const std::uint16_t id = intern(name);
    inner_.attach(name, [this, id, h = std::move(handler)](net::Message m) {
      if (!enabled_) return h(std::move(m));
      const SimTime b = mono_ns();
      h(std::move(m));
      spans_.push_back({false, id, b, mono_ns()});
    });
  }
  void detach(const std::string& name) override { inner_.detach(name); }
  bool attached(const std::string& name) const override {
    return inner_.attached(name);
  }
  void send(const std::string& from, const std::string& to,
            Bytes payload) override {
    if (!enabled_) return inner_.send(from, to, std::move(payload));
    const SimTime b = mono_ns();
    inner_.send(from, to, std::move(payload));
    spans_.push_back({true, intern(from), b, mono_ns()});
  }
  net::Timer schedule(SimTime delay, std::function<void()> action) override {
    return inner_.schedule(delay, std::move(action));
  }
  SimTime now() const override { return inner_.now(); }

  const std::vector<Span>& spans() const { return spans_; }
  const std::vector<std::string>& names() const { return names_; }

 private:
  std::uint16_t intern(const std::string& name) {
    auto it = std::find(names_.begin(), names_.end(), name);
    if (it != names_.end()) {
      return static_cast<std::uint16_t>(it - names_.begin());
    }
    names_.push_back(name);
    return static_cast<std::uint16_t>(names_.size() - 1);
  }

  net::SocketTransport& inner_;
  bool enabled_ = false;
  std::vector<Span> spans_;
  std::vector<std::string> names_;
};

// ---------------------------------------------------------------------------
// Replica processes and what they print.

/// Incremental reader of one replica's stderr log.
struct LogTail {
  std::string path;
  std::size_t offset = 0;
  std::string partial;
  bool up = false;
  int snapshots = 0;
  std::string last_snapshot;  ///< registry JSON of the newest snapshot
  int heartbeats = 0;
  std::uint64_t decided = 0;  ///< from the newest heartbeat

  void poll() {
    std::FILE* f = std::fopen(path.c_str(), "r");
    if (f == nullptr) return;
    std::fseek(f, static_cast<long>(offset), SEEK_SET);
    char buf[65536];
    std::size_t n;
    while ((n = std::fread(buf, 1, sizeof(buf), f)) > 0) {
      offset += n;
      partial.append(buf, n);
    }
    std::fclose(f);
    std::size_t start = 0;
    for (std::size_t nl; (nl = partial.find('\n', start)) != std::string::npos;
         start = nl + 1) {
      line(std::string_view(partial).substr(start, nl - start));
    }
    partial.erase(0, start);
  }

  void line(std::string_view l) {
    if (l.find("] up") != std::string_view::npos) up = true;
    if (std::size_t p = l.find("metrics snapshot: ");
        p != std::string_view::npos) {
      ++snapshots;
      last_snapshot = std::string(l.substr(p + 18));
    }
    if (std::size_t p = l.find(" decided="); p != std::string_view::npos) {
      ++heartbeats;
      decided = std::strtoull(std::string(l.substr(p + 9)).c_str(), nullptr,
                              10);
    }
  }
};

/// Value of "<field>" inside the "<source>" object of a registry snapshot.
double source_field(const std::string& json, const std::string& source,
                    const std::string& field) {
  std::size_t p = json.find("\"" + source + "\":{");
  if (p == std::string::npos) return 0;
  p = json.find("\"" + field + "\":", p);
  if (p == std::string::npos) return 0;
  return std::strtod(json.c_str() + p + field.size() + 3, nullptr);
}

/// All "master.<name>":<value> fields of a registry snapshot, in order.
std::vector<std::pair<std::string, double>> master_counters(
    const std::string& json) {
  std::vector<std::pair<std::string, double>> out;
  for (std::size_t p = json.find("\"master."); p != std::string::npos;
       p = json.find("\"master.", p + 1)) {
    std::size_t q = json.find('"', p + 1);
    if (q == std::string::npos || q + 1 >= json.size() || json[q + 1] != ':') {
      continue;
    }
    out.emplace_back(json.substr(p + 1, q - p - 1),
                     std::strtod(json.c_str() + q + 2, nullptr));
  }
  return out;
}

class Replicas {
 public:
  Replicas(const Args& args, const GroupConfig& group) : args_(args) {
    config_ = args.dir + "/group.conf";
    std::string cmd = "'" + args.deploy + "' config --f 1 --base-port " +
                      std::to_string(args.port);
    std::FILE* pipe = ::popen(cmd.c_str(), "r");
    if (pipe == nullptr) throw std::runtime_error("cannot run " + cmd);
    std::string text;
    char buf[4096];
    for (std::size_t n; (n = std::fread(buf, 1, sizeof(buf), pipe)) > 0;) {
      text.append(buf, n);
    }
    if (::pclose(pipe) != 0 || text.empty()) {
      throw std::runtime_error("`" + cmd + "` failed");
    }
    std::ofstream(config_) << text;
    for (std::uint32_t i = 0; i < group.n; ++i) {
      logs_.emplace_back();
      logs_.back().path = args.dir + "/replica-" + std::to_string(i) + ".log";
      // Truncated here, before any poll, so a previous run's log is never
      // read as this one's.
      std::ofstream(logs_.back().path, std::ios::trunc);
    }
  }

  ~Replicas() { terminate(); }

  const std::string& config() const { return config_; }
  std::size_t size() const { return logs_.size(); }
  LogTail& log(std::size_t i) { return logs_[i]; }

  void spawn() {
    for (std::size_t i = 0; i < logs_.size(); ++i) {
      const std::string id = std::to_string(i);
      const std::string& log = logs_[i].path;
      const pid_t parent = ::getpid();
      pid_t pid = ::fork();
      if (pid == 0) {
        // A replica must not outlive this process, however it ends.
        ::prctl(PR_SET_PDEATHSIG, SIGKILL);
        if (::getppid() != parent) std::_Exit(1);
        int fd = ::open(log.c_str(), O_WRONLY | O_APPEND);
        if (fd >= 0) ::dup2(fd, STDERR_FILENO);
        if (!args_.durable.empty()) {
          ::setenv("LD_PRELOAD", args_.durable.c_str(), 1);
        }
        const char* argv[] = {args_.deploy.c_str(), "replica", "--id",
                              id.c_str(), "--f", "1", "--config",
                              config_.c_str(), nullptr};
        ::execv(args_.deploy.c_str(), const_cast<char**>(argv));
        std::_Exit(127);
      }
      if (pid < 0) throw std::runtime_error("fork failed");
      pids_.push_back(pid);
    }
  }

  /// Polls the logs until every replica printed its "up" line.
  bool wait_up(SimTime timeout) {
    return poll_until([&](LogTail& l) { return l.up; }, timeout);
  }

  /// SIGUSR1 to every replica; waits for the snapshot line (and with
  /// `heartbeat`, a fresh SS_DEPLOY_STATS line). Returns false on timeout.
  bool snapshot(bool heartbeat, net::SocketTransport& transport) {
    std::vector<int> snaps, beats;
    for (LogTail& l : logs_) {
      l.poll();
      snaps.push_back(l.snapshots);
      beats.push_back(l.heartbeats);
    }
    for (pid_t pid : pids_) ::kill(pid, SIGUSR1);
    const SimTime deadline = mono_ns() + seconds(5);
    while (mono_ns() < deadline) {
      // Keep serving the client side while waiting (stray replies).
      transport.poll_once(millis(10));
      bool all = true;
      for (std::size_t i = 0; i < logs_.size(); ++i) {
        LogTail& l = logs_[i];
        l.poll();
        all = all && l.snapshots > snaps[i] &&
              (!heartbeat || l.heartbeats > beats[i]);
      }
      if (all) return true;
    }
    return false;
  }

  Cpu cpu(std::size_t i) const { return read_cpu(pids_[i]); }
  long hwm_kb() const {
    long kb = 0;
    for (pid_t pid : pids_) kb += read_hwm_kb(pid);
    return kb;
  }

  /// Graceful TERM, then KILL whatever has not exited within the grace
  /// period.
  bool terminate() {
    bool clean = true;
    for (pid_t pid : pids_) ::kill(pid, SIGTERM);
    const SimTime deadline = mono_ns() + seconds(5);
    for (pid_t pid : pids_) {
      int status = 0;
      while (::waitpid(pid, &status, WNOHANG) == 0) {
        if (mono_ns() > deadline) {
          ::kill(pid, SIGKILL);
          ::waitpid(pid, &status, 0);
          clean = false;
          break;
        }
        ::usleep(2000);
      }
      if (!WIFEXITED(status) || WEXITSTATUS(status) != 0) clean = false;
    }
    pids_.clear();
    return clean;
  }

 private:
  template <typename Pred>
  bool poll_until(Pred pred, SimTime timeout) {
    const SimTime deadline = mono_ns() + timeout;
    while (mono_ns() < deadline) {
      bool all = true;
      for (LogTail& l : logs_) {
        l.poll();
        all = all && pred(l);
      }
      if (all) return true;
      ::usleep(1000);
    }
    return false;
  }

  const Args& args_;
  std::string config_;
  std::vector<pid_t> pids_;
  std::vector<LogTail> logs_;
};

// ---------------------------------------------------------------------------
// The client side: HMI + ProxyHMI and Frontend + ProxyFrontend, wired as
// `deploy hmi` / `deploy frontend` wire them, minus the RTU (writes apply
// locally at the Frontend; the field bus is not under test).

struct ClientSide {
  ClientSide(const std::string& config, const GroupConfig& group)
      : socket(net::Resolver::from_file(config), net::socket_options_from_env()),
        timed(socket),
        keys(kGroupSecret),
        hmi(scada::HmiOptions{.subscriber_name = core::kHmiEndpoint}),
        hmi_proxy(timed, group, ClientId{core::kProxyHmiClient}, keys,
                  proxy_options(core::kProxyHmiEndpoint, core::kHmiEndpoint)),
        hmi_node(timed, keys, hmi,
                 core::NodeOptions{.endpoint = core::kHmiEndpoint,
                                   .peer = core::kProxyHmiEndpoint}),
        frontend(scada::FrontendOptions{.instance_id = 1}),
        frontend_proxy(timed, group, ClientId{core::kProxyFrontendClient},
                       keys,
                       proxy_options(core::kProxyFrontendEndpoint,
                                     core::kFrontendEndpoint)),
        frontend_node(timed, keys, frontend,
                      core::NodeOptions{.endpoint = core::kFrontendEndpoint,
                                        .peer =
                                            core::kProxyFrontendEndpoint}) {
    frontend.add_item(kTemperatureName);
    frontend.add_item(kSetpointName, scada::Variant{20.0});
  }

  static core::ProxyOptions proxy_options(const char* endpoint,
                                          const char* component) {
    core::ProxyOptions o;
    o.endpoint = endpoint;
    o.component_endpoint = component;
    return o;
  }

  net::SocketTransport socket;
  TimedTransport timed;
  crypto::Keychain keys;
  scada::Hmi hmi;
  core::ComponentProxy hmi_proxy;
  core::HmiNode hmi_node;
  scada::Frontend frontend;
  core::ComponentProxy frontend_proxy;
  core::FrontendNode frontend_node;
};

// ---------------------------------------------------------------------------
// One open-loop phase: schedule, issue, match completions back to arrivals.

struct Phase {
  int id = 0;
  std::string op;
  int alarm_pct = -1;
  load::ScheduleOptions schedule_opt;
  std::vector<load::Arrival> arrivals;
  std::vector<SimTime> done_at;  ///< first successful completion, 0 = none
  std::vector<std::uint8_t> events;  ///< EventUpdates seen per arrival
  std::uint64_t duplicates = 0;
  std::uint64_t event_duplicates = 0;
  std::uint64_t alarms = 0;
  SimTime epoch = 0;

  bool alarm(std::uint64_t index) const {
    if (alarm_pct < 0) return false;
    const auto pct = static_cast<std::uint64_t>(alarm_pct);
    return (index + 1) * pct / 100 != index * pct / 100;
  }
  double value(std::uint64_t index) const {
    double v = id * kPhaseStride + static_cast<double>(index);
    return alarm(index) ? v : -v;
  }
};

/// Decodes the phase and arrival index an update or event value encodes.
struct Decoded {
  int phase = 0;
  std::uint64_t index = 0;
  bool positive = false;
};
std::optional<Decoded> decode_value(double raw) {
  double mag = std::fabs(raw);
  if (mag < kPhaseStride) return std::nullopt;
  Decoded d;
  d.phase = static_cast<int>(mag / kPhaseStride);
  d.index = static_cast<std::uint64_t>(mag - d.phase * kPhaseStride);
  d.positive = raw > 0;
  return d;
}

struct PhaseResult {
  load::DriverStats stats;
  std::vector<double> lat_ms;  ///< per arrival; +inf = failed or timed out
  std::vector<double> sched_s; ///< scheduled send time of each arrival
  std::int64_t send_lag_p99_ns = 0;
};

struct Checks {
  std::uint64_t unmatched_updates = 0;  ///< matched no scheduled arrival
  std::uint64_t unmatched_events = 0;
  std::uint64_t wrong_sign = 0;  ///< alarm/normal value crossed over
  std::vector<std::string> failures;
};

class Bench {
 public:
  Bench(const Args& args)
      : args_(args),
        group_(GroupConfig::for_protocol(parse_protocol(args.protocol), 1)) {
    ::setenv("SS_PROTOCOL", args.protocol.c_str(), 1);
    if (args.alarm_pct >= 0) ::setenv("SS_ALARM_THRESHOLD", kAlarmThreshold, 1);
    if (args.trace) ::setenv("SS_DEPLOY_STATS", "1", 1);
    if (!args.durable.empty()) {
      ::setenv("SS_STATE_DIR", (args.dir + "/state").c_str(), 1);
    }
  }

  /// Spawn until the first write and the first update have round-tripped.
  double setup() {
    replicas_ = std::make_unique<Replicas>(args_, group_);
    const SimTime t0 = mono_ns();
    replicas_->spawn();
    if (!replicas_->wait_up(seconds(20))) {
      throw std::runtime_error("replicas never printed their up line");
    }
    client_ = std::make_unique<ClientSide>(replicas_->config(), group_);
    scada::Hmi& hmi = client_->hmi;
    hmi.set_update_callback([this](const scada::ItemUpdate& u) { on_update(u); });
    hmi.set_event_callback([this](const scada::EventUpdate& e) { on_event(e); });
    hmi.subscribe_all();
    bool write_ok = false;
    bool write_done = false;
    hmi.write(kSetpoint, scada::Variant{20.0}, [&](const scada::WriteResult& r) {
      write_done = true;
      write_ok = r.status == scada::WriteStatus::kOk;
    });
    client_->frontend.field_update(kTemperature, scada::Variant{-1.0});
    client_->socket.run_until(
        [&] { return write_done && setup_update_seen_; }, seconds(20));
    if (!write_ok || !setup_update_seen_) {
      throw std::runtime_error("first write/update round trip never completed");
    }
    return static_cast<double>(mono_ns() - t0) / 1e9;
  }

  /// Runs `p` to completion. The phase stays owned by the bench: replies
  /// that arrive after it ended still find it (and count as late, or as
  /// duplicates).
  std::pair<Phase&, PhaseResult> run_phase(Phase p) {
    Phase& phase = phases_.insert_or_assign(p.id, std::move(p)).first->second;
    phase.arrivals = load::generate_schedule(phase.schedule_opt);
    phase.done_at.assign(phase.arrivals.size(), 0);
    phase.events.assign(phase.arrivals.size(), 0);
    for (const load::Arrival& a : phase.arrivals) phase.alarms += phase.alarm(a.index);
    load::DriverOptions opt;
    opt.op_timeout = kOpTimeout;
    opt.metrics_prefix = "bench.phase" + std::to_string(phase.id);
    scada::Hmi& hmi = client_->hmi;
    scada::Frontend& frontend = client_->frontend;
    load::OpenLoopDriver driver(
        client_->timed, phase.arrivals,
        [&](const load::Arrival& a, load::OpenLoopDriver::CompletionFn done) {
          const std::uint64_t index = a.index;
          if (phase.op == "write") {
            hmi.write(kSetpoint,
                      scada::Variant{21.0 + static_cast<double>(index % 64)},
                      [this, &phase, index, done](const scada::WriteResult& r) {
                        const bool ok = r.status == scada::WriteStatus::kOk;
                        if (ok) mark_done(phase, index);
                        done(ok);
                      });
          } else {
            pending_done_[phase.id].resize(phase.arrivals.size());
            pending_done_[phase.id][index] = std::move(done);
            frontend.field_update(kTemperature,
                                  scada::Variant{phase.value(index)});
          }
        },
        opt);
    driver.start();
    phase.epoch = driver.epoch();
    const SimTime deadline = client_->socket.now() +
                             phase.schedule_opt.duration + kOpTimeout +
                             seconds(5);
    while (!driver.finished() && client_->socket.now() < deadline) {
      client_->socket.run_until([&] { return driver.finished(); }, millis(100));
    }
    PhaseResult r;
    r.stats = driver.stats();
    r.send_lag_p99_ns = driver.send_lag().percentile(99);
    const double inf = std::numeric_limits<double>::infinity();
    for (const load::Arrival& a : phase.arrivals) {
      const SimTime due = phase.epoch + a.at;
      const SimTime done = phase.done_at[a.index];
      const bool in_time = done != 0 && done - due <= kOpTimeout;
      r.lat_ms.push_back(in_time ? static_cast<double>(done - due) / 1e6 : inf);
      r.sched_s.push_back(static_cast<double>(a.at) / 1e9);
    }
    pending_done_.erase(phase.id);
    return {phase, std::move(r)};
  }

  Replicas& replicas() { return *replicas_; }
  ClientSide& client() { return *client_; }
  Checks& checks() { return checks_; }

  /// Tears the client side down before the replicas go away.
  void close_client() { client_.reset(); }

 private:
  void mark_done(Phase& phase, std::uint64_t index) {
    if (phase.done_at[index] != 0) {
      ++phase.duplicates;
      return;
    }
    phase.done_at[index] = client_->socket.now();
  }

  void on_update(const scada::ItemUpdate& u) {
    if (u.item != kTemperature) return;
    const double raw = u.value.as_double();
    if (raw == -1.0) {
      setup_update_seen_ = true;
      return;
    }
    std::optional<Decoded> d = decode_value(raw);
    auto it = d ? phases_.find(d->phase) : phases_.end();
    if (it == phases_.end() || d->index >= it->second.arrivals.size()) {
      ++checks_.unmatched_updates;
      return;
    }
    Phase& phase = it->second;
    if (d->positive != phase.alarm(d->index)) ++checks_.wrong_sign;
    mark_done(phase, d->index);
    auto pending = pending_done_.find(phase.id);
    if (pending != pending_done_.end() && d->index < pending->second.size() &&
        pending->second[d->index]) {
      auto done = std::move(pending->second[d->index]);
      pending->second[d->index] = nullptr;
      done(true);
    }
  }

  void on_event(const scada::EventUpdate& e) {
    std::optional<Decoded> d = decode_value(e.event.value.as_double());
    auto it = d ? phases_.find(d->phase) : phases_.end();
    // Logical write timeouts raise events on the setpoint; only the
    // temperature Monitor's alarms map to arrivals.
    if (e.event.item != kTemperature) return;
    if (it == phases_.end() || d->index >= it->second.arrivals.size() ||
        !it->second.alarm(d->index) || !d->positive) {
      ++checks_.unmatched_events;
      return;
    }
    Phase& phase = it->second;
    if (phase.events[d->index]++ > 0) ++phase.event_duplicates;
  }

  const Args& args_;
  GroupConfig group_;
  std::unique_ptr<Replicas> replicas_;
  std::unique_ptr<ClientSide> client_;
  std::map<int, Phase> phases_;  // node-stable: callbacks hold references
  std::map<int, std::vector<load::OpenLoopDriver::CompletionFn>> pending_done_;
  bool setup_update_seen_ = false;
  Checks checks_;
};

// ---------------------------------------------------------------------------
// Output helpers.

double percentile(std::vector<double> v, double p) {
  if (v.empty()) return 0;
  std::sort(v.begin(), v.end());
  // Nearest rank.
  std::size_t rank = static_cast<std::size_t>(
      std::ceil(p / 100.0 * static_cast<double>(v.size())));
  return v[std::min(v.size() - 1, rank == 0 ? 0 : rank - 1)];
}

std::string num(double v) {
  if (std::isinf(v)) return "1e300";
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.9g", v);
  return buf;
}

struct Json {
  std::string s = "{";
  void key(const std::string& k) {
    if (s.size() > 1) s += ',';
    s += '"' + k + "\":";
  }
  void add(const std::string& k, double v) {
    key(k);
    s += num(v);
  }
  void add_raw(const std::string& k, const std::string& raw) {
    key(k);
    s += raw;
  }
  std::string done() { return s + "}"; }
};

std::string num_list(const std::vector<double>& v) {
  std::string s = "[";
  for (std::size_t i = 0; i < v.size(); ++i) {
    if (i) s += ',';
    s += num(v[i]);
  }
  return s + "]";
}

/// Latency summary over every attempted op, plus the p99 of consecutive
/// slices of the same samples (by scheduled send time) for run.py's median.
/// A slice holds ~1200 arrivals, so its p99 has at least ten samples beyond.
void add_latency(Json& j, const std::string& prefix, const PhaseResult& r,
                 double duration_s) {
  j.add(prefix + "p50_ms", percentile(r.lat_ms, 50));
  j.add(prefix + "p99_ms", percentile(r.lat_ms, 99));
  j.add(prefix + "p999_ms", percentile(r.lat_ms, 99.9));
  const std::size_t slices = std::max<std::size_t>(1, r.lat_ms.size() / 1200);
  const double width = duration_s / static_cast<double>(slices);
  std::vector<std::vector<double>> slice(slices);
  for (std::size_t i = 0; i < r.lat_ms.size(); ++i) {
    const auto k = static_cast<std::size_t>(r.sched_s[i] / width);
    slice[std::min(k, slices - 1)].push_back(r.lat_ms[i]);
  }
  std::vector<double> p99s;
  for (const std::vector<double>& s : slice) {
    if (s.size() >= 1000) p99s.push_back(percentile(s, 99));
  }
  j.add_raw(prefix + "p99_slices", num_list(p99s));
  j.add(prefix + "scheduled", static_cast<double>(r.stats.scheduled));
  j.add(prefix + "ok", static_cast<double>(r.stats.ok));
  j.add(prefix + "failed", static_cast<double>(r.stats.failed));
  j.add(prefix + "timeouts", static_cast<double>(r.stats.timeouts));
  j.add(prefix + "send_lag_p99_us",
        static_cast<double>(r.send_lag_p99_ns) / 1e3);
}

/// Window-level measurements taken from outside at the window's edges.
struct Edge {
  std::vector<Cpu> replica;
  std::int64_t self_ns = 0;
  std::int64_t self_sys_us = 0;
  net::SocketStats net;
  bft::ClientStats hmi_client, fe_client;
};

Edge take_edge(Bench& b) {
  Edge e;
  for (std::size_t i = 0; i < b.replicas().size(); ++i) {
    e.replica.push_back(b.replicas().cpu(i));
  }
  e.self_ns = read_cpu(::getpid()).run_ns;
  rusage ru{};
  ::getrusage(RUSAGE_SELF, &ru);
  e.self_sys_us = ru.ru_stime.tv_sec * 1000000LL + ru.ru_stime.tv_usec;
  e.net = b.client().socket.stats();
  e.hmi_client = b.client().hmi_proxy.client_stats();
  e.fe_client = b.client().frontend_proxy.client_stats();
  return e;
}

void add_window(Json& j, const std::string& prefix, const Edge& a,
                const Edge& b) {
  std::vector<double> cpu_ms, sys_ticks;
  for (std::size_t i = 0; i < a.replica.size(); ++i) {
    cpu_ms.push_back(
        static_cast<double>(b.replica[i].run_ns - a.replica[i].run_ns) / 1e6);
    sys_ticks.push_back(
        static_cast<double>(b.replica[i].sys_ticks - a.replica[i].sys_ticks));
  }
  j.add_raw(prefix + "replica_cpu_ms", num_list(cpu_ms));
  j.add_raw(prefix + "replica_sys_ticks", num_list(sys_ticks));
  j.add(prefix + "driver_cpu_ms", static_cast<double>(b.self_ns - a.self_ns) / 1e6);
  j.add(prefix + "driver_sys_ms",
        static_cast<double>(b.self_sys_us - a.self_sys_us) / 1e3);
  j.add(prefix + "driver_msgs_sent",
        static_cast<double>(b.net.messages_sent - a.net.messages_sent));
  j.add(prefix + "driver_bytes_sent",
        static_cast<double>(b.net.bytes_sent - a.net.bytes_sent));
  j.add(prefix + "driver_rx_batches",
        static_cast<double>(b.net.rx_batches - a.net.rx_batches));
  j.add(prefix + "driver_datagrams_received",
        static_cast<double>(b.net.datagrams_received - a.net.datagrams_received));
  j.add(prefix + "ordered_requests",
        static_cast<double>(b.hmi_client.invoked + b.fe_client.invoked -
                            a.hmi_client.invoked - a.fe_client.invoked));
  j.add(prefix + "retransmissions",
        static_cast<double>(b.hmi_client.retransmissions +
                            b.fe_client.retransmissions -
                            a.hmi_client.retransmissions -
                            a.fe_client.retransmissions));
}

void add_snapshots(Json& j, const std::string& prefix, Bench& b) {
  std::string s = "[";
  std::vector<double> decided;
  for (std::size_t i = 0; i < b.replicas().size(); ++i) {
    if (i) s += ',';
    const std::string& snap = b.replicas().log(i).last_snapshot;
    s += snap.empty() ? "null" : snap;
    decided.push_back(static_cast<double>(b.replicas().log(i).decided));
  }
  j.add_raw(prefix + "snapshots", s + "]");
  j.add_raw(prefix + "decided", num_list(decided));
}

/// Median ns of one HMAC-SHA256 over `size` bytes (direct call).
double hmac_ns(std::size_t size) {
  Bytes key(32, 0x5a);
  Bytes msg(size, 0xa5);
  std::vector<double> samples;
  for (int rep = 0; rep < 15; ++rep) {
    constexpr int kCalls = 2000;
    const SimTime t0 = mono_ns();
    for (int i = 0; i < kCalls; ++i) {
      msg[0] = static_cast<std::uint8_t>(i);
      crypto::Digest d = crypto::hmac_sha256(key, msg);
      key[1] ^= d[0];
    }
    samples.push_back(static_cast<double>(mono_ns() - t0) / kCalls);
  }
  return percentile(samples, 50);
}

int usage() {
  std::fprintf(stderr,
               "usage: scada_loadbench --deploy PATH --dir DIR --port P\n"
               "         --op write|update [--protocol pbft|minbft]\n"
               "         [--alarm-pct P]\n"
               "         [--mode fixed|probe|setup] [--rate R] [--warmup S]\n"
               "         [--seconds S] [--seed N] [--trace 0|1]\n"
               "         [--durable LIB]\n");
  return 2;
}

/// Quiesces, then asks every replica for a snapshot until their master.*
/// counters agree: the same SCADA history executed everywhere.
bool replicas_agree(Bench& bench, int attempts) {
  ClientSide& c = bench.client();
  for (int attempt = 0; attempt < attempts; ++attempt) {
    c.socket.run_until([] { return false; }, millis(100 * (attempt + 1)));
    if (!bench.replicas().snapshot(false, c.socket)) continue;
    auto ref = master_counters(bench.replicas().log(0).last_snapshot);
    bool same = !ref.empty();
    for (std::size_t i = 1; i < bench.replicas().size(); ++i) {
      same = same &&
             master_counters(bench.replicas().log(i).last_snapshot) == ref;
    }
    if (same) return true;
  }
  return false;
}

/// Per-phase checks that hold at any load: exact accounting and no op or
/// alarm event delivered twice.
void check_phase(const Phase& phase, const PhaseResult& r, Checks& checks) {
  if (phase.duplicates > 0) {
    checks.failures.push_back(std::to_string(phase.duplicates) +
                              " ops completed twice");
  }
  if (phase.event_duplicates > 0) {
    checks.failures.push_back(std::to_string(phase.event_duplicates) +
                              " alarm events delivered twice");
  }
  const load::DriverStats& s = r.stats;
  if (s.ok + s.failed + s.timeouts != s.scheduled) {
    checks.failures.push_back("ok + failed + timeouts != scheduled");
  }
}

void add_events(Json& j, const std::string& prefix, const Phase& phase) {
  std::uint64_t events = 0;
  for (std::uint8_t e : phase.events) events += e;
  j.add(prefix + "alarms", static_cast<double>(phase.alarms));
  j.add(prefix + "events", static_cast<double>(events));
}

/// Writes the in-memory client-side spans (send calls, handler dispatches,
/// and each op from scheduled send to completion) and returns the mean send
/// call time in microseconds.
double write_spans(const std::string& path, const TimedTransport& timed,
                   const Phase& phase) {
  if (std::FILE* out = std::fopen(path.c_str(), "w")) {
    std::fprintf(out, "kind,name,begin_ns,end_ns\n");
    for (const TimedTransport::Span& sp : timed.spans()) {
      std::fprintf(out, "%s,%s,%lld,%lld\n", sp.send ? "send" : "dispatch",
                   timed.names()[sp.endpoint].c_str(),
                   static_cast<long long>(sp.begin),
                   static_cast<long long>(sp.end));
    }
    for (const load::Arrival& a : phase.arrivals) {
      std::fprintf(out, "op,%llu,%lld,%lld\n",
                   static_cast<unsigned long long>(a.index),
                   static_cast<long long>(phase.epoch + a.at),
                   static_cast<long long>(phase.done_at[a.index]));
    }
    std::fclose(out);
  }
  double send_ns = 0, sends = 0;
  for (const TimedTransport::Span& sp : timed.spans()) {
    if (!sp.send) continue;
    send_ns += static_cast<double>(sp.end - sp.begin);
    ++sends;
  }
  return sends > 0 ? send_ns / sends / 1e3 : 0;
}

std::string histograms_json() {
  std::string out = "{";
  obs::Registry::instance().for_each_histogram(
      [&](const std::string& name, const obs::Histogram& h) {
        if (out.size() > 1) out += ',';
        out += "\"" + name + "\":{\"count\":" +
               num(static_cast<double>(h.count())) + ",\"mean\":" +
               num(h.mean()) + ",\"p50\":" +
               num(static_cast<double>(h.percentile(50))) + ",\"p99\":" +
               num(static_cast<double>(h.percentile(99))) + "}";
      });
  return out + "}";
}

class Run {
 public:
  Run(const Args& args) : args_(args), bench_(args) {}

  int main() {
    j_.add("setup_s", bench_.setup());
    if (args_.mode == "fixed") fixed();
    if (args_.mode == "probe") probe();
    bench_.close_client();
    if (!bench_.replicas().terminate()) fail("a replica exited uncleanly");
    if (!args_.durable.empty() && args_.mode != "setup") audit_checkpoints();
    if (args_.trace) probes();
    Checks& c = bench_.checks();
    if (c.unmatched_updates > 0) fail("HMI update matched no arrival");
    if (c.unmatched_events > 0) fail("alarm event matched no alarm arrival");
    if (c.wrong_sign > 0) fail("update value crossed alarm/normal");
    std::string failures = "[";
    for (std::size_t i = 0; i < c.failures.size(); ++i) {
      if (i) failures += ',';
      failures += "\"" + c.failures[i] + "\"";
    }
    j_.add_raw("failures", failures + "]");
    std::printf("%s\n", j_.done().c_str());
    return 0;
  }

 private:
  void fail(const std::string& what) { bench_.checks().failures.push_back(what); }

  Phase make_phase(int id, double rate, double seconds) {
    Phase p;
    p.id = id;
    p.op = args_.op;
    p.alarm_pct = args_.alarm_pct;
    p.schedule_opt.shape = load::ArrivalShape::kPoisson;
    p.schedule_opt.rate_per_sec = rate;
    p.schedule_opt.duration = static_cast<SimTime>(seconds * 1e9);
    p.schedule_opt.clients = 1000;
    p.schedule_opt.seed = args_.seed * 7919 + static_cast<std::uint64_t>(id);
    return p;
  }

  /// Discarded at-rate warm-up: a new deployment's first seconds show tail
  /// latencies many times the steady state.
  void warm_up(double rate) {
    auto [warm, r] = bench_.run_phase(make_phase(1, rate, args_.warmup_s));
    check_phase(warm, r, bench_.checks());
    add_latency(j_, "warmup.", r, args_.warmup_s);
  }

  /// Fixed rate: warm-up, one window (and with --trace a second, traced
  /// one), then the replica agreement check and peak RSS.
  void fixed() {
    warm_up(args_.rate);
    const int windows = args_.trace ? 2 : 1;
    for (int w = 1; w <= windows; ++w) {
      const bool traced = args_.trace && w == 2;
      const std::string prefix = "w" + std::to_string(w) + ".";
      ClientSide& c = bench_.client();
      if (traced) {
        if (!bench_.replicas().snapshot(true, c.socket)) {
          fail("window-start snapshot timed out");
        }
        add_snapshots(j_, prefix + "start.", bench_);
        obs::Registry::instance().reset();
        obs::Tracer::instance().set_clock([&c] { return c.socket.now(); });
        c.timed.set_enabled(true);
      }
      Edge a = take_edge(bench_);
      auto [phase, r] = bench_.run_phase(make_phase(1 + w, args_.rate,
                                                    args_.seconds));
      Edge b = take_edge(bench_);
      check_phase(phase, r, bench_.checks());
      add_latency(j_, prefix, r, args_.seconds);
      add_window(j_, prefix, a, b);
      add_events(j_, prefix, phase);
      if (traced) {
        c.timed.set_enabled(false);
        obs::Tracer::instance().set_clock(nullptr);
        if (!bench_.replicas().snapshot(true, c.socket)) {
          fail("window-end snapshot timed out");
        }
        add_snapshots(j_, prefix + "end.", bench_);
        j_.add_raw(prefix + "driver_histograms", histograms_json());
        j_.add(prefix + "send_call_us_mean",
               write_spans(args_.dir + "/spans.csv", c.timed, phase));
      }
    }
    if (!replicas_agree(bench_, 10)) {
      fail("replicas disagree on master.* counters");
    }
    j_.add("peak_rss_kb", static_cast<double>(bench_.replicas().hwm_kb()));
  }

  /// The knee's pass rule: no timeouts or failures, goodput of at least
  /// kKneeGoodput and a p99 over attempted ops of at most kKneeP99Ms.
  static bool passes(const PhaseResult& r) {
    const load::DriverStats& s = r.stats;
    return s.timeouts == 0 && s.failed == 0 &&
           static_cast<double>(s.ok) >=
               kKneeGoodput * static_cast<double>(s.scheduled) &&
           percentile(r.lat_ms, 99) <= kKneeP99Ms;
  }

  /// One knee probe: warm-up, then one step of --seconds at --rate, judged
  /// by passes(). The agreement check gates only a step that passed (past
  /// the knee the group may still be draining or, see ROADMAP item 1,
  /// wedged).
  void probe() {
    warm_up(args_.rate);
    auto [phase, r] = bench_.run_phase(make_phase(2, args_.rate,
                                                  args_.seconds));
    check_phase(phase, r, bench_.checks());
    const bool pass = passes(r);
    Json step;
    step.add("rate", args_.rate);
    step.add("pass", pass ? 1 : 0);
    add_latency(step, "", r, args_.seconds);
    j_.add_raw("step", step.done());
    if (pass && !replicas_agree(bench_, 10)) {
      fail("replicas disagree on master.* counters");
    }
  }

  /// Direct-call probes for the per-layer view, run after the replicas have
  /// exited so nothing competes with them.
  void probes() {
    double bytes = 0, msgs = 0;
    for (std::size_t i = 0; i < bench_.replicas().size(); ++i) {
      const std::string& snap = bench_.replicas().log(i).last_snapshot;
      bytes += source_field(snap, "transport", "bytes_sent");
      msgs += source_field(snap, "transport", "messages_sent");
    }
    const std::size_t mean_size =
        msgs > 0 ? static_cast<std::size_t>(bytes / msgs) : 256;
    j_.add("hmac_msg_bytes", static_cast<double>(mean_size));
    j_.add("hmac_msg_ns", hmac_ns(mean_size));
    j_.add("hmac_1k_ns", hmac_ns(1024));
  }

  /// After the graceful TERM every durable replica must have left a
  /// loadable checkpoint, and checkpoints at the same cid must carry the
  /// same application digest. Read-only (load_read_only), like deploy's own
  /// audit of its state directories.
  void audit_checkpoints() {
    storage::PosixEnv env;
    std::map<std::uint64_t, crypto::Digest> by_cid;
    std::vector<double> cids;
    int matched = 0;
    for (std::size_t i = 0; i < bench_.replicas().size(); ++i) {
      const std::string dir =
          args_.dir + "/state/replica-" + std::to_string(i);
      std::optional<storage::Checkpoint> ckpt =
          storage::CheckpointStore(env, dir).load_read_only();
      if (!ckpt) {
        fail("replica " + std::to_string(i) + " left no loadable checkpoint");
        continue;
      }
      cids.push_back(static_cast<double>(ckpt->cid.value));
      auto [it, inserted] =
          by_cid.try_emplace(ckpt->cid.value, ckpt->app_digest);
      if (inserted) continue;
      if (it->second == ckpt->app_digest) {
        ++matched;
      } else {
        fail("checkpoint digests differ at cid " +
             std::to_string(ckpt->cid.value));
      }
    }
    j_.add_raw("checkpoint_cids", num_list(cids));
    j_.add("checkpoint_matches", matched);
  }

  const Args& args_;
  Bench bench_;
  Json j_;
};

}  // namespace

int main(int argc, char** argv) {
  Args args;
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    if (i + 1 >= argc) return usage();
    const char* v = argv[++i];
    if (flag == "--deploy") args.deploy = v;
    else if (flag == "--dir") args.dir = v;
    else if (flag == "--port") args.port = std::atoi(v);
    else if (flag == "--op") args.op = v;
    else if (flag == "--protocol") args.protocol = v;
    else if (flag == "--alarm-pct") args.alarm_pct = std::atoi(v);
    else if (flag == "--mode") args.mode = v;
    else if (flag == "--rate") args.rate = std::strtod(v, nullptr);
    else if (flag == "--warmup") args.warmup_s = std::strtod(v, nullptr);
    else if (flag == "--seconds") args.seconds = std::strtod(v, nullptr);
    else if (flag == "--seed") args.seed = std::strtoull(v, nullptr, 10);
    else if (flag == "--trace") args.trace = std::atoi(v) != 0;
    else if (flag == "--durable") args.durable = v;
    else return usage();
  }
  if (args.deploy.empty() || args.dir.empty() || args.port <= 0 ||
      (args.op != "write" && args.op != "update") || args.rate <= 0 ||
      (args.mode != "fixed" && args.mode != "probe" && args.mode != "setup") ||
      (args.protocol != "pbft" && args.protocol != "minbft")) {
    return usage();
  }
  try {
    return Run(args).main();
  } catch (const std::exception& e) {
    std::fprintf(stderr, "scada_loadbench: %s\n", e.what());
    return 1;
  }
}
