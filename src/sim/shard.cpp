#include "sim/shard.hpp"

#include <signal.h>
#include <string.h>
#include <unistd.h>

#include <algorithm>
#include <chrono>
#include <deque>
#include <istream>
#include <memory>
#include <ostream>
#include <stdexcept>
#include <thread>
#include <utility>

#include "core/objective.hpp"
#include "obs/obs.hpp"
#include "obs/trace.hpp"
#include "util/log.hpp"
#include "util/socket.hpp"
#include "util/subprocess.hpp"

namespace haste::sim {

namespace {

using util::Json;

// 64-bit integers travel as decimal strings: JSON numbers are doubles and
// would silently round seeds and counters above 2^53.
Json u64_json(std::uint64_t value) { return Json(std::to_string(value)); }

std::uint64_t u64_from(const Json& json) {
  const std::string& text = json.as_string();
  std::size_t consumed = 0;
  const std::uint64_t value = std::stoull(text, &consumed, 10);
  if (consumed != text.size()) throw util::JsonError("malformed u64: " + text);
  return value;
}

const char* placement_name(Placement placement) {
  return placement == Placement::kGaussian ? "gaussian" : "uniform";
}

Placement parse_placement(const std::string& name) {
  if (name == "uniform") return Placement::kUniform;
  if (name == "gaussian") return Placement::kGaussian;
  throw util::JsonError("unknown placement: " + name);
}

const char* arrivals_name(ArrivalProcess arrivals) {
  return arrivals == ArrivalProcess::kPoisson ? "poisson" : "uniform-window";
}

ArrivalProcess parse_arrivals(const std::string& name) {
  if (name == "uniform-window") return ArrivalProcess::kUniformWindow;
  if (name == "poisson") return ArrivalProcess::kPoisson;
  throw util::JsonError("unknown arrival process: " + name);
}

const char* tabular_mode_name(core::TabularMode mode) {
  return mode == core::TabularMode::kRebuild ? "rebuild" : "incremental";
}

core::TabularMode parse_tabular_mode(const std::string& name) {
  if (name == "incremental") return core::TabularMode::kIncremental;
  if (name == "rebuild") return core::TabularMode::kRebuild;
  throw util::JsonError("unknown tabular mode: " + name);
}

}  // namespace

Json metrics_to_json(const RunMetrics& metrics) {
  Json json = Json::object();
  json.set("weighted_utility", metrics.weighted_utility);
  json.set("normalized_utility", metrics.normalized_utility);
  json.set("relaxed_utility", metrics.relaxed_utility);
  Json task_utility = Json::array();
  for (double u : metrics.task_utility) task_utility.push_back(u);
  json.set("task_utility", std::move(task_utility));
  json.set("switches", metrics.switches);
  json.set("messages", u64_json(metrics.messages));
  json.set("deliveries", u64_json(metrics.deliveries));
  json.set("rounds", u64_json(metrics.rounds));
  json.set("negotiations", u64_json(metrics.negotiations));
  json.set("exact", metrics.exact);
  return json;
}

RunMetrics metrics_from_json(const Json& json) {
  RunMetrics metrics;
  metrics.weighted_utility = json.at("weighted_utility").as_number();
  metrics.normalized_utility = json.at("normalized_utility").as_number();
  metrics.relaxed_utility = json.at("relaxed_utility").as_number();
  const Json& task_utility = json.at("task_utility");
  metrics.task_utility.reserve(task_utility.size());
  for (std::size_t j = 0; j < task_utility.size(); ++j) {
    metrics.task_utility.push_back(task_utility.at(j).as_number());
  }
  metrics.switches = static_cast<int>(json.at("switches").as_int());
  metrics.messages = u64_from(json.at("messages"));
  metrics.deliveries = u64_from(json.at("deliveries"));
  metrics.rounds = u64_from(json.at("rounds"));
  metrics.negotiations = u64_from(json.at("negotiations"));
  metrics.exact = json.at("exact").as_bool();
  return metrics;
}

Json scenario_config_to_json(const ScenarioConfig& config) {
  Json json = Json::object();
  json.set("field_width", config.field_width);
  json.set("field_height", config.field_height);
  json.set("chargers", config.chargers);
  json.set("tasks", config.tasks);

  Json power = Json::object();
  power.set("alpha", config.power.alpha);
  power.set("beta", config.power.beta);
  power.set("radius", config.power.radius);
  power.set("charging_angle_rad", config.power.charging_angle);
  power.set("receiving_angle_rad", config.power.receiving_angle);
  power.set("gain_profile", model::gain_profile_name(config.power.gain_profile));
  json.set("power", std::move(power));

  Json time = Json::object();
  time.set("slot_seconds", config.time.slot_seconds);
  time.set("rho", config.time.rho);
  time.set("tau", static_cast<int>(config.time.tau));
  json.set("time", std::move(time));

  json.set("energy_min_j", config.energy_min_j);
  json.set("energy_max_j", config.energy_max_j);
  json.set("duration_min_slots", config.duration_min_slots);
  json.set("duration_max_slots", config.duration_max_slots);
  json.set("release_window_slots", config.release_window_slots);
  json.set("arrivals", arrivals_name(config.arrivals));
  json.set("poisson_rate_per_slot", config.poisson_rate_per_slot);
  json.set("task_weight", config.task_weight);
  json.set("task_placement", placement_name(config.task_placement));
  json.set("gaussian_sigma_x", config.gaussian_sigma_x);
  json.set("gaussian_sigma_y", config.gaussian_sigma_y);
  json.set("utility_shape", config.utility_shape);
  return json;
}

ScenarioConfig scenario_config_from_json(const Json& json) {
  ScenarioConfig config;
  config.field_width = json.at("field_width").as_number();
  config.field_height = json.at("field_height").as_number();
  config.chargers = static_cast<int>(json.at("chargers").as_int());
  config.tasks = static_cast<int>(json.at("tasks").as_int());

  const Json& power = json.at("power");
  config.power.alpha = power.at("alpha").as_number();
  config.power.beta = power.at("beta").as_number();
  config.power.radius = power.at("radius").as_number();
  config.power.charging_angle = power.at("charging_angle_rad").as_number();
  config.power.receiving_angle = power.at("receiving_angle_rad").as_number();
  config.power.gain_profile =
      model::parse_gain_profile(power.string_or("gain_profile", "uniform").c_str());

  const Json& time = json.at("time");
  config.time.slot_seconds = time.at("slot_seconds").as_number();
  config.time.rho = time.at("rho").as_number();
  config.time.tau = static_cast<model::SlotIndex>(time.at("tau").as_int());

  config.energy_min_j = json.at("energy_min_j").as_number();
  config.energy_max_j = json.at("energy_max_j").as_number();
  config.duration_min_slots = static_cast<int>(json.at("duration_min_slots").as_int());
  config.duration_max_slots = static_cast<int>(json.at("duration_max_slots").as_int());
  config.release_window_slots =
      static_cast<int>(json.at("release_window_slots").as_int());
  config.arrivals = parse_arrivals(json.at("arrivals").as_string());
  config.poisson_rate_per_slot = json.at("poisson_rate_per_slot").as_number();
  config.task_weight = json.at("task_weight").as_number();
  config.task_placement = parse_placement(json.at("task_placement").as_string());
  config.gaussian_sigma_x = json.at("gaussian_sigma_x").as_number();
  config.gaussian_sigma_y = json.at("gaussian_sigma_y").as_number();
  config.utility_shape = json.at("utility_shape").as_string();
  return config;
}

Json variant_to_json(const Variant& variant) {
  Json json = Json::object();
  json.set("label", variant.label);
  json.set("algorithm", algorithm_name(variant.algorithm));
  Json params = Json::object();
  params.set("colors", variant.params.colors);
  params.set("samples", variant.params.samples);
  params.set("seed", u64_json(variant.params.seed));
  params.set("brute_force_budget", u64_json(variant.params.brute_force_budget));
  params.set("mode", tabular_mode_name(variant.params.mode));
  json.set("params", std::move(params));
  return json;
}

Variant variant_from_json(const Json& json) {
  Variant variant;
  variant.label = json.at("label").as_string();
  variant.algorithm = parse_algorithm(json.at("algorithm").as_string());
  const Json& params = json.at("params");
  variant.params.colors = static_cast<int>(params.at("colors").as_int());
  variant.params.samples = static_cast<int>(params.at("samples").as_int());
  variant.params.seed = u64_from(params.at("seed"));
  variant.params.brute_force_budget = u64_from(params.at("brute_force_budget"));
  variant.params.mode = parse_tabular_mode(params.at("mode").as_string());
  return variant;
}

Json shard_spec_to_json(const ShardSpec& spec) {
  Json json = Json::object();
  json.set("shard", spec.shard_id);
  json.set("x_index", spec.x_index);
  json.set("trial_begin", spec.trial_begin);
  json.set("trial_end", spec.trial_end);
  json.set("base_seed", u64_json(spec.base_seed));
  json.set("config", scenario_config_to_json(spec.config));
  Json variants = Json::array();
  for (const Variant& variant : spec.variants) variants.push_back(variant_to_json(variant));
  json.set("variants", std::move(variants));
  return json;
}

ShardSpec shard_spec_from_json(const Json& json) {
  ShardSpec spec;
  spec.shard_id = static_cast<int>(json.at("shard").as_int());
  spec.x_index = static_cast<int>(json.at("x_index").as_int());
  spec.trial_begin = static_cast<int>(json.at("trial_begin").as_int());
  spec.trial_end = static_cast<int>(json.at("trial_end").as_int());
  spec.base_seed = u64_from(json.at("base_seed"));
  spec.config = scenario_config_from_json(json.at("config"));
  const Json& variants = json.at("variants");
  spec.variants.reserve(variants.size());
  for (std::size_t v = 0; v < variants.size(); ++v) {
    spec.variants.push_back(variant_from_json(variants.at(v)));
  }
  return spec;
}

std::vector<ShardSpec> plan_shards(const ScenarioConfig& config,
                                   const std::vector<Variant>& variants, int trials,
                                   std::uint64_t base_seed, int trials_per_shard,
                                   int x_index, int first_shard_id) {
  if (trials < 0) throw std::invalid_argument("plan_shards: trials must be >= 0");
  if (trials_per_shard < 1) {
    throw std::invalid_argument("plan_shards: trials_per_shard must be >= 1");
  }
  std::vector<ShardSpec> shards;
  for (int begin = 0; begin < trials; begin += trials_per_shard) {
    ShardSpec spec;
    spec.shard_id = first_shard_id + static_cast<int>(shards.size());
    spec.x_index = x_index;
    spec.trial_begin = begin;
    spec.trial_end = std::min(trials, begin + trials_per_shard);
    spec.base_seed = base_seed;
    spec.config = config;
    spec.variants = variants;
    shards.push_back(std::move(spec));
  }
  return shards;
}

std::map<std::string, std::vector<RunMetrics>> run_shard(const ShardSpec& spec) {
  const int count = spec.trial_end - spec.trial_begin;
  if (count < 0) throw std::invalid_argument("run_shard: empty or inverted trial range");
  std::vector<std::vector<RunMetrics>> matrix(
      spec.variants.size(), std::vector<RunMetrics>(static_cast<std::size_t>(count)));
  for (int t = spec.trial_begin; t < spec.trial_end; ++t) {
    // Exactly the per-trial code path of run_trials: the RNG derives from
    // the global trial index, never from the shard-local position.
    util::Rng rng(util::Rng::stream_seed(spec.base_seed, static_cast<std::uint64_t>(t)));
    const model::Network net = generate_scenario(spec.config, rng);
    for (std::size_t v = 0; v < spec.variants.size(); ++v) {
      AlgoParams params = spec.variants[v].params;
      params.seed =
          util::Rng::stream_seed(params.seed, static_cast<std::uint64_t>(t) + 1);
      matrix[v][static_cast<std::size_t>(t - spec.trial_begin)] =
          run_algorithm(net, spec.variants[v].algorithm, params);
    }
  }
  std::map<std::string, std::vector<RunMetrics>> results;
  for (std::size_t v = 0; v < spec.variants.size(); ++v) {
    results[spec.variants[v].label] = std::move(matrix[v]);
  }
  return results;
}

namespace {

/// Outcome of serving one request line, transport-independent. The `inject`
/// tag tells the transport loop which failure to act out (writing garbage,
/// truncating the line, resetting the connection, dripping bytes) — the
/// modes that never return (crash, hang, kill-self) are handled inside
/// serve_shard_line itself.
struct ServedLine {
  int exit_code = 0;     ///< non-zero: stop serving with this code
  std::string response;  ///< result line, without the trailing '\n'
  std::string inject;    ///< "", "garbage", "partial", "reset", "slow"
};

ServedLine serve_shard_line(const std::string& line) {
  ServedLine served;
  Json request;
  ShardSpec spec;
  try {
    request = Json::parse(line);
    spec = shard_spec_from_json(request);
  } catch (const std::exception& error) {
    HASTE_LOG_ERROR << "shard worker: malformed request: " << error.what();
    served.exit_code = 3;
    return served;
  }
  // Driver-requested observability: switch the tracer to in-memory
  // collection (never file output — workers inherit the driver's
  // environment, and honoring HASTE_TRACE here would have every worker
  // clobber the same file) and attach the cumulative metrics snapshot plus
  // the drained trace events to this response.
  const bool want_obs = request.bool_or("obs", false);
  if (want_obs && !obs::Tracer::instance().enabled()) {
    obs::Tracer::instance().start_memory();
  }
  const std::string inject = request.string_or("inject", "");
  if (inject == "crash") {
    std::_Exit(86);  // simulate a mid-shard crash
  } else if (inject == "kill-self") {
    ::raise(SIGKILL);  // simulate an external kill: death by signal
  } else if (inject == "hang") {
    for (;;) std::this_thread::sleep_for(std::chrono::seconds(1));
  } else if (inject == "garbage") {
    served.inject = "garbage";
    served.response = "}{ this is not json";
    return served;
  }
  std::map<std::string, std::vector<RunMetrics>> metrics;
  {
    obs::Span span("shard.run");
    span.arg("shard", Json(spec.shard_id));
    span.arg("trials", Json(spec.trial_end - spec.trial_begin));
    metrics = run_shard(spec);
  }
  HASTE_OBS_COUNTER_ADD("shard.served", 1);
  Json response = Json::object();
  response.set("shard", spec.shard_id);
  Json by_label = Json::object();
  for (const auto& [label, runs] : metrics) {
    Json array = Json::array();
    for (const RunMetrics& run : runs) array.push_back(metrics_to_json(run));
    by_label.set(label, std::move(array));
  }
  response.set("metrics", std::move(by_label));
  if (want_obs) {
    // Snapshots are cumulative for this worker process; the driver keeps
    // only the latest per peer, so re-sending totals cannot double-count.
    Json obs_payload = Json::object();
    obs_payload.set("metrics", obs::MetricsRegistry::instance().snapshot().to_json());
    obs_payload.set("trace", obs::Tracer::instance().take_events());
    response.set("obs", std::move(obs_payload));
  }
  served.response = response.dump();
  if (inject == "partial") {
    // Die with half a result line on the wire: the driver must treat the
    // truncated line as a failed attempt, not as data.
    served.inject = "partial";
    served.response = served.response.substr(0, served.response.size() / 2);
  } else if (inject == "reset" || inject == "slow") {
    served.inject = inject;
  }
  return served;
}

}  // namespace

int shard_worker_main(std::istream& in, std::ostream& out) {
  std::string line;
  while (std::getline(in, line)) {
    if (line.empty()) continue;
    const ServedLine served = serve_shard_line(line);
    if (served.exit_code != 0) return served.exit_code;
    if (served.inject == "garbage") {
      out << served.response << "\n" << std::flush;
      std::_Exit(0);
    }
    if (served.inject == "partial") {
      out << served.response << std::flush;  // no newline, then die
      std::_Exit(9);
    }
    if (served.inject == "reset") {
      std::_Exit(1);  // no socket to reset over a pipe; just vanish
    }
    if (served.inject == "slow") {
      // Slow-loris: drip the result out far slower than any shard timeout.
      const std::string payload = served.response + "\n";
      for (char byte : payload) {
        out.write(&byte, 1);
        out.flush();
        if (!out) std::_Exit(1);  // driver gave up and closed the pipe
        std::this_thread::sleep_for(std::chrono::milliseconds(200));
      }
      continue;
    }
    out << served.response << "\n" << std::flush;
  }
  return 0;
}

int shard_worker_connect(const std::string& address, const std::string& auth_token) {
  util::TcpSocket socket;
  try {
    socket = util::TcpSocket::connect(address);
  } catch (const std::exception& error) {
    HASTE_LOG_ERROR << "shard worker: " << error.what();
    return 4;
  }
  if (!auth_token.empty() && !socket.write_all(auth_token + "\n")) {
    HASTE_LOG_ERROR << "shard worker: failed to send auth token to " << address;
    return 4;
  }
  util::LineBuffer lines;
  char buffer[65536];
  for (;;) {
    if (util::poll_readable({socket.fd()}, 1000).empty()) continue;
    const ssize_t n = ::read(socket.fd(), buffer, sizeof(buffer));
    if (n < 0) {
      if (errno == EINTR || errno == EAGAIN) continue;
      return 0;  // connection torn down
    }
    if (n == 0) return 0;  // driver half-closed: no more shards
    for (const std::string& line : lines.feed(buffer, static_cast<std::size_t>(n))) {
      if (line.empty()) continue;
      const ServedLine served = serve_shard_line(line);
      if (served.exit_code != 0) return served.exit_code;
      if (served.inject == "garbage") {
        socket.write_all(served.response + "\n");
        std::_Exit(0);
      }
      if (served.inject == "partial") {
        socket.write_all(served.response);  // mid-line, then die
        std::_Exit(9);
      }
      if (served.inject == "reset") {
        socket.close(/*reset=*/true);  // RST instead of a result line
        std::_Exit(1);
      }
      if (served.inject == "slow") {
        const std::string payload = served.response + "\n";
        for (char byte : payload) {
          if (!socket.write_all(&byte, 1)) std::_Exit(1);  // driver hung up
          std::this_thread::sleep_for(std::chrono::milliseconds(200));
        }
        continue;
      }
      if (!socket.write_all(served.response + "\n")) return 0;
    }
  }
}

namespace {

using Clock = std::chrono::steady_clock;

double seconds_since(Clock::time_point start) {
  return std::chrono::duration<double>(Clock::now() - start).count();
}

/// One attempt of one shard, for the run manifest.
struct AttemptRecord {
  pid_t worker_pid = -1;   ///< -1 for remote (TCP) workers
  std::string worker;      ///< "pid 1234" or "ip:port"
  std::string transport;   ///< "subprocess" | "tcp"
  std::string status;  ///< "ok" | "timeout" | "malformed output" | "worker exit/signal" | ...
  double wall_seconds = 0.0;
};

struct ShardState {
  ShardSpec spec;
  int attempts = 0;
  bool done = false;
  std::map<std::string, std::vector<RunMetrics>> metrics;
  std::vector<AttemptRecord> history;
  int split_from = -1;  ///< shard id this one was carved from, -1 if planned
};

/// One worker connection, whatever carries it. The runner only ever needs a
/// readable fd to multiplex, a way to send a request line, and the three
/// lifecycle verbs (finish politely, terminate now, explain the corpse).
class WorkerLink {
 public:
  virtual ~WorkerLink() = default;
  virtual int read_fd() const = 0;
  virtual bool send_line(const std::string& line) = 0;
  /// Pushes buffered request bytes toward a slow reader; default no-op.
  virtual void flush() {}
  /// Politely signals "no more shards" (EOF / half-close).
  virtual void finish() = 0;
  /// Waits for a finished worker to go away where that is observable.
  virtual void await() {}
  /// Hard stop: kill the process / close the connection. A link that was
  /// terminated can never deliver a stale result for a requeued shard.
  virtual void terminate() = 0;
  virtual std::string peer() const = 0;
  virtual pid_t pid() const { return -1; }
  virtual const char* transport() const = 0;
  /// After EOF: what happened to the worker, for the manifest.
  virtual std::string fate() = 0;
};

class SubprocessLink : public WorkerLink {
 public:
  explicit SubprocessLink(util::Subprocess proc) : proc_(std::move(proc)) {}
  int read_fd() const override { return proc_.stdout_fd(); }
  bool send_line(const std::string& line) override { return proc_.write_line(line); }
  void finish() override { proc_.close_stdin(); }
  void await() override { proc_.wait(); }
  void terminate() override {
    proc_.kill();
    proc_.wait();
  }
  std::string peer() const override { return "pid " + std::to_string(proc_.pid()); }
  pid_t pid() const override { return proc_.pid(); }
  const char* transport() const override { return "subprocess"; }
  std::string fate() override { return "worker " + proc_.wait().describe(); }

 private:
  util::Subprocess proc_;
};

class TcpLink : public WorkerLink {
 public:
  explicit TcpLink(util::TcpSocket socket) : socket_(std::move(socket)) {}
  int read_fd() const override { return socket_.fd(); }
  bool send_line(const std::string& line) override { return socket_.send_line(line); }
  void flush() override { socket_.flush(0); }
  void finish() override {
    socket_.flush(1000);
    socket_.shutdown_write();
  }
  void terminate() override { socket_.close(); }
  std::string peer() const override { return socket_.peer(); }
  const char* transport() const override { return "tcp"; }
  std::string fate() override { return "connection closed by peer"; }

 private:
  util::TcpSocket socket_;
};

/// Reads the one-line shared-secret token off a freshly accepted connection,
/// byte by byte so no request bytes past the newline are consumed (they stay
/// in the socket for the link's LineBuffer). Returns true only on an exact
/// match within the deadline — a silent, slow, or chatty-but-wrong peer is
/// rejected alike.
bool read_auth_token(util::TcpSocket& socket, const std::string& expected) {
  std::string line;
  const Clock::time_point deadline = Clock::now() + std::chrono::seconds(2);
  while (line.size() < 512) {  // no sane token is longer; bound garbage
    const auto remaining =
        std::chrono::duration_cast<std::chrono::milliseconds>(deadline - Clock::now());
    if (remaining.count() <= 0) return false;
    if (util::poll_readable({socket.fd()}, static_cast<int>(remaining.count()))
            .empty()) {
      continue;  // poll timed out; the loop re-checks the deadline
    }
    char byte = 0;
    const ssize_t n = ::read(socket.fd(), &byte, 1);
    if (n < 0) {
      if (errno == EINTR || errno == EAGAIN) continue;
      return false;
    }
    if (n == 0) return false;  // closed before authenticating
    if (byte == '\n') {
      if (!line.empty() && line.back() == '\r') line.pop_back();
      return line == expected;
    }
    line.push_back(byte);
  }
  return false;
}

/// A source of worker links. The pool mixes links from every configured
/// transport; each transport contributes at most capacity() of them at once.
class Transport {
 public:
  virtual ~Transport() = default;
  virtual int capacity() const = 0;
  /// Tries to produce one more link within `timeout_ms`; nullptr when none
  /// became available (e.g. no TCP worker has connected yet).
  virtual std::unique_ptr<WorkerLink> open(int timeout_ms) = 0;
  virtual const char* name() const = 0;
  /// True while the pool should hold its first assignment until this
  /// transport has filled its share: links that dial in on their own
  /// schedule after the runner spawned them, until one fails the handshake.
  virtual bool admits_spawned_workers() const { return false; }
};

class SubprocessTransport : public Transport {
 public:
  SubprocessTransport(std::vector<std::string> argv, int capacity)
      : argv_(std::move(argv)), capacity_(capacity) {}
  int capacity() const override { return capacity_; }
  const char* name() const override { return "subprocess"; }
  std::unique_ptr<WorkerLink> open(int) override {
    return std::make_unique<SubprocessLink>(util::Subprocess::spawn(argv_));
  }

 private:
  std::vector<std::string> argv_;
  int capacity_;
};

class TcpTransport : public Transport {
 public:
  TcpTransport(const std::string& address, int capacity,
               std::vector<std::string> spawn_argv, std::string auth_token,
               std::size_t max_outbox_bytes)
      : listener_(util::TcpListener::listen(address)),
        capacity_(capacity),
        spawn_argv_(std::move(spawn_argv)),
        auth_token_(std::move(auth_token)),
        max_outbox_bytes_(max_outbox_bytes) {
    if (!spawn_argv_.empty()) spawn_argv_.push_back(listener_.local_address());
    HASTE_LOG_INFO << "shard runner: listening for TCP workers on "
                   << listener_.local_address()
                   << (spawn_argv_.empty() ? " (start workers with --connect)" : "");
  }
  int capacity() const override { return capacity_; }
  const char* name() const override { return "tcp"; }
  bool admits_spawned_workers() const override {
    return !spawn_argv_.empty() && rejected_ == 0;
  }

  std::unique_ptr<WorkerLink> open(int timeout_ms) override {
    std::optional<util::TcpSocket> socket = listener_.accept(0);
    if (!socket) {
      if (!spawn_argv_.empty()) {
        // Loopback helper: keep as many live --connect workers in flight as
        // the capacity allows, replacing spawns that died (crash injection,
        // external kills) so a requeued shard still finds a connection.
        // try_wait() reaps without blocking; live-or-connecting spawns are
        // bounded by capacity, so this cannot fork without end.
        std::size_t live = 0;
        for (util::Subprocess& proc : spawned_) {
          if (!proc.try_wait()) ++live;
        }
        if (live < static_cast<std::size_t>(capacity_)) {
          spawned_.push_back(util::Subprocess::spawn(spawn_argv_));
        }
      }
      socket = listener_.accept(timeout_ms);
    }
    if (!socket) return nullptr;
    if (!auth_token_.empty() && !read_auth_token(*socket, auth_token_)) {
      // Close before any shard flows; the dropped TcpSocket sends FIN. A
      // spawned loopback worker that lands here exits on the close and is
      // replaced (bounded by capacity) on a later turn.
      HASTE_LOG_WARN << "shard runner: rejected unauthenticated TCP worker "
                     << socket->peer();
      HASTE_OBS_COUNTER_ADD("shard.auth_reject", 1);
      ++rejected_;
      return nullptr;
    }
    // A stalled worker must cost its shard attempt, not driver memory: cap
    // how many unsent request bytes may queue toward it.
    socket->set_max_outbox_bytes(max_outbox_bytes_);
    return std::make_unique<TcpLink>(std::move(*socket));
  }

 private:
  util::TcpListener listener_;
  int capacity_;
  std::vector<std::string> spawn_argv_;
  std::string auth_token_;                 ///< "" = accept anyone
  std::size_t max_outbox_bytes_ = 0;       ///< 0 = unbounded
  std::vector<util::Subprocess> spawned_;  ///< destructor reaps leftovers
  long rejected_ = 0;                      ///< peers that failed the handshake
};

/// Drives a pool of workers over a fixed shard list: assigns pending shards
/// to idle workers, multiplexes their output fds, and requeues the shard of
/// any worker that crashes, disconnects, hangs past the timeout, or emits a
/// malformed line — opening replacement links so retries land on a live
/// worker. The pool draws from every configured transport (fork+pipe
/// subprocesses, accepted TCP connections) and treats the links uniformly.
/// Total replacements are bounded because every failure consumes one of the
/// failing shard's max_attempts.
class ShardRunner {
 public:
  ShardRunner(std::vector<ShardSpec> specs, const ShardOptions& options)
      : options_(options) {
    if (options_.max_attempts < 1) {
      throw std::invalid_argument("ShardOptions::max_attempts must be >= 1");
    }
    const bool tcp_enabled = !options_.listen_address.empty();
    if (!tcp_enabled && options_.worker_argv.empty()) {
      throw std::invalid_argument("ShardOptions::worker_argv must not be empty");
    }
    if (!tcp_enabled && options_.workers < 1) {
      throw std::invalid_argument("ShardOptions::workers must be >= 1");
    }
    if (tcp_enabled && options_.tcp_workers < 1) {
      throw std::invalid_argument(
          "ShardOptions::tcp_workers must be >= 1 when listen_address is set");
    }
    if (!options_.worker_argv.empty() && options_.workers > 0) {
      transports_.push_back(std::make_unique<SubprocessTransport>(
          options_.worker_argv, options_.workers));
    }
    if (tcp_enabled) {
      transports_.push_back(std::make_unique<TcpTransport>(
          options_.listen_address, options_.tcp_workers, options_.tcp_spawn_argv,
          options_.auth_token, options_.max_outbox_bytes));
    }
    shards_.reserve(specs.size());
    for (ShardSpec& spec : specs) {
      shards_.push_back(ShardState{std::move(spec), 0, false, {}, {}});
    }
    planned_count_ = shards_.size();
    for (const ShardState& shard : shards_) {
      next_shard_id_ = std::max(next_shard_id_, shard.spec.shard_id + 1);
    }
  }

  /// Runs every shard to completion. Returns (spec, metrics) pairs — with
  /// adaptive splitting the final shard list is not the planned one, so each
  /// result carries the trial range it actually covers.
  std::vector<std::pair<ShardSpec, std::map<std::string, std::vector<RunMetrics>>>>
  run() {
    try {
      for (std::size_t s = 0; s < shards_.size(); ++s) pending_.push_back(s);
      drive();
    } catch (...) {
      workers_.clear();     // kill / disconnect + reap before reporting
      transports_.clear();  // close the listener, reap spawned TCP workers
      export_worker_metrics();
      write_manifest();
      throw;
    }
    export_worker_metrics();
    write_manifest();
    std::vector<std::pair<ShardSpec, std::map<std::string, std::vector<RunMetrics>>>>
        results;
    results.reserve(shards_.size());
    for (ShardState& shard : shards_) {
      results.emplace_back(shard.spec, std::move(shard.metrics));
    }
    return results;
  }

 private:
  struct WorkerSlot {
    std::unique_ptr<WorkerLink> link;
    Transport* origin = nullptr;
    util::LineBuffer lines;
    long shard = -1;  ///< index into shards_, -1 when idle
    Clock::time_point started;
    bool dead = false;  ///< failed, waiting for reap_failed_workers
    long serial = 0;    ///< 1-based pool admission order, stable per link
  };

  void drive() {
    HASTE_OBS_SPAN(drive_span, "shard.drive");
    drive_span.arg("shards", Json(static_cast<int>(shards_.size())));
    const Clock::time_point started = Clock::now();
    admit_spawned_workers(started);
    while (completed_ < shards_.size()) {
      open_up_to_target();
      assign_pending();
      reap_failed_workers();
      if (workers_.empty()) {
        // Only a TCP-fed pool can be legitimately empty (workers still
        // dialing in); open_up_to_target already waited a beat for them.
        if (seconds_since(started) > options_.connect_wait_seconds) {
          throw std::runtime_error(
              "shard runner: no worker available within " +
              std::to_string(options_.connect_wait_seconds) + "s");
        }
        continue;
      }
      flush_outboxes();
      poll_workers();
      enforce_timeouts();
    }
    // Clean shutdown: EOF toward each worker tells it to exit.
    for (WorkerSlot& worker : workers_) worker.link->finish();
    for (WorkerSlot& worker : workers_) worker.link->await();
    workers_.clear();
    transports_.clear();
  }

  /// Self-spawned TCP workers dial in on their own schedule. Assigning as
  /// soon as the first one is admitted lets it drain a small sweep before
  /// the others connect, and they then never run a shard (nor ship a
  /// trace). So the pool admits each spawning transport's share — its
  /// capacity, capped by the pending shards — before the first assignment,
  /// for at most connect_wait_seconds; a pool still empty by then fails in
  /// drive()'s connect-wait check as before.
  void admit_spawned_workers(Clock::time_point started) {
    for (const std::unique_ptr<Transport>& transport : transports_) {
      const std::size_t share =
          std::min(static_cast<std::size_t>(transport->capacity()), pending_.size());
      std::size_t admitted = 0;
      while (admitted < share && transport->admits_spawned_workers() &&
             seconds_since(started) <= options_.connect_wait_seconds) {
        std::unique_ptr<WorkerLink> link = transport->open(50);
        if (!link) continue;
        admit(std::move(link), transport.get());
        ++admitted;
      }
    }
  }

  void admit(std::unique_ptr<WorkerLink> link, Transport* origin) {
    workers_.push_back(
        WorkerSlot{std::move(link), origin, {}, -1, {}, false, ++worker_serial_});
    workers_.back().lines.set_max_line_bytes(options_.max_line_bytes);
  }

  void open_up_to_target() {
    // Open only as many links as there is pending work (capped at each
    // transport's pool share): a broken worker command then consumes shard
    // attempts — a bounded budget — instead of respawning idle forever.
    std::size_t idle = 0;
    for (const WorkerSlot& worker : workers_) {
      if (!worker.dead && worker.shard < 0) ++idle;
    }
    for (const std::unique_ptr<Transport>& transport : transports_) {
      std::size_t from_this = 0;
      for (const WorkerSlot& worker : workers_) {
        if (!worker.dead && worker.origin == transport.get()) ++from_this;
      }
      while (from_this < static_cast<std::size_t>(transport->capacity()) &&
             idle < pending_.size()) {
        // An empty pool has nothing to poll, so waiting inside open() for a
        // TCP worker to dial in is what paces the connect-wait loop.
        std::unique_ptr<WorkerLink> link = transport->open(workers_.empty() ? 200 : 0);
        if (!link) break;
        admit(std::move(link), transport.get());
        ++from_this;
        ++idle;
      }
    }
  }

  /// Total link slots across every transport — the denominator of the
  /// adaptive split target.
  long pool_capacity() const {
    long pool = 0;
    for (const std::unique_ptr<Transport>& transport : transports_) {
      pool += transport->capacity();
    }
    return std::max<long>(1, pool);
  }

  /// Work-stealing shard sizing, applied as shard `s` is about to be
  /// assigned: if its trial range is wide relative to the remaining pending
  /// work, carve off a right-sized chunk and requeue the rest as a new
  /// shard. Late in a run this shrinks the long pole so idle workers steal
  /// from it instead of waiting it out. Results stay bit-identical: a
  /// trial's RNG derives from its global index, never from shard
  /// boundaries. Retried shards are never split — their attempt history and
  /// fault-injection directives stay attached to one id.
  void maybe_split(std::size_t s) {
    if (!options_.adaptive_shards) return;
    if (shards_[s].attempts > 0) return;
    const int begin = shards_[s].spec.trial_begin;
    const long width = shards_[s].spec.trial_end - begin;
    long remaining = width;
    for (std::size_t p : pending_) {
      remaining += shards_[p].spec.trial_end - shards_[p].spec.trial_begin;
    }
    const long divisor = 2 * pool_capacity();
    const long floor_trials = std::max(1, options_.min_steal_trials);
    const long target =
        std::max(floor_trials, (remaining + divisor - 1) / divisor);
    // Splitting below 2x the target would leave a remainder smaller than a
    // freshly planned chunk; keep the shard whole instead.
    if (width < 2 * target) return;
    ShardState rest;
    rest.spec = shards_[s].spec;
    rest.spec.shard_id = next_shard_id_++;
    rest.spec.trial_begin = begin + static_cast<int>(target);
    rest.split_from = shards_[s].spec.shard_id;
    shards_[s].spec.trial_end = begin + static_cast<int>(target);
    ++splits_;
    HASTE_OBS_COUNTER_ADD("shard.split", 1);
    shards_.push_back(std::move(rest));  // invalidates ShardState references
    pending_.push_back(shards_.size() - 1);
  }

  void assign_pending() {
    for (WorkerSlot& worker : workers_) {
      if (worker.dead || worker.shard >= 0 || pending_.empty()) continue;
      const std::size_t s = pending_.front();
      pending_.pop_front();
      maybe_split(s);  // may grow shards_; take the reference only after
      ShardState& shard = shards_[s];
      Json request = shard_spec_to_json(shard.spec);
      const auto inject = options_.inject_first_attempt.find(shard.spec.shard_id);
      if (inject != options_.inject_first_attempt.end() && shard.attempts == 0) {
        request.set("inject", inject->second);
      }
      if (options_.collect_obs) request.set("obs", true);
      ++shard.attempts;
      worker.shard = static_cast<long>(s);
      worker.started = Clock::now();
      if (!worker.link->send_line(request.dump())) {
        // The worker died before we could feed it (EPIPE). Diagnose it the
        // same way the EOF path does — whether the write or the EOF notices
        // the death first is a race, and an exec failure must read
        // "exec failure (exit 127)" in the manifest either way.
        fail_worker(worker, "write to worker failed: " + worker.link->fate());
      }
    }
  }

  void flush_outboxes() {
    // Push buffered request bytes toward slow readers (TCP links buffer
    // writes so a stalled worker can never block the driver loop; its
    // stall is charged to the shard timeout instead).
    for (WorkerSlot& worker : workers_) {
      if (!worker.dead) worker.link->flush();
    }
  }

  void poll_workers() {
    std::vector<int> fds;
    fds.reserve(workers_.size());
    for (const WorkerSlot& worker : workers_) {
      fds.push_back(worker.dead ? -1 : worker.link->read_fd());
    }
    const auto ready = util::poll_readable(fds, poll_timeout_ms());
    for (std::size_t index : ready) read_worker(workers_[index]);
    reap_failed_workers();
  }

  int poll_timeout_ms() const {
    double nearest = 0.1;  // keep the loop responsive to fresh links
    for (const WorkerSlot& worker : workers_) {
      if (worker.dead || worker.shard < 0) continue;
      const double remaining =
          options_.shard_timeout_seconds - seconds_since(worker.started);
      nearest = std::min(nearest, std::max(remaining, 0.0));
    }
    return static_cast<int>(nearest * 1000.0) + 1;
  }

  void read_worker(WorkerSlot& worker) {
    if (worker.dead) return;
    char buffer[65536];
    const ssize_t n = ::read(worker.link->read_fd(), buffer, sizeof(buffer));
    if (n < 0) {
      if (errno == EINTR || errno == EAGAIN) return;
      // e.g. ECONNRESET when a TCP worker dies hard instead of closing.
      fail_worker(worker, std::string("read from worker failed: ") +
                              ::strerror(errno));
      return;
    }
    if (n == 0) {  // EOF: the worker exited / disconnected (cleanly or not)
      std::string reason = worker.link->fate();
      if (!worker.lines.partial().empty()) {
        reason += " mid-line (" + std::to_string(worker.lines.partial().size()) +
                  " bytes of truncated output)";
      }
      fail_worker(worker, reason);
      return;
    }
    for (const std::string& line :
         worker.lines.feed(buffer, static_cast<std::size_t>(n))) {
      if (!handle_line(worker, line)) {
        fail_worker(worker, "malformed output");
        return;
      }
    }
    if (worker.lines.overflowed()) {
      // The worker blew past max_line_bytes (LineBuffer already bumped
      // net.overflow); its shard requeues like any other worker failure.
      fail_worker(worker, "line overflow");
    }
  }

  /// Parses one result line; false means the worker must be recycled.
  bool handle_line(WorkerSlot& worker, const std::string& line) {
    if (worker.shard < 0) return false;  // output with nothing in flight
    ShardState& shard = shards_[static_cast<std::size_t>(worker.shard)];
    try {
      const Json response = Json::parse(line);
      if (static_cast<int>(response.at("shard").as_int()) != shard.spec.shard_id) {
        return false;
      }
      std::map<std::string, std::vector<RunMetrics>> metrics;
      for (const auto& [label, runs] : response.at("metrics").items()) {
        std::vector<RunMetrics>& slot = metrics[label];
        slot.reserve(runs.size());
        for (std::size_t r = 0; r < runs.size(); ++r) {
          slot.push_back(metrics_from_json(runs.at(r)));
        }
      }
      shard.metrics = std::move(metrics);
      if (response.contains("obs")) absorb_worker_obs(worker, response.at("obs"));
    } catch (const std::exception&) {
      return false;
    }
    shard.done = true;
    ++completed_;
    shard.history.push_back(AttemptRecord{worker.link->pid(), worker.link->peer(),
                                          worker.link->transport(), "ok",
                                          seconds_since(worker.started)});
    record_attempt_span(shard.spec.shard_id, "ok", worker);
    HASTE_OBS_COUNTER_ADD("shard.ok", 1);
    worker.shard = -1;
    return true;
  }

  /// Folds a worker's "obs" response payload into driver state: the latest
  /// cumulative metrics snapshot per peer (latest-wins, so totals are never
  /// double-counted) and — when the driver itself is tracing — the worker's
  /// trace events, which carry the worker's own pid and so show up as a
  /// separate process track in the merged trace.
  void absorb_worker_obs(const WorkerSlot& worker, const Json& payload) {
    if (payload.contains("metrics")) {
      worker_metrics_[worker.serial] =
          obs::MetricsSnapshot::from_json(payload.at("metrics"));
    }
    if (payload.contains("trace") && obs::Tracer::instance().enabled()) {
      obs::Tracer::instance().inject(payload.at("trace"));
    }
  }

  /// Retroactively records one attempt as a driver-side trace span: the
  /// driver and its workers share the machine's monotonic clock, so the
  /// attempt's start time is directly comparable with worker-side spans.
  void record_attempt_span(int shard_id, const std::string& status,
                           const WorkerSlot& worker) const {
    obs::Tracer& tracer = obs::Tracer::instance();
    if (!tracer.enabled()) return;
    const std::int64_t start_us =
        std::chrono::duration_cast<std::chrono::microseconds>(
            worker.started.time_since_epoch())
            .count();
    Json args = Json::object();
    args.set("shard", shard_id);
    args.set("status", status);
    args.set("transport", worker.link->transport());
    args.set("worker", worker.link->peer());
    // One synthetic driver-side track (tid) per pool slot: attempts on one
    // link are sequential, so tracks never show a partial span overlap, and
    // concurrent workers render side by side instead of colliding on the
    // driver's real thread id.
    tracer.complete("shard.attempt", start_us, obs::Tracer::now_us() - start_us,
                    std::move(args), /*pid=*/-1, /*tid=*/worker.serial);
  }

  /// Records the failed attempt, requeues the shard (bounded), and marks the
  /// worker for removal; a replacement link is opened on the next loop turn.
  void fail_worker(WorkerSlot& worker, const std::string& reason) {
    if (worker.shard >= 0) {
      ShardState& shard = shards_[static_cast<std::size_t>(worker.shard)];
      shard.history.push_back(AttemptRecord{worker.link->pid(), worker.link->peer(),
                                            worker.link->transport(), reason,
                                            seconds_since(worker.started)});
      record_attempt_span(shard.spec.shard_id, reason, worker);
      HASTE_LOG_WARN << "shard " << shard.spec.shard_id << " attempt " << shard.attempts
                     << " failed on " << worker.link->transport() << " worker "
                     << worker.link->peer() << " (" << reason << "), "
                     << (shard.attempts < options_.max_attempts ? "requeueing"
                                                                : "giving up");
      if (shard.attempts >= options_.max_attempts) {
        throw std::runtime_error("shard " + std::to_string(shard.spec.shard_id) +
                                 " failed " + std::to_string(shard.attempts) +
                                 " attempts; last: " + reason);
      }
      pending_.push_front(static_cast<std::size_t>(worker.shard));
      HASTE_OBS_COUNTER_ADD("shard.requeue", 1);
      worker.shard = -1;
    }
    worker.link->terminate();
    worker.dead = true;
    failed_workers_ = true;
  }

  void reap_failed_workers() {
    if (!failed_workers_) return;
    failed_workers_ = false;
    std::vector<WorkerSlot> alive;
    alive.reserve(workers_.size());
    for (WorkerSlot& worker : workers_) {
      if (!worker.dead) alive.push_back(std::move(worker));
    }
    workers_ = std::move(alive);
  }

  void enforce_timeouts() {
    for (WorkerSlot& worker : workers_) {
      if (worker.dead || worker.shard < 0) continue;
      if (seconds_since(worker.started) < options_.shard_timeout_seconds) continue;
      // Kill the process / close the connection: a timed-out worker must
      // never deliver a stale result after its shard was requeued.
      HASTE_OBS_COUNTER_ADD("shard.timeout", 1);
      fail_worker(worker, "timeout");
    }
    reap_failed_workers();
  }

  obs::MetricsSnapshot merged_worker_metrics() const {
    return merge_worker_snapshots(worker_metrics_);
  }

  void export_worker_metrics() const {
    if (options_.worker_metrics_out) {
      *options_.worker_metrics_out = merged_worker_metrics();
    }
  }

  void write_manifest() const {
    if (options_.manifest_path.empty()) return;
    Json manifest = Json::object();
    manifest.set("worker_count", options_.workers);
    manifest.set("tcp_worker_count", options_.tcp_workers);
    if (!options_.listen_address.empty()) {
      manifest.set("listen_address", options_.listen_address);
    }
    manifest.set("max_attempts", options_.max_attempts);
    manifest.set("timeout_seconds", options_.shard_timeout_seconds);
    // Adaptive (work-stealing) shard sizing telemetry: how much the planned
    // shard list grew at run time.
    manifest.set("adaptive_shards", options_.adaptive_shards);
    manifest.set("planned_shards", static_cast<int>(planned_count_));
    manifest.set("final_shards", static_cast<int>(shards_.size()));
    manifest.set("splits", splits_);
    manifest.set("max_line_bytes", u64_json(options_.max_line_bytes));
    manifest.set("max_outbox_bytes", u64_json(options_.max_outbox_bytes));
    // Overflow kills observed by this driver (line-length or outbox-bound
    // breaches); the counter reads zero when the obs macros are compiled out.
    manifest.set("net_overflow",
                 u64_json(obs::MetricsRegistry::instance().counter("net.overflow").value()));
    Json shards = Json::array();
    for (const ShardState& shard : shards_) {
      Json entry = Json::object();
      entry.set("shard", shard.spec.shard_id);
      entry.set("x_index", shard.spec.x_index);
      entry.set("trial_begin", shard.spec.trial_begin);
      entry.set("trial_end", shard.spec.trial_end);
      entry.set("done", shard.done);
      if (shard.split_from >= 0) entry.set("split_from", shard.split_from);
      Json attempts = Json::array();
      for (const AttemptRecord& attempt : shard.history) {
        Json record = Json::object();
        record.set("worker_pid", static_cast<std::int64_t>(attempt.worker_pid));
        record.set("worker", attempt.worker);
        record.set("transport", attempt.transport);
        record.set("status", attempt.status);
        record.set("wall_seconds", attempt.wall_seconds);
        attempts.push_back(std::move(record));
      }
      entry.set("attempts", std::move(attempts));
      shards.push_back(std::move(entry));
    }
    manifest.set("shards", std::move(shards));
    if (options_.collect_obs) {
      manifest.set("driver_metrics",
                   obs::MetricsRegistry::instance().snapshot().to_json());
      manifest.set("worker_metrics", merged_worker_metrics().to_json());
    }
    util::save_json_file(options_.manifest_path, manifest);
  }

  ShardOptions options_;
  std::vector<ShardState> shards_;
  std::deque<std::size_t> pending_;
  std::vector<std::unique_ptr<Transport>> transports_;
  std::vector<WorkerSlot> workers_;
  std::size_t completed_ = 0;
  bool failed_workers_ = false;
  long worker_serial_ = 0;  ///< admission counter; the per-link trace tid
  std::size_t planned_count_ = 0;  ///< shard count before any adaptive split
  int next_shard_id_ = 0;          ///< ids for split-off shards
  int splits_ = 0;
  /// Latest cumulative metrics snapshot each worker attached to a response,
  /// keyed by pool admission serial — unique per link, and an ORDERED key,
  /// so merging (gauges are last-write-wins) is deterministic regardless of
  /// which worker answered last.
  std::map<long, obs::MetricsSnapshot> worker_metrics_;
};

int effective_trials_per_shard(const ShardOptions& options, int trials) {
  if (options.trials_per_shard > 0) return options.trials_per_shard;
  // Auto: ~4 shards per worker (across every transport) so a crashed shard
  // costs a fraction of a run. Shard boundaries never affect merged results.
  const int pool = std::max(1, options.workers + options.tcp_workers);
  const int shards = std::max(1, pool * 4);
  return std::max(1, (trials + shards - 1) / shards);
}

}  // namespace

obs::MetricsSnapshot merge_worker_snapshots(
    const std::map<long, obs::MetricsSnapshot>& by_worker) {
  obs::MetricsSnapshot merged;
  // std::map iterates in ascending key (admission) order: deterministic
  // last-write-wins resolution for gauges, no matter who answered last.
  for (const auto& [serial, snapshot] : by_worker) merged.merge(snapshot);
  return merged;
}

TrialResults run_trials_sharded(const ScenarioConfig& config,
                                const std::vector<Variant>& variants, int trials,
                                std::uint64_t base_seed, const ShardOptions& options) {
  const std::vector<ShardSpec> specs =
      plan_shards(config, variants, trials, base_seed,
                  effective_trials_per_shard(options, trials));
  ShardRunner runner(specs, options);
  const auto shard_results = runner.run();

  TrialResults results;
  for (const Variant& variant : variants) {
    results[variant.label].resize(static_cast<std::size_t>(trials));
  }
  // Merge by each result's own spec: adaptive splitting means the final
  // shard list (and each shard's trial range) can differ from the plan.
  for (const auto& [spec, metrics] : shard_results) {
    for (const auto& [label, runs] : metrics) {
      std::vector<RunMetrics>& merged = results.at(label);
      for (std::size_t r = 0; r < runs.size(); ++r) {
        merged[static_cast<std::size_t>(spec.trial_begin) + r] = runs[r];
      }
    }
  }
  return results;
}

SweepSeries sweep_sharded(const std::vector<double>& xs,
                          const std::vector<ScenarioConfig>& configs,
                          const std::vector<Variant>& variants, int trials,
                          std::uint64_t base_seed, const ShardOptions& options) {
  if (xs.size() != configs.size()) {
    throw std::invalid_argument("sweep_sharded: xs and configs must align");
  }
  // One flat shard list across every (x, trial) cell: a slow x-point keeps
  // all workers busy instead of serializing the sweep at its barrier.
  std::vector<ShardSpec> specs;
  for (std::size_t x = 0; x < xs.size(); ++x) {
    std::vector<ShardSpec> slice =
        plan_shards(configs[x], variants, trials, base_seed,
                    effective_trials_per_shard(options, trials), static_cast<int>(x),
                    static_cast<int>(specs.size()));
    for (ShardSpec& spec : slice) specs.push_back(std::move(spec));
  }
  ShardRunner runner(specs, options);
  const auto shard_results = runner.run();

  // Reassemble per-x TrialResults, then reduce exactly like sweep().
  std::vector<TrialResults> per_x(xs.size());
  for (std::size_t x = 0; x < xs.size(); ++x) {
    for (const Variant& variant : variants) {
      per_x[x][variant.label].resize(static_cast<std::size_t>(trials));
    }
  }
  for (const auto& [spec, metrics] : shard_results) {
    TrialResults& results = per_x[static_cast<std::size_t>(spec.x_index)];
    for (const auto& [label, runs] : metrics) {
      std::vector<RunMetrics>& merged = results.at(label);
      for (std::size_t r = 0; r < runs.size(); ++r) {
        merged[static_cast<std::size_t>(spec.trial_begin) + r] = runs[r];
      }
    }
  }

  SweepSeries out;
  out.xs = xs;
  for (const Variant& variant : variants) {
    out.series[variant.label] = {};
    out.ci95[variant.label] = {};
  }
  for (std::size_t x = 0; x < xs.size(); ++x) {
    const auto summaries = utility_summary(per_x[x]);
    for (const Variant& variant : variants) {
      out.series[variant.label].push_back(summaries.at(variant.label).mean);
      out.ci95[variant.label].push_back(summaries.at(variant.label).ci95);
    }
  }
  return out;
}

}  // namespace haste::sim
