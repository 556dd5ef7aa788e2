// haste_serve — the multi-tenant scheduling daemon, plus the client and
// self-test harnesses that exercise it across a real process boundary.
//
// Serve mode (the default):
//   haste_serve [--listen ADDR] [--token SECRET] [--max-sessions N]
//               [--quota N] [--threads N] [--auth-wait SECONDS]
//               [--trace FILE] [--metrics-out FILE]
//               [--metrics-listen ADDR] [--trace-ring N] [--flush-ms MS]
//     Binds ADDR (default 127.0.0.1:0 — an ephemeral loopback port), prints
//     "haste_serve: listening on HOST:PORT" to stdout (the line spawners
//     scrape for the bound port), and serves scheduling sessions until
//     SIGTERM/SIGINT triggers a graceful drain: in-flight re-plans finish,
//     every opened session receives its result, then metrics and trace are
//     flushed. $HASTE_SERVE_TOKEN and $HASTE_TRACE are the env equivalents
//     of --token and --trace.
//
//     --metrics-listen opens a second (unauthenticated, loopback-intended)
//     listener answering every connection with one HTTP/1.0 plain-text dump
//     of the live metric registry — `curl http://HOST:PORT/metrics` or a
//     bare TCP read both work, including while the daemon drains. The bound
//     address is printed as "haste_serve: metrics on HOST:PORT".
//     --trace-ring caps the tracer's in-memory event buffer at N events
//     (drop-oldest; drops are counted under trace.dropped), and --flush-ms
//     starts a background flusher that samples windowed registry deltas
//     into trace counter tracks every MS milliseconds — together they make
//     an always-on trace safe for long runs and give Perfetto rates instead
//     of monotone totals.
//
// Replay mode (a client):
//   haste_serve --connect HOST:PORT --replay SCENARIO.json [--verify]
//               [--token SECRET] [--strategy NAME] [--colors C]
//               [--samples S] [--seed N] [--sleep-ms MS]
//     Streams the scenario's arrival trace into a live daemon, one event
//     per request line, and prints the result. --verify re-runs the same
//     trace through the in-process run_online driver and demands a
//     bit-identical result.
//
// Self-test mode (spawns its own daemon):
//   haste_serve --self-test [--sessions N] [--drain] [--seed N]
//     Spawns a child daemon on an ephemeral port, runs N concurrent replay
//     clients (distinct scenarios and seeds), and verifies every session's
//     result is bit-identical to the one-shot driver. With --drain the
//     clients stream slowly and the child is SIGTERMed mid-stream: each
//     session must still receive a result bit-identical to its acknowledged
//     event prefix, and the child must exit 0. Both variants check the
//     child's metrics snapshot for the online.replan.latency_us histogram
//     (with its p99) and the session lifecycle counters.
//
// In every mode a flag the mode does not read exits 2 with a message naming
// it.
#include <csignal>
#include <unistd.h>

#include <chrono>
#include <cstring>
#include <iostream>
#include <memory>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "dist/online.hpp"
#include "io/scenario_io.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"
#include "serve/client.hpp"
#include "serve/server.hpp"
#include "serve/session.hpp"
#include "sim/scenario.hpp"
#include "util/cli.hpp"
#include "util/json.hpp"
#include "util/rng.hpp"
#include "util/subprocess.hpp"

namespace {

using haste::util::Json;
namespace dist = haste::dist;
namespace io = haste::io;
namespace serve = haste::serve;
namespace sim = haste::sim;
namespace util = haste::util;
namespace obs = haste::obs;

/// Resolves the running binary so self-test can respawn itself (workers may
/// be launched from any cwd). Falls back to argv[0].
std::string self_path(const char* argv0) {
  char buffer[4096];
  const ssize_t n = ::readlink("/proc/self/exe", buffer, sizeof(buffer) - 1);
  if (n > 0) {
    buffer[n] = '\0';
    return std::string(buffer);
  }
  return argv0;
}

std::string token_from(const util::Flags& flags) {
  std::string token = flags.get("token");
  if (token.empty()) {
    if (const char* env = std::getenv("HASTE_SERVE_TOKEN")) token = env;
  }
  return token;
}

/// Prints the unknown-flag message and returns true when `flags` holds a
/// flag outside `declared`.
bool reject_unknown(const util::Flags& flags, const std::vector<std::string>& declared) {
  const std::string unknown = flags.unknown_flags(declared);
  if (unknown.empty()) return false;
  std::cerr << "haste_serve: " << unknown << "\n";
  return true;
}

int usage() {
  std::cerr << "usage: haste_serve [--listen ADDR] [--token SECRET] [serve flags]\n"
               "       haste_serve --connect HOST:PORT --replay SCENARIO.json"
               " [--verify]\n"
               "       haste_serve --self-test [--sessions N] [--drain]\n"
               "       see the header of tools/haste_serve.cpp for the flag list\n";
  return 2;
}

// ---------------------------------------------------------------- serve mode

int serve_main(const util::Flags& flags) {
  if (reject_unknown(flags, {"listen", "token", "max-sessions", "quota", "threads",
                             "auth-wait", "metrics-listen", "trace-ring", "trace",
                             "flush-ms", "metrics-out"})) {
    return 2;
  }
  serve::ServerOptions options;
  options.listen_address = flags.get("listen", "127.0.0.1:0");
  options.auth_token = token_from(flags);
  options.max_sessions = static_cast<std::size_t>(flags.get_int("max-sessions", 256));
  options.arrival_quota = static_cast<std::size_t>(flags.get_int("quota", 1024));
  options.threads = static_cast<std::size_t>(flags.get_int("threads", 0));
  options.auth_timeout_seconds = flags.get_double("auth-wait", 2.0);
  options.metrics_address = flags.get("metrics-listen");

  const long ring = flags.get_int("trace-ring", 0);
  if (ring > 0) {
    obs::Tracer::instance().set_ring_capacity(static_cast<std::size_t>(ring));
  }
  std::string trace_path = flags.get("trace");
  if (trace_path.empty()) {
    if (const char* env_trace = std::getenv("HASTE_TRACE")) trace_path = env_trace;
  }
  if (!trace_path.empty()) {
    obs::Tracer::instance().start_file(trace_path);
    obs::Tracer::instance().process_name("haste_serve daemon");
  }

  serve::Server server(options);
  serve::Server::install_signal_drain(&server);
  // The spawn contract: the bound addresses are flushed to stdout before
  // serving, so a parent scraping the pipe never blocks (the metrics line,
  // when present, precedes the "listening on" line spawners key on).
  if (!server.metrics_address().empty()) {
    std::cout << "haste_serve: metrics on " << server.metrics_address() << std::endl;
  }
  std::cout << "haste_serve: listening on " << server.address() << std::endl;

  // The flusher samples windowed registry deltas into trace counter tracks
  // while the daemon serves; its samples are no-ops unless tracing is on.
  std::unique_ptr<obs::MetricsFlusher> flusher;
  const long flush_ms = flags.get_int("flush-ms", 0);
  if (!trace_path.empty() && flush_ms > 0) {
    flusher = std::make_unique<obs::MetricsFlusher>(static_cast<int>(flush_ms));
  }

  server.run();

  if (flusher) flusher->stop();  // final window before the trace is written
  if (!trace_path.empty()) {
    obs::Tracer::instance().stop();
    std::cout << "trace written to " << trace_path << "\n";
  }
  const std::string metrics_path = flags.get("metrics-out");
  if (!metrics_path.empty()) {
    util::save_json_file(metrics_path, obs::MetricsRegistry::instance().snapshot().to_json());
    std::cout << "metrics written to " << metrics_path << "\n";
  }
  std::cout << "haste_serve: drained\n";
  return 0;
}

// --------------------------------------------------------------- replay mode

dist::OnlineConfig config_from_flags(const util::Flags& flags, std::uint64_t seed) {
  // Round-trip through the wire codec so strategy/mode names are parsed in
  // exactly one place (serve/session.cpp).
  Json json = serve::online_config_to_json(dist::OnlineConfig{});
  json.set("strategy", flags.get("strategy", "haste"));
  json.set("colors", static_cast<int>(flags.get_int("colors", 4)));
  json.set("samples", static_cast<int>(flags.get_int("samples", 16)));
  json.set("seed", std::to_string(seed));
  return serve::online_config_from_json(json);
}

int replay_main(const util::Flags& flags) {
  if (reject_unknown(flags, {"connect", "replay", "verify", "token", "strategy", "colors",
                             "samples", "seed", "sleep-ms"})) {
    return 2;
  }
  const std::string address = flags.get("connect");
  const std::string scenario_path = flags.get("replay");
  if (scenario_path.empty()) {
    std::cerr << "haste_serve: --connect requires --replay SCENARIO.json\n";
    return usage();
  }
  const haste::model::Network net =
      io::network_from_json(util::load_json_file(scenario_path));
  const dist::OnlineConfig config =
      config_from_flags(flags, static_cast<std::uint64_t>(flags.get_int("seed", 1)));
  const std::vector<serve::ReplayEvent> events = serve::build_replay_events(net);

  const serve::ReplayOutcome outcome =
      serve::replay_online(address, token_from(flags), net, config, events,
                           static_cast<int>(flags.get_int("sleep-ms", 0)));
  if (!outcome.finished) {
    std::cerr << "haste_serve: session ended without a result ("
              << outcome.acked.size() << "/" << events.size() << " events acked, "
              << outcome.rejected << " rejected)\n";
    return 1;
  }
  std::cout << "result: weighted_utility="
            << outcome.result.at("weighted_utility").as_number()
            << " negotiations=" << outcome.result.at("negotiations").as_string()
            << " acked=" << outcome.acked.size() << "/" << events.size() << "\n";

  if (flags.get_bool("verify")) {
    if (outcome.acked.size() != events.size()) {
      std::cerr << "VERIFY FAILED: " << outcome.rejected
                << " events rejected; the daemon run is not comparable\n";
      return 1;
    }
    const std::string diff = serve::diff_result(outcome.result, dist::run_online(net, config));
    if (!diff.empty()) {
      std::cerr << "VERIFY FAILED: " << diff << "\n";
      return 1;
    }
    std::cout << "verify: daemon result bit-identical to the in-process driver\n";
  }
  return 0;
}

// ------------------------------------------------------------ self-test mode

/// Reads the child daemon's stdout until the "listening on" line appears.
/// The metrics listener's address line precedes it; when `metrics_address`
/// is non-null, it receives that address (or stays empty if the child has
/// no metrics listener).
std::string wait_for_address(util::Subprocess& child, double timeout_seconds,
                             std::string* metrics_address = nullptr) {
  static const std::string kPrefix = "haste_serve: listening on ";
  static const std::string kMetricsPrefix = "haste_serve: metrics on ";
  util::LineBuffer lines;
  const auto deadline = std::chrono::steady_clock::now() +
                        std::chrono::duration<double>(timeout_seconds);
  for (;;) {
    if (std::chrono::steady_clock::now() > deadline) {
      throw std::runtime_error("child daemon did not report its address in time");
    }
    if (util::poll_readable({child.stdout_fd()}, 200).empty()) continue;
    char buffer[4096];
    const ssize_t n = ::read(child.stdout_fd(), buffer, sizeof(buffer));
    if (n < 0 && errno == EINTR) continue;
    if (n <= 0) {
      throw std::runtime_error("child daemon exited before reporting its address");
    }
    for (const std::string& line : lines.feed(buffer, static_cast<std::size_t>(n))) {
      if (metrics_address != nullptr && line.rfind(kMetricsPrefix, 0) == 0) {
        *metrics_address = line.substr(kMetricsPrefix.size());
      }
      if (line.rfind(kPrefix, 0) == 0) return line.substr(kPrefix.size());
    }
  }
}

/// One metrics scrape over raw TCP: sends an HTTP GET line and reads the
/// response to EOF. Returns the full response (headers + body).
std::string scrape_metrics(const std::string& address) {
  util::TcpSocket socket = util::TcpSocket::connect(address);
  socket.write_all("GET /metrics HTTP/1.0\r\n\r\n");
  std::string response;
  char buffer[4096];
  const auto deadline =
      std::chrono::steady_clock::now() + std::chrono::seconds(10);
  for (;;) {
    if (std::chrono::steady_clock::now() > deadline) {
      throw std::runtime_error("metrics scrape timed out");
    }
    if (util::poll_readable({socket.fd()}, 200).empty()) continue;
    const ssize_t n = ::read(socket.fd(), buffer, sizeof(buffer));
    if (n < 0 && (errno == EINTR || errno == EAGAIN)) continue;
    if (n <= 0) return response;  // server closed: the response is complete
    response.append(buffer, static_cast<std::size_t>(n));
  }
}

struct SessionPlan {
  haste::model::Network net;
  dist::OnlineConfig config;
  std::vector<serve::ReplayEvent> events;
};

/// A distinct small scenario + config per session so concurrent sessions
/// cannot accidentally pass by sharing state.
SessionPlan make_plan(std::uint64_t seed) {
  sim::ScenarioConfig scenario = sim::ScenarioConfig::small_scale();
  scenario.chargers = 3;
  scenario.tasks = 6;
  util::Rng rng(util::Rng::stream_seed(0xbadc0ffeULL, seed));
  SessionPlan plan{sim::generate_scenario(scenario, rng), dist::OnlineConfig{}, {}};
  plan.config.colors = 2;
  plan.config.samples = 4;
  plan.config.seed = 1000 + seed;
  plan.events = serve::build_replay_events(plan.net);
  return plan;
}

/// Validates the child's --metrics-out snapshot: the replan latency
/// histogram (with its derived p99) must be present once any session
/// re-planned, and the lifecycle counters must be coherent.
std::string check_metrics(const std::string& path, std::size_t expect_finished) {
  const Json metrics = util::load_json_file(path);
  if (!metrics.contains("histograms")) return "metrics file lacks histograms";
  const Json& histograms = metrics.at("histograms");
  if (!histograms.contains("online.replan.latency_us")) {
    return "metrics lack the online.replan.latency_us histogram";
  }
  const Json& latency = histograms.at("online.replan.latency_us");
  if (!latency.contains("p99") || !latency.contains("p50")) {
    return "online.replan.latency_us lacks p50/p99 quantiles";
  }
  std::cout << "self-test: online.replan.latency_us p99 <= "
            << latency.at("p99").as_number() << " us over "
            << latency.at("count").as_string() << " re-plans\n";
  if (expect_finished > 0) {
    const std::string finished =
        metrics.at("counters").at("serve.sessions.finished").as_string();
    if (finished != std::to_string(expect_finished)) {
      return "serve.sessions.finished is " + finished + ", expected " +
             std::to_string(expect_finished);
    }
  }
  return "";
}

int self_test_main(const util::Flags& flags, const std::string& self) {
  if (reject_unknown(flags,
                     {"self-test", "sessions", "drain", "seed", "metrics-out", "trace"})) {
    return 2;
  }
  const auto sessions = static_cast<std::size_t>(flags.get_int("sessions", 8));
  const bool drain = flags.get_bool("drain");
  const auto base_seed = static_cast<std::uint64_t>(flags.get_int("seed", 7));
  const std::string token = "haste-serve-self-test";
  const std::string metrics_path = flags.get("metrics-out", "haste_serve_selftest_metrics.json");

  std::vector<std::string> argv = {self,
                                   "--listen",
                                   "127.0.0.1:0",
                                   "--token",
                                   token,
                                   "--threads",
                                   "2",
                                   "--max-sessions",
                                   std::to_string(sessions + 8),
                                   "--metrics-out",
                                   metrics_path,
                                   "--metrics-listen",
                                   "127.0.0.1:0"};
  const std::string trace_path = flags.get("trace");
  if (!trace_path.empty()) {
    argv.push_back("--trace");
    argv.push_back(trace_path);
  }
  util::Subprocess child = util::Subprocess::spawn(argv);
  std::string metrics_address;
  const std::string address = wait_for_address(child, 30.0, &metrics_address);
  std::cout << "self-test: child daemon pid " << child.pid() << " on " << address
            << ", " << sessions << " concurrent session(s)"
            << (drain ? ", drained mid-stream" : "") << "\n";

  // With --drain the clients pace their stream so SIGTERM lands mid-session;
  // the race is benign in both directions (a client that finished first just
  // verifies its complete trace).
  const int sleep_ms = drain ? 80 : 0;
  std::vector<std::string> errors(sessions);
  std::vector<std::thread> clients;
  clients.reserve(sessions);
  for (std::size_t i = 0; i < sessions; ++i) {
    clients.emplace_back([&, i] {
      try {
        const SessionPlan plan = make_plan(base_seed + i);
        const serve::ReplayOutcome outcome =
            serve::replay_online(address, token, plan.net, plan.config, plan.events, sleep_ms);
        if (!outcome.finished) {
          errors[i] = "session ended without a result";
          return;
        }
        // The daemon's result must be bit-identical to the in-process driver
        // fed exactly the events the daemon acknowledged (which is all of
        // them unless the drain cut the stream short).
        const dist::OnlineResult reference =
            serve::replay_locally(plan.net, plan.config, outcome.acked);
        errors[i] = serve::diff_result(outcome.result, reference);
        if (errors[i].empty() && outcome.acked.size() == plan.events.size()) {
          // Complete traces must also match the one-shot entry point.
          errors[i] = serve::diff_result(outcome.result,
                                         dist::run_online(plan.net, plan.config));
          if (!errors[i].empty()) errors[i] += " (vs run_online)";
        }
      } catch (const std::exception& error) {
        errors[i] = error.what();
      }
    });
  }

  if (drain) {
    std::this_thread::sleep_for(std::chrono::milliseconds(200));
    child.kill(SIGTERM);
  }
  for (std::thread& client : clients) client.join();

  // Scrape the live daemon's metrics endpoint before asking it to exit: the
  // text exposition must carry the replan-latency quantiles. (Skipped in the
  // drain variant — the daemon is already on its way down there.)
  std::string scrape_error;
  if (!drain) {
    try {
      if (metrics_address.empty()) {
        scrape_error = "child daemon never reported its metrics address";
      } else {
        const std::string response = scrape_metrics(metrics_address);
        for (const char* needle :
             {"online.replan.latency_us.p50 ", "online.replan.latency_us.p99 ",
              "serve.sessions.finished "}) {
          if (response.find(needle) == std::string::npos) {
            scrape_error = std::string("metrics scrape lacks \"") + needle + "\"";
            break;
          }
        }
      }
    } catch (const std::exception& error) {
      scrape_error = error.what();
    }
  }

  if (!drain) child.kill(SIGTERM);

  const util::ExitStatus status = child.wait();
  int failures = 0;
  for (std::size_t i = 0; i < sessions; ++i) {
    if (!errors[i].empty()) {
      std::cerr << "SELF-TEST FAILED: session " << i << ": " << errors[i] << "\n";
      ++failures;
    }
  }
  if (!(status.exited && status.exit_code == 0)) {
    std::cerr << "SELF-TEST FAILED: child daemon " << status.describe()
              << " (want exit 0 after drain)\n";
    ++failures;
  }
  if (!scrape_error.empty()) {
    std::cerr << "SELF-TEST FAILED: live metrics scrape: " << scrape_error << "\n";
    ++failures;
  }
  const std::string metrics_error = check_metrics(metrics_path, drain ? 0 : sessions);
  if (!metrics_error.empty()) {
    std::cerr << "SELF-TEST FAILED: " << metrics_error << "\n";
    ++failures;
  }
  if (failures > 0) return 1;
  std::cout << "self-test: " << sessions << " session(s) bit-identical, clean drain\n";
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  try {
    const util::Flags flags = util::Flags::parse(argc, argv);
    if (!flags.positional().empty()) return usage();
    if (flags.get_bool("self-test")) return self_test_main(flags, self_path(argv[0]));
    if (flags.has("connect")) return replay_main(flags);
    return serve_main(flags);
  } catch (const std::exception& error) {
    std::cerr << "haste_serve: " << error.what() << "\n";
    return 1;
  }
}
