// serve-bursty: two lock-step loopback clients against an in-process
// serve::Server (2-thread re-plan pool). Each client replays whole sessions
// back to back — open, the arrival/failure lines, finish — over a fresh
// connection per session, on 20-charger/80-task bursty-hotspot instances
// with the predictor on at its defaults and two charger failures each.
#include <algorithm>
#include <atomic>
#include <cstring>
#include <map>
#include <memory>
#include <thread>

#include "core/dominant_sets.hpp"
#include "core/evaluate.hpp"
#include "io/scenario_io.hpp"
#include "serve/client.hpp"
#include "serve/server.hpp"
#include "serve/session.hpp"
#include "workloads.hpp"

namespace perfbench {

namespace {

namespace dist = haste::dist;
namespace io = haste::io;
namespace serve = haste::serve;
using haste::model::Network;

struct Script {
  std::unique_ptr<Network> net;
  Json scenario;
  std::vector<serve::ReplayEvent> events;
  Json open;
  std::vector<Json> lines;  ///< arrive/fail requests in replay order
  std::vector<bool> is_arrival;
  Json finish;
  dist::OnlineResult reference;
};

/// Runs the daemon on its own thread; drains it and joins the thread on
/// destruction, so no exit path leaves the thread running. If run() throws,
/// the message lands in `error`, which the caller reads after destruction.
class DaemonThread {
 public:
  DaemonThread(serve::Server& server, std::string& error)
      : server_(server), thread_([&server, &error] {
          try {
            server.run();
          } catch (const std::exception& e) {
            error = e.what();
          }
        }) {}
  ~DaemonThread() {
    server_.request_drain();
    thread_.join();
  }
  DaemonThread(const DaemonThread&) = delete;
  DaemonThread& operator=(const DaemonThread&) = delete;

 private:
  serve::Server& server_;
  std::thread thread_;
};

/// What one client thread saw; merged after the timed phase.
struct ClientStats {
  Samples plan_ms;
  Samples plan_ms_traced;
  Samples utility;
  std::uint64_t ops = 0;
  std::uint64_t attempted = 0;
  std::uint64_t plans = 0;
  std::uint64_t messages = 0;
  std::uint64_t rounds = 0;
  std::uint64_t row_evals = 0;
  std::uint64_t deliveries = 0;
  std::uint64_t hits = 0;
  std::uint64_t misses = 0;
  std::uint64_t arrive_lines = 0;
  std::uint64_t deferred_arrivals = 0;
  std::vector<std::string> errors;
  std::uint64_t failed = 0;
  std::map<std::size_t, std::string> schedules;  ///< first result per script, for the digest

  void fail(const std::string& what) {
    ++failed;
    if (errors.size() < 5) errors.push_back(what);
  }
};

std::uint64_t u64_field(const Json& reply, const char* key) {
  return std::stoull(reply.at(key).as_string());
}

/// Plays one session over a fresh connection; returns the finish reply, or
/// null after recording why the session broke off.
Json play_session(const Script& script, std::size_t index, const std::string& address,
                  Track& track, ClientStats& stats) {
  auto root = track.span("serve.session");
  serve::Client client(address);
  Json reply;
  {
    auto span = track.span("serve.open");
    reply = client.call(script.open);
  }
  ++stats.attempted;
  ++stats.ops;
  if (!reply.bool_or("ok", false)) {
    stats.fail("script " + std::to_string(index) + ": open refused: " + reply.dump());
    return Json();
  }
  for (std::size_t e = 0; e < script.lines.size(); ++e) {
    const std::int64_t start = now_ns();
    bool replanned = false;
    {
      auto span = track.span("serve.replan");
      reply = client.call(script.lines[e]);
      replanned = reply.bool_or("replanned", false);
      if (!replanned) span.rename("serve.deferred");
    }
    const double ms = ns_to_ms(now_ns() - start);
    ++stats.attempted;
    ++stats.ops;
    if (!reply.bool_or("ok", false)) {
      stats.fail("script " + std::to_string(index) + ": line refused: " + reply.dump());
      return Json();
    }
    if (script.is_arrival[e]) {
      ++stats.arrive_lines;
      if (!replanned) ++stats.deferred_arrivals;
    }
    if (replanned) {
      (track.active() ? stats.plan_ms_traced : stats.plan_ms).add(ms);
      ++stats.plans;
      stats.messages += u64_field(reply, "messages");
      stats.rounds += u64_field(reply, "rounds");
      stats.row_evals += u64_field(reply, "row_evals");
    }
  }
  {
    auto span = track.span("serve.finish");
    reply = client.call(script.finish);
  }
  ++stats.attempted;
  ++stats.ops;
  return reply;
}

/// One session plus the bit-exact check of its result against the local
/// replay (the diff runs after the session span closes).
void run_session(const Script& script, std::size_t index, const std::string& address,
                 Track& track, ClientStats& stats) {
  const Json reply = play_session(script, index, address, track, stats);
  if (reply.is_null()) return;
  const std::string diff = serve::diff_result(reply, script.reference);
  if (!diff.empty()) {
    stats.fail("script " + std::to_string(index) + ": result differs from replay_locally: " + diff);
    return;
  }
  stats.deliveries += u64_field(reply, "deliveries");
  stats.hits += u64_field(reply.at("predictor"), "hits");
  stats.misses += u64_field(reply.at("predictor"), "misses");
  stats.utility.add(reply.at("weighted_utility").as_number() / script.net->utility_upper_bound());
  if (stats.schedules.count(index) == 0) stats.schedules[index] = reply.at("schedule").dump();
}

}  // namespace

Result run_serve_bursty(const Manifest& manifest, const RunOptions& options) {
  Result result;
  result.plan_span = "serve.session";
  Track setup_track(0);

  // Set-up also binds the daemon and starts its re-plan pool.
  serve::ServerOptions server_options;
  server_options.threads = 2;
  const std::vector<std::string> texts = read_scenarios(manifest);
  setup_track.set_active(options.trace);
  Instances loaded = load_instances(texts, setup_track, true);
  setup_track.set_active(false);
  serve::Server server(server_options);
  SetupTimer setup(options, result.setup_s, [&](Track& quiet) {
    return std::make_pair(load_instances(texts, quiet, true),
                          std::make_unique<serve::Server>(server_options));
  });
  setup.slice();
  std::vector<Script> scripts(manifest.instances.size());
  for (std::size_t i = 0; i < scripts.size(); ++i) {
    scripts[i].scenario = std::move(loaded.scenarios[i]);
    scripts[i].net = std::move(loaded.nets[i]);
  }

  // Requests and bit-exact references, outside the timed phase.
  Json config_json = Json::object();
  Json predictor = Json::object();
  predictor.set("enabled", true);
  config_json.set("predictor", std::move(predictor));
  const dist::OnlineConfig config = serve::online_config_from_json(config_json);
  for (std::size_t i = 0; i < scripts.size(); ++i) {
    Script& script = scripts[i];
    std::vector<dist::ChargerFailure> failures;
    for (const auto& [charger, slot] : manifest.instances[i].failures) {
      failures.push_back(dist::ChargerFailure{charger, slot});
    }
    script.events = serve::build_replay_events(*script.net, failures);
    script.open = Json::object();
    script.open.set("op", "open");
    script.open.set("scenario", script.scenario);
    script.open.set("config", config_json);
    for (const serve::ReplayEvent& event : script.events) {
      Json line = Json::object();
      line.set("op", event.is_failure ? "fail" : "arrive");
      line.set("slot", static_cast<int>(event.slot));
      if (event.is_failure) {
        line.set("charger", static_cast<int>(event.charger));
      } else {
        Json tasks = Json::array();
        for (const auto j : event.tasks) tasks.push_back(static_cast<int>(j));
        line.set("tasks", std::move(tasks));
      }
      script.lines.push_back(std::move(line));
      script.is_arrival.push_back(!event.is_failure);
    }
    script.finish = Json::object();
    script.finish.set("op", "finish");
  }
  // The references are independent of each other; three threads share them.
  std::vector<std::string> reference_errors(scripts.size());
  {
    std::vector<std::jthread> workers;
    for (std::size_t w = 0; w < 3; ++w) {
      workers.emplace_back([&, w] {
        for (std::size_t i = w; i < scripts.size(); i += 3) {
          try {
            scripts[i].reference = serve::replay_locally(*scripts[i].net, config, scripts[i].events);
          } catch (const std::exception& error) {
            reference_errors[i] = error.what();
          }
        }
      });
    }
  }
  for (std::size_t i = 0; i < scripts.size(); ++i) {
    if (!reference_errors[i].empty()) {
      throw std::runtime_error("script " + std::to_string(i) + ": local replay failed: " +
                               reference_errors[i]);
    }
  }

  std::vector<ClientStats> stats(2);
  std::vector<Track> tracks;
  for (int c = 0; c < 2; ++c) tracks.emplace_back(c + 1);
  std::string daemon_error;
  {
    DaemonThread daemon(server, daemon_error);
    const std::string address = server.address();
    {
      // Warm-up: one untimed session on the dedicated script 0.
      ClientStats scratch;
      run_session(scripts[0], 0, address, tracks[0], scratch);
    }

    std::atomic<std::uint64_t> next{0};
    std::atomic<std::uint64_t> plans_done{0};
    TimedPhase phase(options);
    while (phase.running(plans_done.load())) {
      // The clients pause, after their sessions in flight, for each set-up
      // slice.
      const double until = setup.next_due_s();
      {
        std::vector<std::jthread> clients;
        for (int c = 0; c < 2; ++c) {
          clients.emplace_back([&, c] {
            while (phase.running(plans_done.load()) && phase.elapsed_s() < until) {
              const std::uint64_t k = next.fetch_add(1);
              const std::size_t index = 1 + k % (scripts.size() - 1);
              tracks[c].set_active(options.trace && k % 2 == 0);
              try {
                const std::uint64_t before = stats[c].plans;
                run_session(scripts[index], index, address, tracks[c], stats[c]);
                plans_done += stats[c].plans - before;
              } catch (const std::exception& error) {
                stats[c].fail("script " + std::to_string(index) + ": " + error.what());
              }
            }
            tracks[c].set_active(false);
          });
        }
      }
      setup.poll(phase);
    }
    result.timed_s = phase.elapsed_s();
  }
  setup.finish();
  if (!daemon_error.empty()) result.fail("daemon stopped: " + daemon_error);
  ClientStats total;
  for (const ClientStats& s : stats) {
    result.plan_ms.append(s.plan_ms);
    result.plan_ms_traced.append(s.plan_ms_traced);
    result.utility.append(s.utility);
    total.ops += s.ops;
    total.attempted += s.attempted;
    total.plans += s.plans;
    total.messages += s.messages;
    total.rounds += s.rounds;
    total.row_evals += s.row_evals;
    total.deliveries += s.deliveries;
    total.hits += s.hits;
    total.misses += s.misses;
    total.arrive_lines += s.arrive_lines;
    total.deferred_arrivals += s.deferred_arrivals;
    result.failed += s.failed;
    for (const std::string& error : s.errors) {
      if (result.errors.size() < 5) result.errors.push_back(error);
    }
    for (const auto& [index, text] : s.schedules) total.schedules.emplace(index, text);
  }
  result.ops = total.ops;
  result.attempted = total.attempted;
  result.plans = total.plans;
  result.messages = total.messages;
  const double plans = static_cast<double>(std::max<std::uint64_t>(total.plans, 1));
  result.counts["dist.messages"] = static_cast<double>(total.messages) / plans;
  result.counts["dist.rounds"] = static_cast<double>(total.rounds) / plans;
  result.counts["dist.row_evals"] = static_cast<double>(total.row_evals) / plans;
  result.counts["dist.deliveries"] = static_cast<double>(total.deliveries) / plans;
  result.counts["predict.hits"] = static_cast<double>(total.hits) / plans;
  result.counts["predict.misses"] = static_cast<double>(total.misses) / plans;
  result.counts["predict.deferred_ratio"] =
      total.arrive_lines > 0
          ? static_cast<double>(total.deferred_arrivals) / static_cast<double>(total.arrive_lines)
          : 0.0;

  // Checks on each completed script's reference, outside the timed phase:
  // the schedule the daemon returned (bit-identical to the reference, per
  // diff_result) re-evaluates to the reference's utility bits. Its JSON
  // feeds the digest.
  setup_track.set_active(options.trace);
  std::uint64_t digest = fnv1a("");
  std::size_t digested = 0;
  double sets = 0.0;
  for (const auto& [index, reply_schedule] : total.schedules) {
    const Script& script = scripts[index];
    try {
      double utility = 0.0;
      {
        auto span = setup_track.span("core.evaluate");
        utility = haste::core::evaluate_schedule(*script.net, script.reference.schedule).weighted_utility;
      }
      if (std::memcmp(&utility, &script.reference.evaluation.weighted_utility, sizeof(double)) != 0) {
        result.fail("script " + std::to_string(index) + ": reference schedule re-evaluates differently");
      }
    } catch (const std::exception& error) {
      result.fail("script " + std::to_string(index) + ": evaluate_schedule failed: " + error.what());
    }
    std::string text;
    {
      auto span = setup_track.span("io.write");
      text = io::schedule_to_json(script.reference.schedule).dump();
    }
    if (text != reply_schedule) {
      result.fail("script " + std::to_string(index) + ": daemon schedule JSON differs from reference");
    }
    if (digested < 16) {
      digest = fnv1a(text, digest);
      ++digested;
    }
    if (options.trace) {
      auto span = setup_track.span("core.dominant_sets");
      for (haste::model::ChargerIndex c = 0; c < script.net->charger_count(); ++c) {
        sets += static_cast<double>(haste::core::extract_dominant_sets(*script.net, c).size());
      }
    }
  }
  setup_track.set_active(false);
  if (!total.schedules.empty()) {
    result.counts["core.dominant_sets"] = sets / static_cast<double>(total.schedules.size());
  }
  result.digest = hex64(digest);
  result.digest_scope = "result schedule JSON of the first " + std::to_string(digested) +
                        " scripts by index";
  result.tracks.push_back(std::move(setup_track));
  for (Track& track : tracks) result.tracks.push_back(std::move(track));
  return result;
}

}  // namespace perfbench
