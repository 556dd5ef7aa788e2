// haste_shard — process-sharded Monte-Carlo experiment runner.
//
// Driver mode (default): partitions (trial, x-point) work into deterministic
// shards, farms them out to crash-isolated workers (local fork+pipe
// subprocesses, remote TCP connections, or both in one pool), streams
// per-shard RunMetrics back as JSON lines, and merges them into exactly what
// the in-process run_trials/sweep would have produced. A worker that
// crashes, disconnects, hangs past --shard-timeout, or emits malformed
// output has its shard requeued (bounded retries) onto a surviving worker;
// per-shard telemetry goes to --manifest.
//
// Flags:
//   --preset paper|small     scenario preset (default paper)
//   --chargers N, --tasks M  override the preset's sizes
//   --variants offline|online  comparison set (default offline)
//   --trials N               Monte-Carlo trials per x-point (default 100)
//   --seed S                 base RNG seed (default 2018)
//   --sweep-tasks a,b,c      sweep the task count over these x-values
//                            (omit for a single panel)
//   --workers W              local worker processes (default 2;
//                            0 with --serve)
//   --shard-trials K         trials per shard (default: ~4 shards/worker)
//   --no-adaptive            disable work-stealing shard splitting (wide
//                            shards are split at assignment time to keep the
//                            pool busy; results are bit-identical either way)
//   --min-steal-trials K     smallest chunk a split may carve off (default 2)
//   --shard-timeout SEC      kill + requeue a shard past this (default 300)
//   --manifest PATH          write per-shard attempt telemetry JSON
//   --out PATH               write the merged summary JSON
//   --verify                 also run the in-process path and fail (exit 1)
//                            unless the merged results are bit-identical
//   --inject LIST            fault injection for testing, e.g. "0:crash" or
//                            "0:crash,2:garbage,3:hang" (first attempt only)
//   --worker-bin PATH        worker executable (default: this binary)
//
// Observability:
//   --trace FILE             write a Chrome trace-event JSON of the run
//                            (load in Perfetto / chrome://tracing). Worker
//                            spans are collected over the wire and merged,
//                            so each worker shows up as its own process.
//                            HASTE_TRACE=FILE is the env equivalent.
//   --metrics-out FILE       write the driver's metric registry plus the
//                            merged worker metrics as JSON
//   --trace-ring N           cap the tracer's event buffer at N events
//                            (drop-oldest; drops count under trace.dropped)
//   --flush-ms MS            sample windowed registry deltas into trace
//                            counter tracks every MS milliseconds
//
// TCP transport (multi-host):
//   --serve HOST:PORT        listen for TCP workers and add them to the pool
//                            (PORT 0 picks an ephemeral port; the bound
//                            address is logged). Defaults --workers to 0.
//   --tcp-workers N          TCP worker connections to admit (default 2
//                            with --serve)
//   --tcp-spawn              loopback convenience: spawn the TCP workers
//                            locally as `--connect` subprocesses aimed at
//                            the bound port
//   --connect-wait SEC       give up if no worker joins in time (default 30)
//   --token SECRET           per-run shared secret: every TCP worker must
//                            present it as its first line or the connection
//                            is dropped before any shard flows. Defaults to
//                            $HASTE_SHARD_TOKEN; empty = accept anyone
//                            (trusted networks only). --tcp-spawn forwards
//                            the token to the workers it spawns.
//
// Worker modes:
//   `haste_shard --worker` serves shard requests on stdin until EOF;
//   `haste_shard --connect HOST:PORT [--token SECRET]` dials a `--serve`
//   driver and serves the same protocol over the socket ($HASTE_SHARD_TOKEN
//   is honored there too). See src/sim/shard.hpp.
//
// In every mode a flag the mode does not read exits 2 with a message naming
// it.
#include <unistd.h>

#include <cstdlib>
#include <iostream>
#include <memory>
#include <sstream>
#include <string>
#include <vector>

#include "obs/metrics.hpp"
#include "obs/trace.hpp"
#include "sim/shard.hpp"
#include "util/cli.hpp"
#include "util/json.hpp"
#include "util/table.hpp"

namespace {

using namespace haste;

std::string self_path(const char* argv0) {
  char buffer[4096];
  const ssize_t n = ::readlink("/proc/self/exe", buffer, sizeof(buffer) - 1);
  if (n > 0) {
    buffer[n] = '\0';
    return buffer;
  }
  return argv0;
}

std::vector<double> parse_double_list(const std::string& text) {
  std::vector<double> values;
  std::stringstream stream(text);
  std::string item;
  while (std::getline(stream, item, ',')) {
    if (!item.empty()) values.push_back(std::stod(item));
  }
  return values;
}

std::map<int, std::string> parse_inject(const std::string& text) {
  std::map<int, std::string> inject;
  std::stringstream stream(text);
  std::string item;
  while (std::getline(stream, item, ',')) {
    const std::size_t colon = item.find(':');
    if (colon == std::string::npos) {
      throw std::invalid_argument("--inject entries must look like SHARD:MODE");
    }
    inject[std::stoi(item.substr(0, colon))] = item.substr(colon + 1);
  }
  return inject;
}

bool metrics_equal(const sim::RunMetrics& a, const sim::RunMetrics& b) {
  return a.weighted_utility == b.weighted_utility &&
         a.normalized_utility == b.normalized_utility &&
         a.relaxed_utility == b.relaxed_utility && a.task_utility == b.task_utility &&
         a.switches == b.switches && a.messages == b.messages &&
         a.deliveries == b.deliveries && a.rounds == b.rounds &&
         a.negotiations == b.negotiations && a.exact == b.exact;
}

bool results_equal(const sim::TrialResults& a, const sim::TrialResults& b) {
  if (a.size() != b.size()) return false;
  for (const auto& [label, runs] : a) {
    const auto it = b.find(label);
    if (it == b.end() || it->second.size() != runs.size()) return false;
    for (std::size_t t = 0; t < runs.size(); ++t) {
      if (!metrics_equal(runs[t], it->second[t])) return false;
    }
  }
  return true;
}

void print_summary(double x, const std::map<std::string, sim::UtilitySummary>& summaries,
                   util::Table& table) {
  for (const auto& [label, summary] : summaries) {
    table.add_row({util::format_fixed(x, 2), label, util::format_fixed(summary.mean, 4),
                   util::format_fixed(summary.ci95, 4)});
  }
}

int usage() {
  std::cerr << "usage: haste_shard [driver flags]\n"
               "       haste_shard --worker            (serve shards on stdin)\n"
               "       haste_shard --connect HOST:PORT (serve shards over TCP)\n"
               "       see the header of tools/haste_shard.cpp for the flag list\n";
  return 2;
}

/// Prints the unknown-flag message and returns true when `flags` holds a
/// flag outside `declared`.
bool reject_unknown(const util::Flags& flags, const std::vector<std::string>& declared) {
  const std::string unknown = flags.unknown_flags(declared);
  if (unknown.empty()) return false;
  std::cerr << "haste_shard: " << unknown << "\n";
  return true;
}

}  // namespace

int main(int argc, char** argv) {
  const util::Flags flags = util::Flags::parse(argc, argv);
  // The auth token of the driver and of a TCP worker; spawned workers also
  // inherit it via HASTE_SHARD_TOKEN.
  std::string token = flags.get("token");
  if (!flags.has("token")) {
    if (const char* env_token = std::getenv("HASTE_SHARD_TOKEN")) token = env_token;
  }
  // Worker modes: serve shard requests, no driver flags. Workers never read
  // HASTE_TRACE: tracing there is driven by the wire protocol, so a driver
  // tracing to a file cannot make its spawned workers clobber that file.
  if (flags.has("worker")) {
    if (reject_unknown(flags, {"worker"})) return 2;
    return sim::shard_worker_main(std::cin, std::cout);
  }
  if (flags.has("connect")) {
    if (reject_unknown(flags, {"connect", "token"})) return 2;
    if (flags.get("connect").empty()) return usage();
    return sim::shard_worker_connect(flags.get("connect"), token);
  }
  if (reject_unknown(flags, {"preset", "chargers", "tasks", "variants", "trials", "seed",
                             "worker-bin", "serve", "workers", "tcp-workers", "token",
                             "tcp-spawn", "connect-wait", "shard-trials", "no-adaptive",
                             "min-steal-trials", "shard-timeout", "manifest", "inject",
                             "trace-ring", "trace", "metrics-out", "flush-ms",
                             "sweep-tasks", "verify", "out"})) {
    return 2;
  }

  try {

    sim::ScenarioConfig config = flags.get("preset", "paper") == "small"
                                     ? sim::ScenarioConfig::small_scale()
                                     : sim::ScenarioConfig::paper_default();
    config.chargers = static_cast<int>(flags.get_int("chargers", config.chargers));
    config.tasks = static_cast<int>(flags.get_int("tasks", config.tasks));

    const std::string variant_set = flags.get("variants", "offline");
    if (variant_set != "offline" && variant_set != "online") {
      std::cerr << "haste_shard: --variants must be offline or online\n";
      return usage();
    }
    const std::vector<sim::Variant> variants =
        variant_set == "online" ? sim::online_variants() : sim::offline_variants();

    const int trials = static_cast<int>(flags.get_int("trials", 100));
    const auto seed = static_cast<std::uint64_t>(flags.get_int("seed", 2018));

    sim::ShardOptions options;
    const std::string worker_bin = flags.get("worker-bin", self_path(argv[0]));
    options.listen_address = flags.get("serve");
    const bool serving = !options.listen_address.empty();
    // With --serve the pool is TCP-first: local subprocesses join only when
    // --workers is set explicitly alongside it.
    options.workers = static_cast<int>(flags.get_int("workers", serving ? 0 : 2));
    options.worker_argv = {worker_bin, "--worker"};
    options.tcp_workers = static_cast<int>(flags.get_int("tcp-workers", serving ? 2 : 0));
    options.auth_token = token;  // --token / $HASTE_SHARD_TOKEN
    if (flags.get_bool("tcp-spawn")) {
      // The token rides ahead of --connect so the worker fast path has it
      // before dialing (the transport appends the bound address last).
      if (!options.auth_token.empty()) {
        options.tcp_spawn_argv = {worker_bin, "--token", options.auth_token, "--connect"};
      } else {
        options.tcp_spawn_argv = {worker_bin, "--connect"};
      }
    }
    options.connect_wait_seconds = flags.get_double("connect-wait", 30.0);
    options.trials_per_shard = static_cast<int>(flags.get_int("shard-trials", 0));
    options.adaptive_shards = !flags.get_bool("no-adaptive");
    options.min_steal_trials = static_cast<int>(flags.get_int("min-steal-trials", 2));
    options.shard_timeout_seconds = flags.get_double("shard-timeout", 300.0);
    options.manifest_path = flags.get("manifest");
    if (flags.has("inject")) {
      options.inject_first_attempt = parse_inject(flags.get("inject"));
    }

    const long ring = flags.get_int("trace-ring", 0);
    if (ring > 0) {
      obs::Tracer::instance().set_ring_capacity(static_cast<std::size_t>(ring));
    }
    std::string trace_path = flags.get("trace");
    if (trace_path.empty()) {
      if (const char* env_trace = std::getenv("HASTE_TRACE")) trace_path = env_trace;
    }
    const std::string metrics_path = flags.get("metrics-out");
    obs::MetricsSnapshot worker_metrics;
    options.collect_obs = !trace_path.empty() || !metrics_path.empty();
    if (options.collect_obs) options.worker_metrics_out = &worker_metrics;
    if (!trace_path.empty()) {
      obs::Tracer::instance().start_file(trace_path);
      obs::Tracer::instance().process_name("haste_shard driver");
    }
    // Periodic counter sampling while the run is in flight (no-op samples
    // unless the tracer is on); stopped — with one final window — before
    // the trace file is written.
    std::unique_ptr<obs::MetricsFlusher> flusher;
    const long flush_ms = flags.get_int("flush-ms", 0);
    if (!trace_path.empty() && flush_ms > 0) {
      flusher = std::make_unique<obs::MetricsFlusher>(static_cast<int>(flush_ms));
    }

    util::Table table({"x", "variant", "mean_utility", "ci95"});
    util::Json out_json = util::Json::object();
    bool verified_ok = true;

    if (flags.has("sweep-tasks")) {
      const std::vector<double> xs = parse_double_list(flags.get("sweep-tasks"));
      std::vector<sim::ScenarioConfig> configs;
      for (double x : xs) {
        sim::ScenarioConfig point = config;
        point.tasks = static_cast<int>(x);
        configs.push_back(point);
      }
      const sim::SweepSeries sharded =
          sim::sweep_sharded(xs, configs, variants, trials, seed, options);
      for (std::size_t x = 0; x < xs.size(); ++x) {
        std::map<std::string, sim::UtilitySummary> summaries;
        for (const auto& [label, means] : sharded.series) {
          summaries[label] = {means[x], sharded.ci95.at(label)[x]};
        }
        print_summary(xs[x], summaries, table);
      }
      util::Json series = util::Json::object();
      for (const auto& [label, means] : sharded.series) {
        util::Json entry = util::Json::object();
        util::Json mean_array = util::Json::array();
        util::Json ci_array = util::Json::array();
        for (std::size_t x = 0; x < xs.size(); ++x) {
          mean_array.push_back(means[x]);
          ci_array.push_back(sharded.ci95.at(label)[x]);
        }
        entry.set("mean", std::move(mean_array));
        entry.set("ci95", std::move(ci_array));
        series.set(label, std::move(entry));
      }
      out_json.set("series", std::move(series));

      if (flags.get_bool("verify")) {
        std::size_t next = 0;
        const sim::SweepSeries reference = sim::sweep(
            xs, [&](double) { return configs[next++]; }, variants, trials, seed);
        verified_ok = sharded.series == reference.series && sharded.ci95 == reference.ci95;
      }
    } else {
      const sim::TrialResults sharded =
          sim::run_trials_sharded(config, variants, trials, seed, options);
      const auto summaries = sim::utility_summary(sharded);
      print_summary(0.0, summaries, table);
      util::Json series = util::Json::object();
      for (const auto& [label, summary] : summaries) {
        util::Json entry = util::Json::object();
        entry.set("mean", summary.mean);
        entry.set("ci95", summary.ci95);
        series.set(label, std::move(entry));
      }
      out_json.set("series", std::move(series));

      if (flags.get_bool("verify")) {
        const sim::TrialResults reference =
            sim::run_trials(config, variants, trials, seed);
        verified_ok = results_equal(sharded, reference);
      }
    }

    table.print(std::cout);
    if (flusher) flusher->stop();
    if (!trace_path.empty()) {
      obs::Tracer::instance().stop();
      std::cout << "trace written to " << trace_path << "\n";
    }
    if (!metrics_path.empty()) {
      util::Json metrics_json = util::Json::object();
      metrics_json.set("driver", obs::MetricsRegistry::instance().snapshot().to_json());
      metrics_json.set("workers", worker_metrics.to_json());
      util::save_json_file(metrics_path, metrics_json);
      std::cout << "metrics written to " << metrics_path << "\n";
    }
    if (!options.manifest_path.empty()) {
      std::cout << "manifest written to " << options.manifest_path << "\n";
    }
    if (!flags.get("out").empty()) {
      util::save_json_file(flags.get("out"), out_json);
      std::cout << "summary written to " << flags.get("out") << "\n";
    }
    if (flags.get_bool("verify")) {
      if (!verified_ok) {
        std::cerr << "VERIFY FAILED: sharded results differ from the in-process path\n";
        return 1;
      }
      std::cout << "verify: sharded results bit-identical to the in-process path\n";
    }
    return 0;
  } catch (const std::exception& error) {
    std::cerr << "haste_shard: " << error.what() << "\n";
    return 1;
  }
}
