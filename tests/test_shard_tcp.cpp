// Transport fault-injection battery for the shard runner's TCP path
// (sim/shard.hpp). This binary has a custom main: `--worker` serves shard
// requests on stdin and `--connect HOST:PORT` dials a driver over TCP, so
// every test spawns this very executable as its worker fleet — the sharded
// code under test and the in-process reference share one binary, the
// precondition for bit-identical differential checks.
//
// All listeners bind 127.0.0.1:0 (ephemeral) and the TcpTransport spawns the
// --connect workers itself with the actually-bound address, so the suite is
// port-collision-free under ctest -j.
#include <gtest/gtest.h>
#include <unistd.h>

#include <cerrno>
#include <chrono>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <iostream>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "obs/metrics.hpp"
#include "obs/trace.hpp"
#include "sim/shard.hpp"
#include "util/json.hpp"
#include "util/socket.hpp"
#include "util/subprocess.hpp"

namespace haste::sim {
namespace {

std::string self_exe() {
  char buffer[4096];
  const ssize_t n = ::readlink("/proc/self/exe", buffer, sizeof(buffer) - 1);
  if (n <= 0) throw std::runtime_error("readlink /proc/self/exe failed");
  buffer[n] = '\0';
  return buffer;
}

ScenarioConfig tiny_config() {
  ScenarioConfig config = ScenarioConfig::small_scale();
  config.chargers = 3;
  config.tasks = 6;
  return config;
}

std::vector<Variant> tiny_variants() {
  return {
      {"HASTE C=1", Algorithm::kOfflineHaste, AlgoParams{1, 1, 1}},
      {"GreedyCover", Algorithm::kOfflineGreedyCover, AlgoParams{}},
      // An online variant so the uint64 message counters cross the wire too.
      {"HASTE-DO C=1", Algorithm::kOnlineHaste, AlgoParams{1, 1, 1}},
  };
}

/// A pure-TCP pool over loopback: listen on an ephemeral port and have the
/// transport spawn `tcp_workers` copies of this binary in --connect mode.
ShardOptions tcp_options(int tcp_workers) {
  ShardOptions options;
  options.workers = 0;
  options.worker_argv.clear();  // no subprocess transport
  options.listen_address = "127.0.0.1:0";
  options.tcp_workers = tcp_workers;
  options.tcp_spawn_argv = {self_exe(), "--connect"};
  options.trials_per_shard = 2;
  options.shard_timeout_seconds = 120.0;
  return options;
}

bool metrics_equal(const RunMetrics& a, const RunMetrics& b) {
  return a.weighted_utility == b.weighted_utility &&
         a.normalized_utility == b.normalized_utility &&
         a.relaxed_utility == b.relaxed_utility && a.task_utility == b.task_utility &&
         a.switches == b.switches && a.messages == b.messages &&
         a.deliveries == b.deliveries && a.rounds == b.rounds &&
         a.negotiations == b.negotiations && a.exact == b.exact;
}

void expect_results_equal(const TrialResults& sharded, const TrialResults& reference) {
  ASSERT_EQ(sharded.size(), reference.size());
  for (const auto& [label, runs] : reference) {
    ASSERT_TRUE(sharded.count(label)) << label;
    const std::vector<RunMetrics>& other = sharded.at(label);
    ASSERT_EQ(other.size(), runs.size()) << label;
    for (std::size_t t = 0; t < runs.size(); ++t) {
      EXPECT_TRUE(metrics_equal(other[t], runs[t])) << label << " trial " << t;
    }
  }
}

TEST(ShardTcp, TcpPoolMatchesInProcessBitIdentical) {
  const TrialResults reference = run_trials(tiny_config(), tiny_variants(), 7, 2018);
  const TrialResults sharded =
      run_trials_sharded(tiny_config(), tiny_variants(), 7, 2018, tcp_options(3));
  expect_results_equal(sharded, reference);
}

TEST(ShardTcp, MixedSubprocessAndTcpPoolMatchesInProcess) {
  ShardOptions options = tcp_options(1);
  options.worker_argv = {self_exe(), "--worker"};
  options.workers = 1;  // one pipe worker + one TCP worker in the same pool
  const TrialResults reference = run_trials(tiny_config(), tiny_variants(), 8, 515);
  const TrialResults sharded =
      run_trials_sharded(tiny_config(), tiny_variants(), 8, 515, options);
  expect_results_equal(sharded, reference);
}

// The acceptance criterion: a sweep over loopback TCP merges to a SweepSeries
// (means and ci95) bit-identical to the in-process sweep(), including when a
// worker is killed mid-run and its shard requeued.
TEST(ShardTcp, SweepOverTcpMatchesSweepBitIdentical) {
  const std::vector<double> xs = {4.0, 6.0};
  std::vector<ScenarioConfig> configs;
  for (double x : xs) {
    ScenarioConfig config = tiny_config();
    config.tasks = static_cast<int>(x);
    configs.push_back(config);
  }
  const std::vector<Variant> variants = {
      {"HASTE C=1", Algorithm::kOfflineHaste, AlgoParams{1, 1, 1}},
  };
  std::size_t next = 0;
  const SweepSeries reference = sweep(
      xs, [&](double) { return configs[next++]; }, variants, 4, 5);

  const SweepSeries clean = sweep_sharded(xs, configs, variants, 4, 5, tcp_options(2));
  EXPECT_EQ(clean.xs, reference.xs);
  EXPECT_EQ(clean.series, reference.series);
  EXPECT_EQ(clean.ci95, reference.ci95);

  ShardOptions faulty = tcp_options(2);
  faulty.inject_first_attempt[1] = "kill-self";  // SIGKILL mid-run
  const SweepSeries killed = sweep_sharded(xs, configs, variants, 4, 5, faulty);
  EXPECT_EQ(killed.xs, reference.xs);
  EXPECT_EQ(killed.series, reference.series);
  EXPECT_EQ(killed.ci95, reference.ci95);
}

/// Shared body of the fault battery: inject `mode` into one shard's first
/// attempt, run a pure-TCP pool, and require a bit-identical merge.
void expect_tcp_fault_recovered(const std::string& mode, double timeout_seconds,
                                std::uint64_t seed) {
  ShardOptions options = tcp_options(2);
  options.shard_timeout_seconds = timeout_seconds;
  options.inject_first_attempt[1] = mode;
  const TrialResults reference = run_trials(tiny_config(), tiny_variants(), 6, seed);
  const TrialResults sharded =
      run_trials_sharded(tiny_config(), tiny_variants(), 6, seed, options);
  expect_results_equal(sharded, reference);
}

TEST(ShardTcpFaults, WorkerCrashMidShard) { expect_tcp_fault_recovered("crash", 120.0, 31); }

TEST(ShardTcpFaults, WorkerKilledBySignal) {
  expect_tcp_fault_recovered("kill-self", 120.0, 32);
}

TEST(ShardTcpFaults, GarbageResponse) { expect_tcp_fault_recovered("garbage", 120.0, 33); }

TEST(ShardTcpFaults, WorkerDiesMidLine) {
  // Half a result line, then death: the driver must treat the truncated
  // partial() as a failed attempt, not a short read to wait on.
  expect_tcp_fault_recovered("partial", 120.0, 34);
}

TEST(ShardTcpFaults, ConnectionResetBeforeResult) {
  // RST instead of FIN: the read error path, not the EOF path.
  expect_tcp_fault_recovered("reset", 120.0, 35);
}

TEST(ShardTcpFaults, HangingWorkerHitsShardTimeout) {
  expect_tcp_fault_recovered("hang", 1.0, 36);
}

TEST(ShardTcpFaults, SlowLorisWorkerHitsShardTimeout) {
  // Drips ~5 bytes/s — making progress, but far slower than the budget. The
  // timeout must fire on wall-clock, not on "the connection is idle".
  expect_tcp_fault_recovered("slow", 1.0, 37);
}

// Satellite (e): manifest telemetry for a killed TCP worker. The failed
// attempt must be attributed to the TCP transport with the peer endpoint
// (worker_pid is meaningless remotely, recorded as -1), and the retry that
// completed the shard must follow it.
TEST(ShardTcp, ManifestRecordsKilledTcpWorker) {
  const std::string manifest_path =
      testing::TempDir() + "haste_shard_tcp_kill_manifest.json";
  ShardOptions options = tcp_options(2);
  options.manifest_path = manifest_path;
  options.inject_first_attempt[1] = "kill-self";

  const TrialResults reference = run_trials(tiny_config(), tiny_variants(), 8, 77);
  const TrialResults sharded =
      run_trials_sharded(tiny_config(), tiny_variants(), 8, 77, options);
  expect_results_equal(sharded, reference);

  const util::Json manifest = util::load_json_file(manifest_path);
  EXPECT_EQ(manifest.at("tcp_worker_count").as_int(), 2);
  EXPECT_EQ(manifest.at("listen_address").as_string(), "127.0.0.1:0");

  bool found = false;
  const util::Json& shards = manifest.at("shards");
  for (std::size_t s = 0; s < shards.size(); ++s) {
    const util::Json& entry = shards.at(s);
    if (entry.at("shard").as_int() != 1) continue;
    found = true;
    EXPECT_TRUE(entry.at("done").as_bool());
    ASSERT_EQ(entry.at("attempts").size(), 2u);

    const util::Json& failed = entry.at("attempts").at(0);
    EXPECT_EQ(failed.at("transport").as_string(), "tcp");
    EXPECT_EQ(failed.at("worker_pid").as_int(), -1);  // remote: no local pid
    EXPECT_NE(failed.at("worker").as_string().find("127.0.0.1:"), std::string::npos);
    EXPECT_NE(failed.at("status").as_string(), "ok");
    EXPECT_GE(failed.at("wall_seconds").as_number(), 0.0);

    const util::Json& retried = entry.at("attempts").at(1);
    EXPECT_EQ(retried.at("status").as_string(), "ok");
    EXPECT_EQ(retried.at("transport").as_string(), "tcp");
  }
  EXPECT_TRUE(found);
}

// --- Satellite: per-run shared-secret handshake on the TCP transport. ---

/// Reads the current value of a named counter; 0 when it was never touched.
std::uint64_t counter_value(const std::string& name) {
  return obs::MetricsRegistry::instance().counter(name).value();
}

TEST(ShardTcpAuth, MatchingTokenAdmitsWorkersBitIdentical) {
  ShardOptions options = tcp_options(2);
  options.auth_token = "per-run-secret";
  options.tcp_spawn_argv = {self_exe(), "--token", "per-run-secret", "--connect"};
  const TrialResults reference = run_trials(tiny_config(), tiny_variants(), 6, 41);
  const TrialResults sharded =
      run_trials_sharded(tiny_config(), tiny_variants(), 6, 41, options);
  expect_results_equal(sharded, reference);
}

TEST(ShardTcpAuth, WrongTokenWorkersAreRejectedAndPoolStarves) {
  const std::uint64_t rejects_before = counter_value("shard.auth_reject");
  ShardOptions options = tcp_options(1);
  options.auth_token = "right-secret";
  options.tcp_spawn_argv = {self_exe(), "--token", "wrong-secret", "--connect"};
  options.connect_wait_seconds = 1.0;
  EXPECT_THROW(run_trials_sharded(tiny_config(), tiny_variants(), 2, 42, options),
               std::runtime_error);
#ifdef HASTE_OBS
  EXPECT_GT(counter_value("shard.auth_reject"), rejects_before);
#else
  (void)rejects_before;
#endif
}

TEST(ShardTcpAuth, SilentWorkerIsRejectedNotAdmitted) {
  // A peer that connects but never sends the token line must be dropped at
  // the handshake deadline instead of occupying a pool slot. --worker mode
  // ignores its (closed) stdin here and just holds the socket open silently.
  const std::uint64_t rejects_before = counter_value("shard.auth_reject");
  ShardOptions options = tcp_options(1);
  options.auth_token = "required-secret";
  options.tcp_spawn_argv = {self_exe(), "--silent-connect"};
  options.connect_wait_seconds = 0.5;
  EXPECT_THROW(run_trials_sharded(tiny_config(), tiny_variants(), 2, 43, options),
               std::runtime_error);
#ifdef HASTE_OBS
  EXPECT_GT(counter_value("shard.auth_reject"), rejects_before);
#else
  (void)rejects_before;
#endif
}

TEST(ShardTcpAuth, RejectedTcpWorkersDoNotPoisonAHybridPool) {
  // Wrong-token TCP spawns keep getting rejected, but a pipe worker in the
  // same pool completes every shard: rejection starves only the bad
  // transport, never corrupts the run. The pipe worker serves only once the
  // shard runner has counted a rejection: left free, it could finish every
  // shard before any wrong-token spawn dialed in, and the run would end with
  // no rejection to observe.
  const std::uint64_t rejects_before = counter_value("shard.auth_reject");
  const std::string gate =
      ::testing::TempDir() + "shard_tcp_gate_" + std::to_string(::getpid());
  std::remove(gate.c_str());
  ShardOptions options = tcp_options(1);
  options.auth_token = "right-secret";
  options.tcp_spawn_argv = {self_exe(), "--token", "wrong-secret", "--connect"};
  options.worker_argv = {self_exe(), "--worker-after", gate};
  options.workers = 1;
  const TrialResults reference = run_trials(tiny_config(), tiny_variants(), 6, 44);
  TrialResults sharded;
  {
    // Opens the gate on the first counted rejection. Bounded, so a run that
    // never rejects fails the expectation below instead of hanging.
    std::jthread opener([&](std::stop_token stop) {
#ifdef HASTE_OBS
      const auto deadline = std::chrono::steady_clock::now() + std::chrono::seconds(60);
      while (!stop.stop_requested() && counter_value("shard.auth_reject") <= rejects_before &&
             std::chrono::steady_clock::now() < deadline) {
        std::this_thread::sleep_for(std::chrono::milliseconds(5));
      }
#else
      (void)stop;
#endif
      std::ofstream(gate) << "open\n";
    });
    sharded = run_trials_sharded(tiny_config(), tiny_variants(), 6, 44, options);
  }
  std::remove(gate.c_str());
  expect_results_equal(sharded, reference);
#ifdef HASTE_OBS
  EXPECT_GT(counter_value("shard.auth_reject"), rejects_before);
#else
  (void)rejects_before;
#endif
}

// --- Tentpole: worker observability payloads over the wire protocol. ---

TEST(ShardTcpObs, WorkerMetricsAndTraceMergeIntoDriver) {
  obs::Tracer::instance().start_memory();
  obs::MetricsSnapshot worker_metrics;
  ShardOptions options = tcp_options(2);
  options.collect_obs = true;
  options.worker_metrics_out = &worker_metrics;
  const TrialResults reference = run_trials(tiny_config(), tiny_variants(), 6, 45);
  const TrialResults sharded =
      run_trials_sharded(tiny_config(), tiny_variants(), 6, 45, options);
  const util::Json events = obs::Tracer::instance().take_events();
  obs::Tracer::instance().stop();
  expect_results_equal(sharded, reference);

  // Every worker ships a cumulative snapshot; merged totals must cover every
  // shard exactly once (shard.served is bumped once per served request).
#ifdef HASTE_OBS
  ASSERT_TRUE(worker_metrics.counters.count("shard.served"));
  EXPECT_EQ(worker_metrics.counters.at("shard.served"), 3u);  // 6 trials / 2 per shard
#endif

  // The driver's trace now holds worker-side spans under the workers' own
  // pids (distinct processes) next to its own shard.attempt spans.
  const auto driver_pid = static_cast<std::int64_t>(::getpid());
  bool saw_worker_span = false;
  bool saw_attempt_span = false;
  for (std::size_t e = 0; e < events.size(); ++e) {
    const util::Json& event = events.at(e);
    const std::string name = event.at("name").as_string();
    if (name == "shard.run" && event.at("pid").as_int() != driver_pid) {
      saw_worker_span = true;
    }
    if (name == "shard.attempt" && event.at("pid").as_int() == driver_pid) {
      saw_attempt_span = true;
    }
  }
  EXPECT_TRUE(saw_worker_span);
  EXPECT_TRUE(saw_attempt_span);
}

TEST(ShardTcpObs, CumulativeSnapshotsSurviveRetriesWithoutDoubleCounting) {
  // A killed worker forces a retry; the merged worker metrics must still
  // count each *served* shard exactly once per serving, with the replacement
  // worker's cumulative snapshot folded in alongside the survivor's.
  obs::MetricsSnapshot worker_metrics;
  ShardOptions options = tcp_options(2);
  options.collect_obs = true;
  options.worker_metrics_out = &worker_metrics;
  options.inject_first_attempt[1] = "kill-self";
  const TrialResults reference = run_trials(tiny_config(), tiny_variants(), 6, 46);
  const TrialResults sharded =
      run_trials_sharded(tiny_config(), tiny_variants(), 6, 46, options);
  expect_results_equal(sharded, reference);
#ifdef HASTE_OBS
  ASSERT_TRUE(worker_metrics.counters.count("shard.served"));
  EXPECT_EQ(worker_metrics.counters.at("shard.served"), 3u);
#else
  (void)worker_metrics;
#endif
}

TEST(ShardTcp, EmptyPoolTimesOutWhenNoWorkerConnects) {
  ShardOptions options = tcp_options(1);
  options.tcp_spawn_argv.clear();       // external workers... that never dial in
  options.connect_wait_seconds = 0.5;
  EXPECT_THROW(run_trials_sharded(tiny_config(), tiny_variants(), 2, 1, options),
               std::runtime_error);
}

TEST(ShardTcp, RejectsTcpOptionsWithoutWorkerBudget) {
  ShardOptions options = tcp_options(0);  // listen address set, zero tcp workers
  EXPECT_THROW(run_trials_sharded(tiny_config(), tiny_variants(), 2, 1, options),
               std::invalid_argument);
}

}  // namespace
}  // namespace haste::sim

// Custom main: `--worker` serves shards on stdin (`--worker-after FILE` once
// FILE exists), `--connect HOST:PORT` serves them over TCP (presenting the
// `--token` shared secret first, when given), and `--silent-connect
// HOST:PORT` dials in but never authenticates — the misbehaving peer the
// handshake deadline must evict.
int main(int argc, char** argv) {
  std::string token;
  for (int i = 1; i + 1 < argc; ++i) {
    if (std::strcmp(argv[i], "--token") == 0) token = argv[i + 1];
  }
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--worker") == 0) {
      return haste::sim::shard_worker_main(std::cin, std::cout);
    }
    if (std::strcmp(argv[i], "--worker-after") == 0 && i + 1 < argc) {
      // A pipe worker that starts serving once the file argv[i + 1] exists
      // (waiting at most two minutes), so a test can hold it back until the
      // shard runner has done something else first.
      for (int waited_ms = 0; waited_ms < 120000 && ::access(argv[i + 1], F_OK) != 0;
           waited_ms += 5) {
        std::this_thread::sleep_for(std::chrono::milliseconds(5));
      }
      return haste::sim::shard_worker_main(std::cin, std::cout);
    }
    if (std::strcmp(argv[i], "--connect") == 0 && i + 1 < argc) {
      return haste::sim::shard_worker_connect(argv[i + 1], token);
    }
    if (std::strcmp(argv[i], "--silent-connect") == 0 && i + 1 < argc) {
      try {
        haste::util::TcpSocket socket = haste::util::TcpSocket::connect(argv[i + 1]);
        // Hold the connection open without ever sending the token line; the
        // driver's handshake deadline closes it, which we observe as EOF.
        for (;;) {
          if (haste::util::poll_readable({socket.fd()}, 1000).empty()) continue;
          char byte = 0;
          const ssize_t n = ::read(socket.fd(), &byte, 1);
          if (n == 0) break;  // driver dropped us, as it should
          if (n < 0 && errno != EINTR && errno != EAGAIN) break;
        }
      } catch (const std::exception&) {
        return 4;
      }
      return 0;
    }
  }
  ::testing::InitGoogleTest(&argc, argv);
  return RUN_ALL_TESTS();
}
