// haste_perfbench — the end-to-end benchmark's measured program.
//
//   haste_perfbench generate --workload W --seed N --count K [--tiny] --out DIR
//   haste_perfbench run --workload W --inputs DIR --seconds S [--min-plans P]
//                       [--trace] [--trace-out FILE]
//
// `generate` draws the inputs from the seed; `run` measures one workload on
// them and prints one JSON object: the end-to-end metrics (untraced ops),
// the per-layer metrics (traced ops, when --trace), the host context, the
// output checks and a schedule digest. perfbench/run.py drives both.
#include <unistd.h>

#include <cstdlib>
#include <iostream>

#include "util/cli.hpp"
#include "workloads.hpp"

namespace {

using namespace perfbench;

Json metric(double value, std::uint64_t samples) {
  Json entry = Json::object();
  entry.set("value", value);
  entry.set("samples", static_cast<std::int64_t>(samples));
  return entry;
}

std::string env_or_unset(const char* name) {
  const char* value = std::getenv(name);
  return value == nullptr ? "unset" : value;
}

Json context() {
  Json ctx = Json::object();
  ctx.set("nproc", static_cast<std::int64_t>(::sysconf(_SC_NPROCESSORS_ONLN)));
  ctx.set("build_type", PERFBENCH_BUILD_TYPE);
  ctx.set("compiler", "g++ " __VERSION__);
  ctx.set("HASTE_THREADS", env_or_unset("HASTE_THREADS"));
  ctx.set("HASTE_KERNELS", env_or_unset("HASTE_KERNELS"));
  return ctx;
}

/// Per-layer timing metrics: p50 of the named span's durations.
constexpr std::pair<const char*, const char*> kLayerTimings[] = {
    {"io.parse_ms", "io.parse"},
    {"io.write_ms", "io.write"},
    {"model.network_ms", "model.network"},
    {"core.dominant_sets_ms", "core.dominant_sets"},
    {"core.build_partitions_ms", "core.build_partitions"},
    {"core.offline_ms", "core.offline"},
    {"core.evaluate_ms", "core.evaluate"},
    {"dist.replan_ms", "dist.replan"},
    {"dist.finish_ms", "dist.finish"},
    {"serve.open_ms", "serve.open"},
    {"serve.deferred_ms", "serve.deferred"},
    {"serve.finish_ms", "serve.finish"},
    {"serve.session_ms", "serve.session"},
};

/// Spans whose self time is reported relative to the plan spans.
constexpr const char* kSelfShares[] = {
    "core.build_partitions", "core.offline", "dist.replan",  "dist.finish",
    "serve.open",            "serve.replan", "serve.deferred", "serve.finish",
};

/// Per-plan counts; a workload that bypasses the layer leaves them at 0.
constexpr const char* kLayerCounts[] = {
    "core.dominant_sets", "core.partitions", "core.policies",  "core.row_evals",
    "core.marginal_evals", "dist.messages",  "dist.deliveries", "dist.rounds",
    "dist.row_evals",     "dist.ns_per_delivery", "predict.deferred_ratio",
    "predict.hits",       "predict.misses",
};

Json report(const std::string& workload, const Result& result, bool traced) {
  const auto plans = static_cast<double>(result.plans);
  Json e2e = Json::object();
  e2e.set("setup_s", metric(result.setup_s.quantile(0.5), result.setup_s.count()));
  e2e.set("plan_ms.p50", metric(result.plan_ms.quantile(0.5), result.plan_ms.count()));
  e2e.set("plan_ms.p90", metric(result.plan_ms.quantile(0.9), result.plan_ms.count()));
  e2e.set("ops_per_s", metric(result.timed_s > 0 ? static_cast<double>(result.ops) / result.timed_s : 0.0,
                              result.ops));
  const double utility =
      result.utility.count() > 0 ? result.utility.sum() / static_cast<double>(result.utility.count()) : 0.0;
  e2e.set("normalized_utility", metric(utility, result.utility.count()));
  e2e.set("messages_per_plan",
          metric(plans > 0 ? static_cast<double>(result.messages) / plans : 0.0, result.plans));
  e2e.set("peak_rss_mb", metric(peak_rss_mb(), 1));
  e2e.set("fail_ratio",
          metric(result.attempted > 0
                     ? static_cast<double>(result.failed) / static_cast<double>(result.attempted)
                     : 1.0,
                 result.attempted));

  Json doc = Json::object();
  doc.set("workload", workload);
  doc.set("context", context());
  doc.set("correct", result.failed == 0 && result.attempted > 0 && result.plans > 0);
  doc.set("attempted", static_cast<std::int64_t>(result.attempted));
  doc.set("failed", static_cast<std::int64_t>(result.failed));
  doc.set("plans", static_cast<std::int64_t>(result.plans));
  Json errors = Json::array();
  for (const std::string& error : result.errors) errors.push_back(error);
  doc.set("errors", std::move(errors));
  doc.set("digest", result.digest);
  doc.set("digest_scope", result.digest_scope);
  doc.set("end_to_end", std::move(e2e));
  if (!traced) return doc;

  std::vector<const Track*> tracks;
  for (const Track& track : result.tracks) tracks.push_back(&track);
  const TraceSummary summary = summarize(tracks, result.plan_span);
  Json per_layer = Json::object();
  for (const auto& [name, span] : kLayerTimings) {
    const auto it = summary.layers.find(span);
    per_layer.set(name, it == summary.layers.end()
                            ? metric(0.0, 0)
                            : metric(it->second.duration_ms.quantile(0.5),
                                     it->second.duration_ms.count()));
  }
  for (const char* name : kLayerCounts) {
    const auto it = result.counts.find(name);
    per_layer.set(name, metric(it == result.counts.end() ? 0.0 : it->second, result.plans));
  }
  // Self time of the layer-specific spans as a share of the plan spans'
  // total: unlike their _ms timings, these read 0 (not "no sample") on a
  // workload that bypasses the layer.
  const auto root = summary.layers.find(result.plan_span);
  const double root_ms = root == summary.layers.end() ? 0.0 : root->second.duration_ms.sum();
  for (const char* span : kSelfShares) {
    const auto it = summary.layers.find(span);
    const bool seen = it != summary.layers.end() && root_ms > 0;
    per_layer.set(std::string(span) + ".self_share",
                  metric(seen ? it->second.self_ms / root_ms : 0.0,
                         seen ? it->second.duration_ms.count() : 0));
  }
  per_layer.set("layer_coverage", metric(summary.coverage, summary.roots));
  per_layer.set("trace.overhead_ms",
                metric(result.plan_ms_traced.quantile(0.5) - result.plan_ms.quantile(0.5),
                       result.plan_ms_traced.count()));
  doc.set("per_layer", std::move(per_layer));

  // Self time per span name, as a share of the plan spans' total time.
  Json layers = Json::array();
  for (const auto& [name, stats] : summary.layers) {
    Json row = Json::object();
    row.set("span", name);
    row.set("calls", static_cast<std::int64_t>(stats.duration_ms.count()));
    row.set("p50_ms", stats.duration_ms.quantile(0.5));
    row.set("self_ms", stats.self_ms);
    row.set("self_share_of_plans", root_ms > 0 ? stats.self_ms / root_ms : 0.0);
    layers.push_back(std::move(row));
  }
  doc.set("layers", std::move(layers));
  return doc;
}

int run(const haste::util::Flags& flags) {
  if (std::string(PERFBENCH_BUILD_TYPE) != "Release") {
    std::cerr << "haste_perfbench: refusing to measure a " << PERFBENCH_BUILD_TYPE
              << " build; configure with -DCMAKE_BUILD_TYPE=Release\n";
    return 2;
  }
  const std::string workload = flags.get("workload");
  const Manifest manifest = load_manifest(flags.get("inputs"));
  if (manifest.workload != workload) {
    throw std::invalid_argument("inputs were generated for " + manifest.workload);
  }
  RunOptions options;
  options.seconds = flags.get_double("seconds", options.seconds);
  options.min_plans = static_cast<std::uint64_t>(flags.get_int("min-plans", 0));
  options.trace = flags.get_bool("trace");

  Result result;
  if (workload == "offline-2x") {
    result = run_offline_2x(manifest, options);
  } else if (workload == "online-paper") {
    result = run_online_paper(manifest, options);
  } else if (workload == "serve-bursty") {
    result = run_serve_bursty(manifest, options);
  } else {
    throw std::invalid_argument("unknown workload '" + workload + "'");
  }
  if (options.trace && flags.has("trace-out")) {
    std::vector<const Track*> tracks;
    for (const Track& track : result.tracks) tracks.push_back(&track);
    haste::util::save_json_file(flags.get("trace-out"),
                                trace_json(tracks, "haste_perfbench " + workload));
  }
  std::cout << report(workload, result, options.trace).dump() << std::endl;
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  try {
    const auto flags = haste::util::Flags::parse(argc, argv);
    const std::string command = flags.positional().empty() ? "" : flags.positional().front();
    if (command == "generate") {
      perfbench::generate_inputs(flags.get("workload"),
                                 static_cast<std::uint64_t>(flags.get_int("seed", 1)),
                                 static_cast<int>(flags.get_int("count", 8)),
                                 flags.get_bool("tiny"), flags.get("out"));
      return 0;
    }
    if (command == "run") return run(flags);
    std::cerr << "usage: haste_perfbench generate|run [flags] (see the header of main.cpp)\n";
    return 2;
  } catch (const std::exception& error) {
    std::cerr << "haste_perfbench: " << error.what() << "\n";
    return 1;
  }
}
