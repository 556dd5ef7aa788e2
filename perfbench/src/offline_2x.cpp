// offline-2x: one caller solving distinct 100-charger/400-task instances
// back to back with offline HASTE (TabularGreedy, C=4, S=16). One op takes
// the scenario JSON text all the way to the schedule JSON text.
#include <algorithm>
#include <cstring>
#include <memory>
#include <optional>

#include "core/dominant_sets.hpp"
#include "core/evaluate.hpp"
#include "core/offline.hpp"
#include "io/scenario_io.hpp"
#include "workloads.hpp"

namespace perfbench {

namespace {

namespace core = haste::core;
namespace io = haste::io;
using haste::model::Network;

struct Solve {
  std::unique_ptr<Network> net;
  haste::model::Schedule schedule{0, 0};
  double utility = 0.0;  ///< weighted_utility the op's evaluator reported
  std::string output;    ///< the op's schedule JSON text
};

/// The op: scenario JSON text in, schedule JSON text out.
Solve solve(const std::string& text, Track& track, Result& result) {
  auto plan = track.span("offline.solve");
  Json scenario;
  {
    auto span = track.span("io.parse");
    scenario = Json::parse(text);
  }
  Solve done;
  {
    auto span = track.span("model.network");
    done.net = std::make_unique<Network>(io::network_from_json(scenario));
  }
  const Network& net = *done.net;
  std::vector<core::PolicyPartition> partitions;
  {
    auto span = track.span("core.build_partitions");
    partitions = core::build_partitions(net);
  }
  core::OfflineConfig config;
  config.colors = 4;
  config.samples = 16;
  std::optional<core::OfflineResult> offline;
  {
    auto span = track.span("core.offline");
    offline.emplace(core::schedule_offline_over(net, partitions, config, {}));
  }
  {
    auto span = track.span("core.evaluate");
    done.utility = core::evaluate_schedule(net, offline->schedule).weighted_utility;
  }
  {
    auto span = track.span("io.write");
    done.output = io::schedule_to_json(offline->schedule).dump();
  }

  std::size_t policies = 0;
  for (const auto& partition : partitions) policies += partition.policies.size();
  result.counts["core.partitions"] += static_cast<double>(partitions.size());
  result.counts["core.policies"] += static_cast<double>(policies);
  result.counts["core.row_evals"] += static_cast<double>(offline->row_evaluations);
  result.counts["core.marginal_evals"] += static_cast<double>(offline->marginal_evaluations);
  done.schedule = std::move(offline->schedule);
  {
    // Freeing the ground set and the parsed scenario is part of the op
    // (~15% of it at this scale); the span keeps it attributed.
    auto span = track.span("op.release");
    std::vector<core::PolicyPartition>().swap(partitions);
    offline.reset();
    scenario = Json();
  }
  return done;
}

/// The output check: the schedule JSON parses back with schedule_from_json
/// and re-evaluates to the same utility bits. "" when it holds.
std::string check(const Solve& done) {
  try {
    const auto loaded = io::schedule_from_json(Json::parse(done.output));
    const double utility = core::evaluate_schedule(*done.net, loaded).weighted_utility;
    if (std::memcmp(&utility, &done.utility, sizeof(double)) != 0) {
      return "round-tripped schedule re-evaluates to different utility bits";
    }
  } catch (const std::exception& error) {
    return std::string("schedule JSON does not load back: ") + error.what();
  }
  return "";
}

}  // namespace

Result run_offline_2x(const Manifest& manifest, const RunOptions& options) {
  Result result;
  result.plan_span = "offline.solve";
  Track track(1);
  const std::size_t n = manifest.instances.size();

  // Set-up keeps no Network (each op re-parses its text), so ~n of them
  // are not held alive into the timed phase.
  const std::vector<std::string> texts = read_scenarios(manifest);
  track.set_active(options.trace);
  load_instances(texts, track, false);
  track.set_active(false);
  SetupTimer setup(options, result.setup_s,
                   [&](Track& quiet) { return load_instances(texts, quiet, false); });
  setup.slice();

  // Warm-up on the dedicated instance 0, untimed and untraced.
  {
    Result scratch;
    solve(texts[0], track, scratch);
  }

  // Each op's output is checked right after it, outside the timed phase.
  std::uint64_t digest = fnv1a("");
  std::size_t digested = 0;
  TimedPhase phase(options);
  for (std::size_t op = 0; phase.running(op); ++op) {
    const std::size_t instance = 1 + op % (n - 1);
    const bool traced = options.trace && op % 2 == 0;
    track.set_active(traced);
    const std::int64_t op_start = now_ns();
    std::optional<Solve> done;
    try {
      done.emplace(solve(texts[instance], track, result));
    } catch (const std::exception& error) {
      result.fail("instance " + std::to_string(instance) + ": " + error.what());
    }
    const std::int64_t op_end = now_ns();
    (traced ? result.plan_ms_traced : result.plan_ms).add(ns_to_ms(op_end - op_start));
    ++result.attempted;
    ++result.ops;
    if (!done) continue;
    const std::string problem = check(*done);
    if (!problem.empty()) result.fail("instance " + std::to_string(instance) + ": " + problem);
    result.utility.add(done->utility / done->net->utility_upper_bound());
    if (digested < 16) {
      digest = fnv1a(done->output, digest);
      ++digested;
    }
    if (traced) {
      auto span = track.span("core.dominant_sets");
      std::size_t sets = 0;
      for (haste::model::ChargerIndex i = 0; i < done->net->charger_count(); ++i) {
        sets += core::extract_dominant_sets(*done->net, i).size();
      }
      result.counts["core.dominant_sets"] += static_cast<double>(sets);
      result.counts["dominant_set_passes"] += 1.0;
    }
    phase.exclude(now_ns() - op_end);
    setup.poll(phase);
  }
  result.timed_s = phase.elapsed_s();
  setup.finish();
  result.plans = result.ops;
  track.set_active(false);
  for (const char* key : {"core.partitions", "core.policies", "core.row_evals",
                          "core.marginal_evals"}) {
    result.counts[key] /= static_cast<double>(std::max<std::uint64_t>(result.plans, 1));
  }
  const double passes = result.counts["dominant_set_passes"];
  result.counts.erase("dominant_set_passes");
  if (passes > 0) result.counts["core.dominant_sets"] /= passes;
  result.digest = hex64(digest);
  result.digest_scope = "schedule JSON of the first " + std::to_string(digested) + " solves";
  result.tracks.push_back(std::move(track));
  return result;
}

}  // namespace perfbench
