// online-paper: one caller driving the reactive online HASTE session at the
// paper's scale (50 chargers, 200 tasks). Each instance's arrival batches go
// through dist::OnlineSession::on_arrival in release order (one op each),
// then finish() evaluates the executed schedule.
#include <algorithm>
#include <cstring>
#include <memory>

#include "core/dominant_sets.hpp"
#include "core/evaluate.hpp"
#include "dist/online.hpp"
#include "io/scenario_io.hpp"
#include "serve/client.hpp"
#include "workloads.hpp"

namespace perfbench {

namespace {

namespace core = haste::core;
namespace dist = haste::dist;
namespace io = haste::io;
using haste::model::Network;

struct Finished {
  std::size_t instance = 0;
  dist::OnlineResult result;
};

}  // namespace

Result run_online_paper(const Manifest& manifest, const RunOptions& options) {
  Result result;
  result.plan_span = "online.arrival";
  Track track(1);

  const std::vector<std::string> texts = read_scenarios(manifest);
  track.set_active(options.trace);
  const std::vector<std::unique_ptr<Network>> nets = load_instances(texts, track, true).nets;
  track.set_active(false);
  SetupTimer setup(options, result.setup_s,
                   [&](Track& quiet) { return load_instances(texts, quiet, true); });
  setup.slice();

  const dist::OnlineConfig config;  // reactive HASTE, C=4, S=16, predictor off

  // Warm-up: the first arrival batch of the dedicated instance 0.
  {
    dist::OnlineSession session(*nets[0], config);
    const auto batch = haste::serve::build_replay_events(*nets[0]).front();
    session.on_arrival(batch.slot, batch.tasks);
  }

  std::vector<Finished> finished;
  std::uint64_t rounds = 0;
  std::uint64_t row_evals = 0;
  double negotiated_ns = 0.0;
  std::uint64_t op = 0;
  TimedPhase phase(options);
  // The instance in flight at the deadline runs to completion, so every
  // instance contributes its whole re-plan profile (early re-plans are
  // cheap, late ones dear).
  for (std::size_t k = 0; phase.running(result.plans); ++k) {
    const std::size_t instance = 1 + k % (nets.size() - 1);
    const Network& net = *nets[instance];
    // Arrival batches by release slot, ascending: the order run_online uses.
    const std::vector<haste::serve::ReplayEvent> batches = haste::serve::build_replay_events(net);
    try {
      dist::OnlineSession session(net, config);
      for (const haste::serve::ReplayEvent& batch : batches) {
        const bool traced = options.trace && op % 2 == 0;
        track.set_active(traced);
        const std::int64_t op_start = now_ns();
        const dist::NegotiationRecord* record = nullptr;
        {
          auto plan = track.span("online.arrival");
          auto span = track.span("dist.replan");
          record = session.on_arrival(batch.slot, batch.tasks);
          if (record == nullptr) span.rename("dist.noop");
        }
        const std::int64_t elapsed = now_ns() - op_start;
        ++op;
        ++result.ops;
        ++result.attempted;
        if (record != nullptr) {
          (traced ? result.plan_ms_traced : result.plan_ms).add(ns_to_ms(elapsed));
          ++result.plans;
          result.messages += record->messages;
          rounds += record->rounds;
          row_evals += record->row_evals;
          negotiated_ns += static_cast<double>(elapsed);
        }
        setup.poll(phase);
      }
      track.set_active(options.trace);
      auto span = track.span("dist.finish");
      finished.push_back(Finished{instance, session.finish()});
    } catch (const std::exception& error) {
      result.fail("instance " + std::to_string(instance) + ": " + error.what());
    }
  }
  result.timed_s = phase.elapsed_s();
  setup.finish();
  track.set_active(options.trace);

  // Checks: finish()'s evaluation must equal a fresh evaluate_schedule of
  // the executed schedule, bit for bit.
  std::uint64_t digest = fnv1a("");
  std::size_t digested = 0;
  std::uint64_t deliveries = 0;
  for (const Finished& done : finished) {
    const Network& net = *nets[done.instance];
    const auto& reported = done.result.evaluation;
    std::string problem;
    try {
      core::EvaluationResult fresh;
      {
        auto span = track.span("core.evaluate");
        fresh = core::evaluate_schedule(net, done.result.schedule);
      }
      const bool same =
          std::memcmp(&fresh.weighted_utility, &reported.weighted_utility, sizeof(double)) == 0 &&
          std::memcmp(&fresh.relaxed_weighted_utility, &reported.relaxed_weighted_utility,
                      sizeof(double)) == 0 &&
          fresh.switches == reported.switches && fresh.task_energy == reported.task_energy;
      if (!same) problem = "finish() evaluation differs from evaluate_schedule";
    } catch (const std::exception& error) {
      problem = std::string("evaluate_schedule failed: ") + error.what();
    }
    if (!problem.empty()) {
      // Every arrival op of the instance produced part of a wrong result.
      result.fail("instance " + std::to_string(done.instance) + ": " + problem);
      result.failed += haste::serve::build_replay_events(net).size() - 1;
    }
    result.utility.add(reported.weighted_utility / net.utility_upper_bound());
    deliveries += done.result.deliveries;
    std::string text;
    {
      auto span = track.span("io.write");
      text = io::schedule_to_json(done.result.schedule).dump();
    }
    if (digested < 2) {
      digest = fnv1a(text, digest);
      ++digested;
    }
    if (options.trace) {
      auto span = track.span("core.dominant_sets");
      std::size_t sets = 0;
      for (haste::model::ChargerIndex i = 0; i < net.charger_count(); ++i) {
        sets += core::extract_dominant_sets(net, i).size();
      }
      result.counts["core.dominant_sets"] += static_cast<double>(sets);
    }
  }
  track.set_active(false);

  const double plans = static_cast<double>(std::max<std::uint64_t>(result.plans, 1));
  if (!finished.empty()) result.counts["core.dominant_sets"] /= static_cast<double>(finished.size());
  result.counts["dist.messages"] = static_cast<double>(result.messages) / plans;
  result.counts["dist.rounds"] = static_cast<double>(rounds) / plans;
  result.counts["dist.row_evals"] = static_cast<double>(row_evals) / plans;
  result.counts["dist.deliveries"] = static_cast<double>(deliveries) / plans;
  result.counts["dist.ns_per_delivery"] =
      deliveries > 0 ? negotiated_ns / static_cast<double>(deliveries) : 0.0;
  result.digest = hex64(digest);
  result.digest_scope = "executed schedule JSON of the first " + std::to_string(digested) +
                        " instances";
  result.tracks.push_back(std::move(track));
  return result;
}

}  // namespace perfbench
