// haste_cli — command-line driver for the HASTE library.
//
// Subcommands:
//   generate  --out FILE [--preset paper|small] [--chargers N] [--tasks M]
//             [--seed S] [--gaussian SIGMA] [--utility linear|sqrt|log]
//             [--deadline-decay none|linear|exp|hard] [--deadline-beta B]
//             [--deadline-fraction F] [--deadline-slack-min S]
//             [--deadline-slack-max S] [--window W]
//             [--burst-factor F] [--burst-period P]
//             [--hotspot-fraction F] [--hotspot-sigma S]
//       Draws a random scenario and writes it as JSON. The burst/hotspot
//       knobs shape non-stationary traffic (periodic arrival bursts, a
//       hotspot drifting across the field) for the predictive scheduler;
//       at their defaults the base geometry is untouched bit for bit.
//   solve     --in FILE [--algorithm NAME] [--colors C] [--samples S]
//             [--seed S] [--mode incremental|rebuild] [--out SCHEDULE]
//             [--improve]
//       Runs a scheduler on a scenario file; prints the outcome, optionally
//       writes the schedule and applies the local-search improver. C and S
//       must be >= 1. --mode picks how the online algorithms' charger nodes
//       price their stage marginals (bit-identical either way); offline
//       HASTE has a single path and ignores it.
//   eval      --in FILE --schedule FILE
//       Replays a stored schedule against a scenario and reports utilities.
//   testbed   [--topology 1|2] [--online] [--colors C]
//       Runs the simulated Powercast testbed.
//   render    --in FILE [--schedule FILE] [--slot K] [--width W] [--height H]
//             [--svg FILE]
//       ASCII visualization of the field; --svg additionally writes an SVG
//       snapshot (sector wedges + utility-colored tasks).
//   heatmap   --in FILE --schedule FILE [--slot K] [--width W] [--height H]
//       ASCII power-intensity map (the EMR-style field) for one slot.
//   info      --in FILE
//       Prints instance statistics (coverage, neighbors, horizon).
//   deadline-sweep  [--preset paper|small] [--chargers N] [--tasks M]
//             [--decay linear|exp|hard] [--betas "1,2,4,8,16,32"]
//             [--fraction F] [--slack-min S] [--slack-max S] [--trials T]
//             [--seed S] [--csv FILE]
//       Deadline tightness sweep: runs the offline comparison set over
//       random deadline-driven instances for each decay scale beta and
//       reports mean normalized utility with 95% CI half-widths (the
//       utility-vs-tightness figure; --csv dumps the series for plotting).
//   predict-sweep  [--preset paper|small] [--chargers N] [--tasks M]
//             [--window W] [--trials T] [--seed S] [--levels "0,1,2,4"]
//             [--burst-factor F] [--burst-period P] [--hotspot-fraction F]
//             [--hotspot-sigma S] [--grid G] [--discount D] [--hot-rate R]
//             [--min-confidence C] [--csv FILE]
//       Predictive cadence Pareto sweep: runs the online scheduler over
//       random bursty-hotspot instances once per cadence trust ceiling
//       (level 0 = the paper's reactive baseline) and reports mean
//       normalized utility (95% CI), negotiations, messages, skipped
//       re-plans, and mean re-plan latency — the utility-vs-message-count
//       and utility-vs-latency Pareto curves (--csv dumps the series).
//
// Every subcommand additionally accepts:
//   --trace FILE        write a Chrome trace-event JSON of the run (load in
//                       Perfetto / chrome://tracing); HASTE_TRACE=FILE is
//                       the env equivalent
//   --metrics-out FILE  write the process metric registry (counters, gauges,
//                       histograms) as JSON
//
// Algorithms for --algorithm: offline-haste (default), offline-greedy-utility,
// offline-greedy-cover, offline-random, offline-optimal, online-haste,
// online-greedy-utility, online-greedy-cover, global-greedy.
#include <algorithm>
#include <cstdlib>
#include <fstream>
#include <iostream>
#include <limits>
#include <sstream>
#include <string>
#include <vector>

#include "core/evaluate.hpp"
#include "core/global_greedy.hpp"
#include "core/local_search.hpp"
#include "core/offline.hpp"
#include "dist/online.hpp"
#include "io/scenario_io.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"
#include "sim/experiment.hpp"
#include "sim/field_map.hpp"
#include "sim/render.hpp"
#include "sim/svg.hpp"
#include "sim/scenario.hpp"
#include "sim/sweep.hpp"
#include "testbed/topologies.hpp"
#include "util/cli.hpp"
#include "util/stats.hpp"
#include "util/table.hpp"

namespace {

using namespace haste;

int usage() {
  std::cerr << "usage: haste_cli "
               "<generate|solve|eval|testbed|render|heatmap|info|deadline-sweep"
               "|predict-sweep> [flags]\n"
               "       see the header of tools/haste_cli.cpp for details\n";
  return 2;
}

void print_outcome(const model::Network& net, const core::EvaluationResult& eval) {
  util::Table table({"task", "harvested(J)", "required(J)", "utility"});
  for (std::size_t j = 0; j < eval.task_utility.size(); ++j) {
    table.add_row({std::to_string(j + 1), util::format_fixed(eval.task_energy[j], 1),
                   util::format_fixed(net.tasks()[j].required_energy, 1),
                   util::format_fixed(eval.task_utility[j], 4)});
  }
  table.print(std::cout);
  std::cout << "overall weighted utility: " << util::format_fixed(eval.weighted_utility, 4)
            << " / " << util::format_fixed(net.utility_upper_bound(), 2) << " ("
            << eval.switches << " switches)\n";
}

int cmd_generate(const util::Flags& flags) {
  const std::string out = flags.get("out");
  if (out.empty()) {
    std::cerr << "generate: --out FILE is required\n";
    return 2;
  }
  sim::ScenarioConfig config = flags.get("preset", "paper") == "small"
                                   ? sim::ScenarioConfig::small_scale()
                                   : sim::ScenarioConfig::paper_default();
  config.chargers = flags.get_int_in("chargers", config.chargers);
  config.tasks = flags.get_int_in("tasks", config.tasks);
  config.utility_shape = flags.get("utility", config.utility_shape);
  if (flags.has("gaussian")) {
    config.task_placement = sim::Placement::kGaussian;
    config.gaussian_sigma_x = flags.get_double("gaussian", 10.0);
    config.gaussian_sigma_y = config.gaussian_sigma_x;
  }
  config.deadline_decay = flags.get("deadline-decay", config.deadline_decay);
  config.deadline_beta = flags.get_double("deadline-beta", config.deadline_beta);
  config.deadline_fraction =
      flags.get_double("deadline-fraction", config.deadline_fraction);
  config.deadline_slack_min =
      flags.get_double("deadline-slack-min", config.deadline_slack_min);
  config.deadline_slack_max =
      flags.get_double("deadline-slack-max", config.deadline_slack_max);
  config.release_window_slots = flags.get_int_in("window", config.release_window_slots);
  config.burst_factor = flags.get_double("burst-factor", config.burst_factor);
  config.burst_period_slots = flags.get_int_in("burst-period", config.burst_period_slots);
  config.hotspot_fraction =
      flags.get_double("hotspot-fraction", config.hotspot_fraction);
  config.hotspot_sigma = flags.get_double("hotspot-sigma", config.hotspot_sigma);
  util::Rng rng(static_cast<std::uint64_t>(flags.get_int("seed", 1)));
  const model::Network net = sim::generate_scenario(config, rng);
  io::save_network(out, net);
  std::cout << "wrote " << out << ": " << net.charger_count() << " chargers, "
            << net.task_count() << " tasks, horizon " << net.horizon() << " slots\n";
  return 0;
}

int cmd_solve(const util::Flags& flags) {
  const std::string in = flags.get("in");
  if (in.empty()) {
    std::cerr << "solve: --in FILE is required\n";
    return 2;
  }
  const model::Network net = io::load_network(in);
  const std::string algorithm = flags.get("algorithm", "offline-haste");

  sim::AlgoParams params;
  params.colors = flags.get_int_in("colors", 4, 1);
  params.samples = flags.get_int_in("samples", 4 * std::int64_t{params.colors}, 1);
  params.seed = static_cast<std::uint64_t>(flags.get_int("seed", 1));
  const std::string mode = flags.get("mode", "incremental");
  if (mode != "incremental" && mode != "rebuild") {
    std::cerr << "solve: --mode must be incremental or rebuild\n";
    return 2;
  }
  params.mode =
      mode == "rebuild" ? core::TabularMode::kRebuild : core::TabularMode::kIncremental;

  model::Schedule schedule(net.charger_count(), net.horizon());
  if (algorithm == "global-greedy") {
    schedule = core::schedule_global_greedy(net).schedule;
  } else {
    const sim::Algorithm kind = sim::parse_algorithm(algorithm);
    // Reuse the uniform runner for metrics, but re-derive the schedule for
    // offline algorithms so it can be saved / improved.
    switch (kind) {
      case sim::Algorithm::kOfflineHaste:
        schedule = core::schedule_offline(
                       net, core::OfflineConfig{params.colors, params.samples,
                                                params.seed, true, false})
                       .schedule;
        break;
      default: {
        const sim::RunMetrics metrics = sim::run_algorithm(net, kind, params);
        std::cout << algorithm << ": utility "
                  << util::format_fixed(metrics.weighted_utility, 4) << " (normalized "
                  << util::format_fixed(metrics.normalized_utility, 4) << ")\n";
        if (metrics.messages > 0) {
          std::cout << "messages " << metrics.messages << ", rounds " << metrics.rounds
                    << ", negotiations " << metrics.negotiations << "\n";
        }
        return 0;
      }
    }
  }

  if (flags.get_bool("improve")) {
    const auto partitions = core::build_partitions(net);
    const core::LocalSearchResult improved =
        core::improve_schedule(net, partitions, schedule);
    std::cout << "local search: " << improved.swaps << " swaps over "
              << improved.passes << " passes, relaxed "
              << util::format_fixed(improved.initial_relaxed_utility, 4) << " -> "
              << util::format_fixed(improved.relaxed_utility, 4) << "\n";
    schedule = improved.schedule;
  }

  print_outcome(net, core::evaluate_schedule(net, schedule));
  const std::string out = flags.get("out");
  if (!out.empty()) {
    io::save_schedule(out, schedule);
    std::cout << "schedule written to " << out << "\n";
  }
  return 0;
}

int cmd_eval(const util::Flags& flags) {
  const std::string in = flags.get("in");
  const std::string schedule_path = flags.get("schedule");
  if (in.empty() || schedule_path.empty()) {
    std::cerr << "eval: --in FILE and --schedule FILE are required\n";
    return 2;
  }
  const model::Network net = io::load_network(in);
  const model::Schedule schedule = io::load_schedule(schedule_path);
  if (schedule.charger_count() != net.charger_count() ||
      schedule.horizon() != net.horizon()) {
    std::cerr << "eval: schedule dimensions do not match the scenario\n";
    return 1;
  }
  print_outcome(net, core::evaluate_schedule(net, schedule));
  return 0;
}

int cmd_testbed(const util::Flags& flags) {
  const std::int64_t which = flags.get_int("topology", 1);
  const model::Network net = which == 2 ? testbed::topology2() : testbed::topology1();
  sim::AlgoParams params;
  // Bounded so the derived panel size 4 * C stays an int.
  params.colors = flags.get_int_in("colors", 4, 1, std::numeric_limits<int>::max() / 4);
  params.samples = 4 * params.colors;
  const sim::Algorithm kind = flags.get_bool("online")
                                  ? sim::Algorithm::kOnlineHaste
                                  : sim::Algorithm::kOfflineHaste;
  const sim::RunMetrics metrics = sim::run_algorithm(net, kind, params);
  util::Table table({"task", "utility"});
  for (std::size_t j = 0; j < metrics.task_utility.size(); ++j) {
    table.add_row({std::to_string(j + 1), util::format_fixed(metrics.task_utility[j], 4)});
  }
  table.print(std::cout);
  std::cout << "overall: " << util::format_fixed(metrics.weighted_utility, 4) << "\n";
  return 0;
}

int cmd_render(const util::Flags& flags) {
  const std::string in = flags.get("in");
  if (in.empty()) {
    std::cerr << "render: --in FILE is required\n";
    return 2;
  }
  const model::Network net = io::load_network(in);
  const model::SlotIndex slot = flags.get_int_in("slot", 0);
  const int width = flags.get_int_in("width", 48);
  const int height = flags.get_int_in("height", 16);
  std::optional<model::Schedule> schedule;
  if (flags.has("schedule")) schedule = io::load_schedule(flags.get("schedule"));
  const model::Schedule* schedule_ptr = schedule ? &*schedule : nullptr;
  std::cout << sim::render_field(net, schedule_ptr, slot, width, height);
  std::cout << "legend: >^<v charger facing | + idle | x failed | T active task"
               " | t inactive task\n";
  if (flags.has("svg")) {
    std::optional<core::EvaluationResult> evaluation;
    if (schedule_ptr != nullptr) evaluation = core::evaluate_schedule(net, *schedule_ptr);
    sim::save_svg(flags.get("svg"), net, schedule_ptr, slot,
                  evaluation ? &*evaluation : nullptr);
    std::cout << "svg written to " << flags.get("svg") << "\n";
  }
  return 0;
}

int cmd_heatmap(const util::Flags& flags) {
  const std::string in = flags.get("in");
  const std::string schedule_path = flags.get("schedule");
  if (in.empty() || schedule_path.empty()) {
    std::cerr << "heatmap: --in FILE and --schedule FILE are required\n";
    return 2;
  }
  const model::Network net = io::load_network(in);
  const model::Schedule schedule = io::load_schedule(schedule_path);
  const model::SlotIndex slot = flags.get_int_in("slot", 0);
  const int width = flags.get_int_in("width", 64);
  const int height = flags.get_int_in("height", 24);
  const sim::FieldMap field = sim::sample_field(net, schedule, slot, width, height);
  std::cout << sim::shade_field(field);
  std::cout << "peak intensity " << util::format_fixed(field.peak(), 3)
            << ", mean " << util::format_fixed(field.mean(), 4)
            << " (model power units; quantile shading . : + #)\n";
  return 0;
}

int cmd_info(const util::Flags& flags) {
  const std::string in = flags.get("in");
  if (in.empty()) {
    std::cerr << "info: --in FILE is required\n";
    return 2;
  }
  const model::Network net = io::load_network(in);
  std::size_t total_coverable = 0;
  std::size_t total_neighbors = 0;
  for (model::ChargerIndex i = 0; i < net.charger_count(); ++i) {
    total_coverable += net.coverable_tasks(i).size();
    total_neighbors += net.neighbors(i).size();
  }
  int unreachable = 0;
  for (model::TaskIndex j = 0; j < net.task_count(); ++j) {
    bool covered = false;
    for (model::ChargerIndex i = 0; i < net.charger_count() && !covered; ++i) {
      covered = net.potential_power(i, j) > 0.0;
    }
    if (!covered) ++unreachable;
  }
  std::cout << "chargers: " << net.charger_count() << "\n"
            << "tasks: " << net.task_count() << " (" << unreachable << " unreachable)\n"
            << "horizon: " << net.horizon() << " slots of "
            << net.time().slot_seconds << " s\n"
            << "avg coverable tasks per charger: "
            << util::format_fixed(net.charger_count() > 0
                                      ? static_cast<double>(total_coverable) /
                                            net.charger_count()
                                      : 0.0,
                                  2)
            << "\n"
            << "avg neighbors per charger: "
            << util::format_fixed(net.charger_count() > 0
                                      ? static_cast<double>(total_neighbors) /
                                            net.charger_count()
                                      : 0.0,
                                  2)
            << "\n"
            << "utility shape: " << net.utility_shape().name() << "\n";
  if (net.deadline_policy().active()) {
    int with_deadline = 0;
    for (const model::Task& task : net.tasks()) {
      if (task.has_deadline()) ++with_deadline;
    }
    std::cout << "deadline decay: "
              << model::DeadlinePolicy::decay_name(net.deadline_policy().decay)
              << " (beta " << util::format_fixed(net.deadline_policy().beta, 1)
              << "), " << with_deadline << " tasks with deadlines\n";
  }
  if (net.task_count() > 0) {
    // Arrival-process shape over the release window: the dispersion index
    // (variance/mean of per-slot arrival counts) is 1 for Poisson traffic
    // and grows with burstiness — the signal the predictive scheduler's
    // arrival model feeds on.
    model::SlotIndex last_release = 0;
    for (const model::Task& task : net.tasks()) {
      last_release = std::max(last_release, task.release_slot);
    }
    std::vector<std::size_t> per_slot(static_cast<std::size_t>(last_release) + 1, 0);
    for (const model::Task& task : net.tasks()) {
      ++per_slot[static_cast<std::size_t>(task.release_slot)];
    }
    std::size_t peak = 0;
    model::SlotIndex peak_slot = 0;
    double mean = 0.0;
    for (std::size_t k = 0; k < per_slot.size(); ++k) {
      if (per_slot[k] > peak) {
        peak = per_slot[k];
        peak_slot = static_cast<model::SlotIndex>(k);
      }
      mean += static_cast<double>(per_slot[k]);
    }
    mean /= static_cast<double>(per_slot.size());
    double variance = 0.0;
    for (std::size_t count : per_slot) {
      const double d = static_cast<double>(count) - mean;
      variance += d * d;
    }
    variance /= static_cast<double>(per_slot.size());
    std::cout << "arrivals: window [0, " << last_release << "], peak " << peak
              << " tasks at slot " << peak_slot << ", dispersion index "
              << util::format_fixed(mean > 0.0 ? variance / mean : 0.0, 2)
              << " (1 = Poisson)\n";
  }
  return 0;
}

int cmd_deadline_sweep(const util::Flags& flags) {
  sim::ScenarioConfig base = flags.get("preset", "paper") == "small"
                                 ? sim::ScenarioConfig::small_scale()
                                 : sim::ScenarioConfig::paper_default();
  base.chargers = flags.get_int_in("chargers", base.chargers);
  base.tasks = flags.get_int_in("tasks", base.tasks);
  base.deadline_decay = flags.get("decay", "linear");
  if (base.deadline_decay == "none") {
    std::cerr << "deadline-sweep: --decay must be linear, exp, or hard\n";
    return 2;
  }
  base.deadline_fraction = flags.get_double("fraction", base.deadline_fraction);
  base.deadline_slack_min = flags.get_double("slack-min", base.deadline_slack_min);
  base.deadline_slack_max = flags.get_double("slack-max", base.deadline_slack_max);
  const int trials = flags.get_int_in("trials", 10);
  const auto seed = static_cast<std::uint64_t>(flags.get_int("seed", 1));

  std::vector<double> betas;
  std::stringstream spec(flags.get("betas", "1,2,4,8,16,32"));
  for (std::string item; std::getline(spec, item, ',');) {
    if (!item.empty()) betas.push_back(std::stod(item));
  }
  if (betas.empty()) {
    std::cerr << "deadline-sweep: --betas must list at least one decay scale\n";
    return 2;
  }

  const std::vector<sim::Variant> variants = sim::offline_variants();
  const sim::SweepSeries series = sim::sweep(
      betas,
      [&](double beta) {
        sim::ScenarioConfig config = base;
        config.deadline_beta = beta;
        return config;
      },
      variants, trials, seed);

  std::vector<std::string> header{"beta"};
  for (const sim::Variant& variant : variants) header.push_back(variant.label);
  util::Table table(header);
  for (std::size_t x = 0; x < series.xs.size(); ++x) {
    std::vector<std::string> row{util::format_fixed(series.xs[x], 1)};
    for (const sim::Variant& variant : variants) {
      row.push_back(util::format_fixed(series.series.at(variant.label)[x], 4) +
                    " +/- " +
                    util::format_fixed(series.ci95.at(variant.label)[x], 4));
    }
    table.add_row(row);
  }
  table.print(std::cout);
  std::cout << "normalized utility, mean over " << trials << " trials per point"
            << " (95% CI half-width), decay " << base.deadline_decay << "\n";

  const std::string csv_path = flags.get("csv");
  if (!csv_path.empty()) {
    std::ofstream csv(csv_path);
    csv << "beta";
    for (const sim::Variant& variant : variants) {
      csv << "," << variant.label << ",ci95";
    }
    csv << "\n";
    for (std::size_t x = 0; x < series.xs.size(); ++x) {
      csv << series.xs[x];
      for (const sim::Variant& variant : variants) {
        csv << "," << series.series.at(variant.label)[x] << ","
            << series.ci95.at(variant.label)[x];
      }
      csv << "\n";
    }
    std::cout << "csv written to " << csv_path << "\n";
  }
  return 0;
}

int cmd_predict_sweep(const util::Flags& flags) {
  sim::ScenarioConfig base = flags.get("preset", "paper") == "small"
                                 ? sim::ScenarioConfig::small_scale()
                                 : sim::ScenarioConfig::paper_default();
  base.chargers = flags.get_int_in("chargers", base.chargers);
  base.tasks = flags.get_int_in("tasks", base.tasks);
  base.release_window_slots = flags.get_int_in("window", base.release_window_slots);
  // Bursty, drifting traffic by default — stationary arrivals leave the
  // predictor nothing to learn and the Pareto curve collapses to a point.
  base.burst_factor = flags.get_double("burst-factor", 4.0);
  base.burst_period_slots = flags.get_int_in("burst-period", base.burst_period_slots);
  base.hotspot_fraction = flags.get_double("hotspot-fraction", 0.6);
  base.hotspot_sigma = flags.get_double("hotspot-sigma", base.hotspot_sigma);
  const int trials = flags.get_int_in("trials", 5);
  const auto seed = static_cast<std::uint64_t>(flags.get_int("seed", 1));

  predict::PredictorConfig tuned;  // shared knobs; enabled/max_level per point
  tuned.grid = flags.get_int_in("grid", tuned.grid);
  tuned.discount = flags.get_double("discount", tuned.discount);
  tuned.hot_rate = flags.get_double("hot-rate", tuned.hot_rate);
  tuned.min_confidence = flags.get_double("min-confidence", tuned.min_confidence);

  std::vector<int> levels;
  std::stringstream spec(flags.get("levels", "0,1,2,4"));
  for (std::string item; std::getline(spec, item, ',');) {
    if (!item.empty()) levels.push_back(std::stoi(item));
  }
  if (levels.empty()) {
    std::cerr << "predict-sweep: --levels must list at least one trust ceiling\n";
    return 2;
  }

  struct Point {
    int level = 0;
    double utility_mean = 0.0;
    double utility_ci95 = 0.0;
    double negotiations = 0.0;
    double messages = 0.0;
    double deliveries = 0.0;
    double skipped = 0.0;
    double latency_us = 0.0;  ///< mean re-plan latency over the point's runs
  };
  std::vector<Point> points;
  // Flushes windowed counter deltas into the trace as counter tracks (one
  // sample per sweep point), so a traced run carries the predict.* series
  // the trace_check validation chain requires.
  obs::MetricsFlusher flusher(/*period_ms=*/60'000);

  for (int level : levels) {
    dist::OnlineConfig config;
    config.predictor = tuned;
    config.predictor.enabled = level > 0;
    config.predictor.max_level = level;

    Point point;
    point.level = level;
    std::vector<double> utilities;
    const obs::MetricsSnapshot before = obs::MetricsRegistry::instance().snapshot();
    for (int t = 0; t < trials; ++t) {
      util::Rng rng(util::Rng::stream_seed(seed, static_cast<std::uint64_t>(t)));
      const model::Network net = sim::generate_scenario(base, rng);
      const dist::OnlineResult result = dist::run_online(net, config);
      const double upper = net.utility_upper_bound();
      utilities.push_back(upper > 0.0 ? result.evaluation.weighted_utility / upper
                                      : 0.0);
      point.negotiations += static_cast<double>(result.negotiations);
      point.messages += static_cast<double>(result.messages);
      point.deliveries += static_cast<double>(result.deliveries);
      point.skipped += static_cast<double>(result.replans_skipped);
    }
    const obs::MetricsSnapshot window =
        obs::MetricsRegistry::instance().snapshot().delta(before);
    const auto latency = window.histograms.find("online.replan.latency_us");
    if (latency != window.histograms.end() && latency->second.stats.count() > 0) {
      point.latency_us = latency->second.stats.mean();
    }
    const double n = static_cast<double>(trials);
    for (double u : utilities) point.utility_mean += u;
    point.utility_mean /= n;
    point.utility_ci95 = util::mean_confidence95(utilities);
    point.negotiations /= n;
    point.messages /= n;
    point.deliveries /= n;
    point.skipped /= n;
    points.push_back(point);
    flusher.flush_now();
  }
  flusher.stop();

  util::Table table({"level", "utility", "negotiations", "messages", "skipped",
                     "replan_us"});
  for (const Point& point : points) {
    table.add_row({point.level == 0 ? "0 (reactive)" : std::to_string(point.level),
                   util::format_fixed(point.utility_mean, 4) + " +/- " +
                       util::format_fixed(point.utility_ci95, 4),
                   util::format_fixed(point.negotiations, 1),
                   util::format_fixed(point.messages, 1),
                   util::format_fixed(point.skipped, 1),
                   util::format_fixed(point.latency_us, 1)});
  }
  table.print(std::cout);
  std::cout << "normalized utility, mean over " << trials
            << " trials per cadence level (95% CI half-width); burst factor "
            << util::format_fixed(base.burst_factor, 1) << ", hotspot fraction "
            << util::format_fixed(base.hotspot_fraction, 2) << "\n";

  const std::string csv_path = flags.get("csv");
  if (!csv_path.empty()) {
    std::ofstream csv(csv_path);
    csv << "level,utility_mean,utility_ci95,negotiations,messages,deliveries,"
           "replans_skipped,replan_latency_us\n";
    for (const Point& point : points) {
      csv << point.level << "," << point.utility_mean << "," << point.utility_ci95
          << "," << point.negotiations << "," << point.messages << ","
          << point.deliveries << "," << point.skipped << "," << point.latency_us
          << "\n";
    }
    std::cout << "csv written to " << csv_path << "\n";
  }
  return 0;
}

int run_command(const std::string& command, const util::Flags& flags) {
  obs::Span span("cli." + command);
  if (command == "generate") return cmd_generate(flags);
  if (command == "solve") return cmd_solve(flags);
  if (command == "eval") return cmd_eval(flags);
  if (command == "testbed") return cmd_testbed(flags);
  if (command == "render") return cmd_render(flags);
  if (command == "heatmap") return cmd_heatmap(flags);
  if (command == "info") return cmd_info(flags);
  if (command == "deadline-sweep") return cmd_deadline_sweep(flags);
  if (command == "predict-sweep") return cmd_predict_sweep(flags);
  return usage();
}

}  // namespace

int main(int argc, char** argv) {
  if (argc < 2) return usage();
  const std::string command = argv[1];
  const util::Flags flags = util::Flags::parse(argc - 1, argv + 1);

  std::string trace_path = flags.get("trace");
  if (trace_path.empty()) {
    if (const char* env_trace = std::getenv("HASTE_TRACE")) trace_path = env_trace;
  }
  if (!trace_path.empty()) {
    obs::Tracer::instance().start_file(trace_path);
    obs::Tracer::instance().process_name("haste_cli " + command);
  }

  int code = 0;
  try {
    code = run_command(command, flags);
  } catch (const std::exception& error) {
    std::cerr << "haste_cli " << command << ": " << error.what() << "\n";
    code = 1;
  }

  if (!trace_path.empty()) {
    obs::Tracer::instance().stop();
    std::cout << "trace written to " << trace_path << "\n";
  }
  const std::string metrics_path = flags.get("metrics-out");
  if (!metrics_path.empty()) {
    util::Json metrics_json = util::Json::object();
    metrics_json.set("driver", obs::MetricsRegistry::instance().snapshot().to_json());
    util::save_json_file(metrics_path, metrics_json);
    std::cout << "metrics written to " << metrics_path << "\n";
  }
  return code;
}
