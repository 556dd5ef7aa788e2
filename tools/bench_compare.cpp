// bench_compare — guard against perf backslides in the micro-bench counters.
//
// Modes:
//   bench_compare BASELINE.json CURRENT.json [--threshold PCT]
//       Diffs two google-benchmark JSON dumps: for every benchmark present in
//       both, the deterministic work counters (marginal-gain evaluations and
//       per-(row, sample) term evaluations) must not regress by more than
//       PCT percent (default 10). Exit 1 on regression.
//   bench_compare --check FILE.json
//       Validates the invariants a committed BENCH_micro.json must satisfy:
//       the harness was a release build (context "haste_build_type"; a file
//       without the stamp predates it and was never validated — re-capture),
//       every BM_OfflineTabular and BM_DeadlineSweep entry reproduced the
//       kernels-off schedule (matches_scalar = 1), every non-eager
//       BM_GlobalGreedyMode entry reproduced the lazy schedule (eager
//       re-scores all policies each step and may legitimately pick a
//       different member of a floating-point-tied maximum, so only the
//       lazy/incremental pair carries a bit-identity contract), at the
//       largest swept scale the kernel path (kernels:1) ran
//       BM_OfflineTabular at least 1.8x as fast as the scalar path
//       (kernels:0), and an inert-deadline twin (dl:1) cost at most 5% over
//       its deadline-free sibling.
//
// Wired as ctest cases (see tools/CMakeLists.txt) so tier-1 runs both the
// self-diff and the --check of the committed baseline.
#include <algorithm>
#include <cmath>
#include <iostream>
#include <map>
#include <string>
#include <vector>

#include "util/json.hpp"

namespace {

using haste::util::Json;

/// name -> benchmark entry, from a google-benchmark JSON dump. For a
/// benchmark captured with repetitions, the median aggregate stands in for
/// the run (keyed by the repetition-free run_name, so twin lookups by name
/// substitution keep working): single-process timings flap a few percent on
/// heap/code layout alone, and the wall-clock pins below sit close enough to
/// their thresholds that one unlucky draw fails a healthy capture. The
/// deterministic counters are identical across repetitions, so their median
/// is the value itself. Mean/stddev/cv aggregates are skipped.
std::map<std::string, const Json*> index_benchmarks(const Json& doc) {
  std::map<std::string, const Json*> entries;
  const Json& list = doc.at("benchmarks");
  for (std::size_t i = 0; i < list.size(); ++i) {
    const Json& entry = list.at(i);
    const std::string run_type = entry.string_or("run_type", "iteration");
    if (run_type == "iteration") {
      // Repetition entries share one name; any single repetition would do,
      // but a median aggregate (seen later in the file) overrides it.
      entries.emplace(entry.at("name").as_string(), &entry);
    } else if (run_type == "aggregate" &&
               entry.string_or("aggregate_name", "") == "median") {
      std::string key = entry.string_or("run_name", "");
      if (key.empty()) {
        // Old library without run_name: the aggregate's name carries the
        // "_median" suffix — strip it to recover the run key.
        key = entry.at("name").as_string();
        const std::string suffix = "_median";
        if (key.size() > suffix.size() &&
            key.compare(key.size() - suffix.size(), suffix.size(), suffix) == 0) {
          key.resize(key.size() - suffix.size());
        }
      }
      entries[key] = &entry;
    }
  }
  return entries;
}

/// Extracts "key:value" from a benchmark name like "BM_Foo/n:50/mode:1";
/// returns fallback when the key is absent.
double name_arg(const std::string& name, const std::string& key, double fallback) {
  const std::string needle = "/" + key + ":";
  const std::size_t pos = name.find(needle);
  if (pos == std::string::npos) return fallback;
  return std::stod(name.substr(pos + needle.size()));
}

int check_invariants(const std::string& path) {
  const Json doc = haste::util::load_json_file(path);
  const auto entries = index_benchmarks(doc);
  int failures = 0;

  // The harness must have been a release build. The stamp comes from the
  // bench's own main() (#ifdef NDEBUG), because google-benchmark's
  // "library_build_type" describes the benchmark *library*, which on many
  // systems ships as a debug package regardless of how our code was built —
  // a debug library skews constants but a debug harness invalidates
  // everything. A missing stamp means the file predates validation: fail it.
  const std::string harness_build =
      doc.contains("context") ? doc.at("context").string_or("haste_build_type", "")
                              : "";
  if (harness_build != "release") {
    std::cerr << "FAIL " << path << ": context haste_build_type is '" << harness_build
              << "' (expected 'release'); re-capture from a release harness\n";
    ++failures;
  }
  if (doc.contains("context") &&
      doc.at("context").string_or("library_build_type", "release") != "release") {
    std::cerr << "warning: google-benchmark library is a debug build; timing "
                 "constants are inflated but comparisons within the file hold\n";
  }

  // Every differential counter recorded 1 (schedules reproduced exactly).
  // Eager global greedy is exempt from matches_lazy: it evaluates every
  // policy every step, so among floating-point-tied maxima it can pick a
  // different winner than the lazy heap order — a benign divergence, not a
  // regression. The guarantee under test is lazy == incremental. The offline
  // families must carry matches_scalar: a capture without it never checked
  // the kernel path against the scalar one.
  for (const auto& [name, entry] : entries) {
    const bool eager_greedy = name.rfind("BM_GlobalGreedyMode", 0) == 0 &&
                              name_arg(name, "mode", -1.0) == 0.0;
    const bool offline = name.rfind("BM_OfflineTabular", 0) == 0 ||
                         name.rfind("BM_DeadlineSweep", 0) == 0;
    if (offline && !entry->contains("matches_scalar")) {
      std::cerr << "FAIL " << name << ": no matches_scalar counter\n";
      ++failures;
    }
    for (const char* counter : {"matches_scalar", "matches_lazy"}) {
      if (eager_greedy && std::string(counter) == "matches_lazy") continue;
      if (entry->contains(counter) && entry->at(counter).as_number() != 1.0) {
        std::cerr << "FAIL " << name << ": " << counter << " = "
                  << entry->at(counter).as_number() << " (expected 1)\n";
        ++failures;
      }
    }
  }

  // Kernel wall-clock pin: at the largest swept scale the data-oriented
  // kernel path must hold a >= 1.8x real-time win over the scalar path —
  // the marginal-engine hot path the kernels exist for. Observed ratios run
  // 2.0-2.3x across capture hosts; the original 2.0x bound sat exactly on
  // the low end of that range and flaked on slower machines, so the gate
  // keeps 10% headroom below the worst observed healthy capture while still
  // failing loudly if the kernel layer stops paying for itself. Pinned only
  // at the top scale — small instances are setup-dominated and noisy, and a
  // committed baseline should gate on the regime the optimization exists
  // for.
  double top_scale = -1.0;
  for (const auto& [name, entry] : entries) {
    if (name.rfind("BM_OfflineTabular", 0) != 0) continue;
    top_scale = std::max(top_scale, name_arg(name, "n", -1.0));
  }
  bool pinned_any = false;
  for (const auto& [name, entry] : entries) {
    if (name.rfind("BM_OfflineTabular", 0) != 0) continue;
    if (name_arg(name, "kernels", -1.0) != 1.0) continue;
    if (name_arg(name, "n", -1.0) != top_scale) continue;
    // dl:1 rows exist to price the deadline plumbing (next check), not the
    // kernel layer; pinning the 2x there would double-count one noisy row.
    if (name_arg(name, "dl", 0.0) == 1.0) continue;
    std::string scalar_name = name;
    scalar_name.replace(scalar_name.rfind("kernels:1"), 9, "kernels:0");
    const auto scalar_it = entries.find(scalar_name);
    if (scalar_it == entries.end()) {
      std::cerr << "FAIL " << name << ": no scalar twin " << scalar_name << "\n";
      ++failures;
      continue;
    }
    const double kernel_time = entry->number_or("real_time", -1.0);
    const double scalar_time = scalar_it->second->number_or("real_time", -1.0);
    if (kernel_time <= 0.0 || scalar_time <= 0.0) {
      std::cerr << "FAIL " << name << ": missing real_time\n";
      ++failures;
      continue;
    }
    pinned_any = true;
    if (scalar_time < 1.8 * kernel_time) {
      std::cerr << "FAIL " << name << ": kernel real_time " << kernel_time
                << " not >= 1.8x faster than scalar " << scalar_time << " ("
                << scalar_time / kernel_time << "x)\n";
      ++failures;
    }
  }
  if (!pinned_any) {
    std::cerr << "FAIL: no BM_OfflineTabular kernels:1 entries at the top scale in "
              << path << " — re-capture with the kernel axis\n";
    ++failures;
  }

  // Deadline plumbing pin: a dl:1 entry runs the inert-deadline twin of its
  // dl:0 sibling — same schedules, same counters, every tardiness factor
  // exactly 1 — so its real_time may exceed the sibling's by at most 5%.
  // This caps what the deadline shape costs instances that don't use it.
  bool deadline_pinned = false;
  for (const auto& [name, entry] : entries) {
    if (name.rfind("BM_OfflineTabular", 0) != 0) continue;
    if (name_arg(name, "dl", -1.0) != 1.0) continue;
    std::string base_name = name;
    base_name.replace(base_name.rfind("dl:1"), 4, "dl:0");
    const auto base_it = entries.find(base_name);
    if (base_it == entries.end()) {
      std::cerr << "FAIL " << name << ": no deadline-free twin " << base_name << "\n";
      ++failures;
      continue;
    }
    const double deadline_time = entry->number_or("real_time", -1.0);
    const double base_time = base_it->second->number_or("real_time", -1.0);
    if (deadline_time <= 0.0 || base_time <= 0.0) {
      std::cerr << "FAIL " << name << ": missing real_time\n";
      ++failures;
      continue;
    }
    deadline_pinned = true;
    if (deadline_time > 1.05 * base_time) {
      std::cerr << "FAIL " << name << ": inert-deadline real_time " << deadline_time
                << " exceeds deadline-free twin " << base_time
                << " by more than 5% (" << deadline_time / base_time << "x)\n";
      ++failures;
    }
  }
  if (!deadline_pinned) {
    std::cerr << "FAIL: no BM_OfflineTabular dl:1 entries in " << path
              << " — re-capture with the deadline axis\n";
    ++failures;
  }

  // Predictive cadence pin: every BM_OnlinePredict row carries the
  // reactive-vs-predictor trade its setup measured over the bursty instance
  // family. The predictor must actually skip negotiations (strictly fewer
  // than reactive, with a nonzero skip ledger) and may give up at most 2% of
  // the reactive mean normalized utility — the subsystem's acceptance
  // criterion, re-checked on every committed capture.
  bool predict_pinned = false;
  for (const auto& [name, entry] : entries) {
    if (name.rfind("BM_OnlinePredict", 0) != 0) continue;
    const double reactive_n = entry->number_or("negotiations_reactive", -1.0);
    const double predict_n = entry->number_or("negotiations_predict", -1.0);
    const double skipped = entry->number_or("replans_skipped", -1.0);
    const double ratio = entry->number_or("utility_ratio", -1.0);
    if (reactive_n < 0.0 || predict_n < 0.0 || skipped < 0.0 || ratio < 0.0) {
      std::cerr << "FAIL " << name << ": missing predictor counters\n";
      ++failures;
      continue;
    }
    predict_pinned = true;
    if (!(predict_n < reactive_n) || skipped <= 0.0) {
      std::cerr << "FAIL " << name << ": predictor negotiations " << predict_n
                << " not strictly below reactive " << reactive_n << " (skipped "
                << skipped << ")\n";
      ++failures;
    }
    if (ratio < 0.98) {
      std::cerr << "FAIL " << name << ": utility ratio " << ratio
                << " below the 2% loss budget\n";
      ++failures;
    }
  }
  if (!predict_pinned) {
    std::cerr << "FAIL: no BM_OnlinePredict entries in " << path
              << " — re-capture with the predictor family\n";
    ++failures;
  }

  if (failures == 0) {
    std::cout << "ok: " << entries.size() << " benchmark entries, all invariants hold\n";
    return 0;
  }
  return 1;
}

int diff_files(const std::string& baseline_path, const std::string& current_path,
               double threshold_pct) {
  // The index holds pointers into the documents, so both must outlive it.
  const Json baseline_doc = haste::util::load_json_file(baseline_path);
  const Json current_doc = haste::util::load_json_file(current_path);
  const auto baseline = index_benchmarks(baseline_doc);
  const auto current = index_benchmarks(current_doc);
  const double allowed = 1.0 + threshold_pct / 100.0;
  int regressions = 0;
  std::size_t compared = 0;

  // The counters are deterministic work measures, so any growth is a real
  // algorithmic regression, not noise; wall times are deliberately excluded.
  const std::vector<std::string> counters = {"evaluations", "row_evals",
                                             "marginal_evals"};
  for (const auto& [name, entry] : current) {
    const auto base_it = baseline.find(name);
    if (base_it == baseline.end()) continue;
    for (const std::string& counter : counters) {
      if (!entry->contains(counter) || !base_it->second->contains(counter)) continue;
      const double now = entry->at(counter).as_number();
      const double before = base_it->second->at(counter).as_number();
      ++compared;
      if (before >= 0.0 && now > before * allowed) {
        std::cerr << "REGRESSION " << name << ": " << counter << " " << before
                  << " -> " << now << " (+"
                  << (before > 0.0 ? (now / before - 1.0) * 100.0 : 100.0) << "%)\n";
        ++regressions;
      }
    }
  }

  if (compared == 0) {
    std::cerr << "FAIL: no common counters between " << baseline_path << " and "
              << current_path << "\n";
    return 1;
  }
  if (regressions == 0) {
    std::cout << "ok: " << compared << " counters compared, none regressed more than "
              << threshold_pct << "%\n";
    return 0;
  }
  return 1;
}

int usage() {
  std::cerr << "usage: bench_compare BASELINE.json CURRENT.json [--threshold PCT]\n"
               "       bench_compare --check FILE.json\n";
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  std::vector<std::string> args(argv + 1, argv + argc);
  try {
    if (args.size() == 2 && args[0] == "--check") {
      return check_invariants(args[1]);
    }
    double threshold = 10.0;
    std::vector<std::string> files;
    for (std::size_t i = 0; i < args.size(); ++i) {
      if (args[i] == "--threshold" && i + 1 < args.size()) {
        threshold = std::stod(args[++i]);
      } else {
        files.push_back(args[i]);
      }
    }
    if (files.size() != 2) return usage();
    return diff_files(files[0], files[1], threshold);
  } catch (const std::exception& error) {
    std::cerr << "bench_compare: " << error.what() << "\n";
    return 1;
  }
}
