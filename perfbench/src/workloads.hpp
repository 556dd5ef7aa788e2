// The benchmark's workloads. Each one loads the inputs `generate` wrote,
// times its set-up (see SetupTimer), runs one untimed warm-up op, then a
// closed loop for the requested wall time, and finally checks every output.
#pragma once

#include <cstdint>
#include <limits>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "measure.hpp"
#include "model/network.hpp"

namespace perfbench {

/// One generated input: a scenario file plus the charger failures the
/// session injects (serve-bursty only).
struct InstanceSpec {
  std::string file;
  std::vector<std::pair<int, int>> failures;  ///< (charger, slot)
};

struct Manifest {
  std::string workload;
  std::vector<InstanceSpec> instances;  ///< [0] is the warm-up instance
};

/// Writes `count` instances (plus one warm-up instance) of `workload` drawn
/// from `seed` into `dir`, with a manifest.json naming them.
void generate_inputs(const std::string& workload, std::uint64_t seed, int count, bool tiny,
                     const std::string& dir);

Manifest load_manifest(const std::string& dir);

struct RunOptions {
  double seconds = 10.0;  ///< timed phase; the op in flight at the deadline completes
  /// The timed phase runs on past `seconds` (up to three times as long) until
  /// this many plans completed, so a slow host still yields p90s with ten
  /// samples beyond them.
  std::uint64_t min_plans = 0;
  bool trace = false;     ///< record spans on every other op
};

/// The timed phase's clock. Time spent in exclude()d work (output checks
/// interleaved with the ops) counts neither towards the deadline nor
/// towards elapsed_s().
class TimedPhase {
 public:
  explicit TimedPhase(const RunOptions& options)
      : start_(now_ns()),
        deadline_ns_(static_cast<std::int64_t>(options.seconds * 1e9)),
        cap_ns_(3 * deadline_ns_),
        min_plans_(options.min_plans) {}

  /// Whether to start another op (or instance, or session).
  bool running(std::uint64_t plans) const {
    const std::int64_t timed = now_ns() - start_ - excluded_ns_;
    return timed < deadline_ns_ || (plans < min_plans_ && timed < cap_ns_);
  }
  void exclude(std::int64_t ns) { excluded_ns_ += ns; }
  double elapsed_s() const {
    return static_cast<double>(now_ns() - start_ - excluded_ns_) / 1e9;
  }

 private:
  std::int64_t start_;
  std::int64_t deadline_ns_;
  std::int64_t cap_ns_;
  std::uint64_t min_plans_;
  std::int64_t excluded_ns_ = 0;
};

/// Every instance's scenario JSON text, read from the manifest's files.
std::vector<std::string> read_scenarios(const Manifest& manifest);

/// Parsed instances: each scenario's document and Network.
struct Instances {
  std::vector<Json> scenarios;
  std::vector<std::unique_ptr<haste::model::Network>> nets;
};

/// The set-up every workload shares: each scenario text parsed into a
/// Network, with spans on `track`. Unless `keep`, each document and Network
/// is freed right after it is built, and nothing is returned.
Instances load_instances(const std::vector<std::string>& texts, Track& track, bool keep);

/// setup_s is timed in kSetupSlices slices: one before the timed phase and
/// the rest at even intervals inside it, off its clock. A slice repeats the
/// whole set-up for at least kSetupSliceSeconds, and its sample is the mean
/// time of one set-up; setup_s is the median sample. Host speed swings by
/// ~1.5x over a few hundred ms and drifts over minutes, so set-up timed in
/// one window, however long, reports what the host did then.
constexpr int kSetupSlices = 8;
constexpr double kSetupSliceSeconds = 0.25;

/// Runs the set-up slices into `setup_s`. `once(track)` performs one whole
/// set-up and returns what it built, which is freed after its time is taken;
/// the track it gets never records.
template <class Once>
class SetupTimer {
 public:
  SetupTimer(const RunOptions& options, Samples& setup_s, Once once)
      : once_(std::move(once)), setup_s_(setup_s), interval_s_(options.seconds / kSetupSlices) {}

  /// Runs the next slice now.
  void slice() {
    std::int64_t spent = 0;
    int reps = 0;
    do {
      const std::int64_t begin = now_ns();
      const auto built = once_(idle_);
      spent += now_ns() - begin;
      ++reps;
    } while (static_cast<double>(spent) < kSetupSliceSeconds * 1e9);
    setup_s_.add(static_cast<double>(spent) / 1e9 / reps);
    ++slices_;
  }

  /// The timed phase's elapsed seconds at which the next slice is due.
  double next_due_s() const {
    return slices_ < kSetupSlices ? slices_ * interval_s_ : std::numeric_limits<double>::infinity();
  }

  /// Runs the next slice if `phase` has reached it, off the phase's clock.
  void poll(TimedPhase& phase) {
    if (phase.elapsed_s() < next_due_s()) return;
    const std::int64_t begin = now_ns();
    slice();
    phase.exclude(now_ns() - begin);
  }

  /// Runs the slices a short timed phase did not reach.
  void finish() {
    while (slices_ < kSetupSlices) slice();
  }

 private:
  Once once_;
  Samples& setup_s_;
  double interval_s_;
  int slices_ = 0;
  Track idle_{0};
};

/// What a workload measured. Latencies are in ms, setup in s.
struct Result {
  Samples setup_s;         ///< one sample per set-up slice
  Samples plan_ms;         ///< plans run untraced
  Samples plan_ms_traced;  ///< plans run traced (traced runs only)
  std::uint64_t ops = 0;   ///< ops completed in the timed phase
  double timed_s = 0.0;
  Samples utility;         ///< executed utility / utility_upper_bound, per solve or session
  std::uint64_t plans = 0;     ///< negotiations (online, serve) or solves (offline)
  std::uint64_t messages = 0;  ///< broadcasts over all negotiations
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  std::vector<std::string> errors;  ///< first few failure descriptions
  std::string digest;
  std::string digest_scope;
  /// Per-plan counts and ratios of the layers the workload reaches.
  std::map<std::string, double> counts;
  /// Span name of the per-op root whose children give layer_coverage.
  std::string plan_span;
  std::vector<Track> tracks;

  void fail(const std::string& what) {
    ++failed;
    if (errors.size() < 5) errors.push_back(what);
  }
};

Result run_offline_2x(const Manifest& manifest, const RunOptions& options);
Result run_online_paper(const Manifest& manifest, const RunOptions& options);
Result run_serve_bursty(const Manifest& manifest, const RunOptions& options);

}  // namespace perfbench
