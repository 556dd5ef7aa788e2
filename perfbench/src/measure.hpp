// Measurement plumbing shared by the benchmark's workloads: latency samples
// with exact percentiles, an in-memory span recorder (one Track per thread,
// written out as a Chrome trace at the end of the run), per-layer
// aggregation of those spans, and small host helpers.
#pragma once

#include <chrono>
#include <cstdint>
#include <map>
#include <string>
#include <string_view>
#include <vector>

#include "util/json.hpp"

namespace perfbench {

using haste::util::Json;

/// Nanoseconds on the steady clock.
inline std::int64_t now_ns() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

inline double ns_to_ms(std::int64_t ns) { return static_cast<double>(ns) / 1e6; }

/// A bag of latency samples (ms). Quantiles are util::quantile's (linear
/// interpolation between order statistics); an empty bag reports 0.
class Samples {
 public:
  void add(double value) { values_.push_back(value); }
  void append(const Samples& other) {
    values_.insert(values_.end(), other.values_.begin(), other.values_.end());
  }
  std::size_t count() const { return values_.size(); }
  double quantile(double q) const;
  double sum() const;

 private:
  std::vector<double> values_;
};

/// Records the spans one thread opens, in memory. Spans nest: a span opened
/// while another is open on the same track becomes its child. Recording is
/// switched per operation with set_active(), so a traced run can interleave
/// traced and untraced operations under the same host conditions.
class Track {
 public:
  struct Record {
    const char* name;
    std::int64_t start_ns;
    std::int64_t end_ns;
    int parent;  ///< index into records(), -1 for a root span
  };

  /// RAII span; a no-op when the track was inactive at construction.
  class Span {
   public:
    Span(const Span&) = delete;
    Span& operator=(const Span&) = delete;
    ~Span();
    /// Re-labels the span once its outcome is known (a re-plan that turned
    /// out to be deferred, say).
    void rename(const char* name);

   private:
    friend class Track;
    Span(Track* track, int index) : track_(track), index_(index) {}
    Track* track_;
    int index_;
  };

  explicit Track(int tid) : tid_(tid) {}

  void set_active(bool active) { active_ = active; }
  bool active() const { return active_; }
  Span span(const char* name);

  int tid() const { return tid_; }
  const std::vector<Record>& records() const { return records_; }

 private:
  int tid_;
  bool active_ = false;
  int open_ = -1;
  std::vector<Record> records_;
};

/// Per-name aggregate over every track's spans.
struct LayerStats {
  Samples duration_ms;  ///< one sample per span
  double self_ms = 0.0; ///< sum of (duration - time covered by child spans)
};

struct TraceSummary {
  std::map<std::string, LayerStats> layers;
  /// Time covered by child spans of the `root` spans, over the roots' total.
  double coverage = 0.0;
  std::size_t roots = 0;
};

TraceSummary summarize(const std::vector<const Track*>& tracks, std::string_view root);

/// {"traceEvents": [...]} with one "X" event per span (microsecond ts/dur,
/// floored so that nesting survives the conversion) plus process metadata.
Json trace_json(const std::vector<const Track*>& tracks, std::string_view process_name);

/// Peak resident set size of this process, in MiB.
double peak_rss_mb();

/// FNV-1a 64-bit, chained: digest = fnv1a(text, digest).
std::uint64_t fnv1a(std::string_view text, std::uint64_t seed = 0xcbf29ce484222325ULL);
std::string hex64(std::uint64_t value);

std::string read_file(const std::string& path);

}  // namespace perfbench
