#include "measure.hpp"

#include <sys/resource.h>
#include <unistd.h>

#include <cstdio>
#include <fstream>
#include <numeric>
#include <sstream>
#include <stdexcept>

#include "util/stats.hpp"

namespace perfbench {

double Samples::quantile(double q) const { return haste::util::quantile(values_, q); }

double Samples::sum() const { return std::accumulate(values_.begin(), values_.end(), 0.0); }

Track::Span Track::span(const char* name) {
  if (!active_) return Span(nullptr, -1);
  records_.push_back(Record{name, now_ns(), -1, open_});
  open_ = static_cast<int>(records_.size()) - 1;
  return Span(this, open_);
}

Track::Span::~Span() {
  if (track_ == nullptr) return;
  Record& record = track_->records_[static_cast<std::size_t>(index_)];
  record.end_ns = now_ns();
  track_->open_ = record.parent;
}

void Track::Span::rename(const char* name) {
  if (track_ != nullptr) track_->records_[static_cast<std::size_t>(index_)].name = name;
}

TraceSummary summarize(const std::vector<const Track*>& tracks, std::string_view root) {
  TraceSummary summary;
  double root_ns = 0.0;
  double root_covered_ns = 0.0;
  for (const Track* track : tracks) {
    const auto& records = track->records();
    std::vector<double> covered(records.size(), 0.0);
    for (const auto& record : records) {
      if (record.parent >= 0) {
        covered[static_cast<std::size_t>(record.parent)] +=
            static_cast<double>(record.end_ns - record.start_ns);
      }
    }
    for (std::size_t i = 0; i < records.size(); ++i) {
      const auto& record = records[i];
      const double duration = static_cast<double>(record.end_ns - record.start_ns);
      LayerStats& stats = summary.layers[record.name];
      stats.duration_ms.add(duration / 1e6);
      stats.self_ms += (duration - covered[i]) / 1e6;
      if (record.parent < 0 && std::string_view(record.name) == root) {
        root_ns += duration;
        root_covered_ns += covered[i];
        ++summary.roots;
      }
    }
  }
  summary.coverage = root_ns > 0.0 ? root_covered_ns / root_ns : 0.0;
  return summary;
}

Json trace_json(const std::vector<const Track*>& tracks, std::string_view process_name) {
  const auto pid = static_cast<std::int64_t>(::getpid());
  Json events = Json::array();
  Json meta = Json::object();
  meta.set("name", "process_name");
  meta.set("ph", "M");
  meta.set("ts", 0);
  meta.set("pid", pid);
  meta.set("tid", 0);
  Json meta_args = Json::object();
  meta_args.set("name", std::string(process_name));
  meta.set("args", std::move(meta_args));
  events.push_back(std::move(meta));
  for (const Track* track : tracks) {
    for (const auto& record : track->records()) {
      const std::int64_t begin_us = record.start_ns / 1000;
      const std::int64_t end_us = record.end_ns / 1000;
      Json event = Json::object();
      event.set("name", record.name);
      event.set("cat", "perfbench");
      event.set("ph", "X");
      event.set("ts", begin_us);
      event.set("dur", end_us - begin_us);
      event.set("pid", pid);
      event.set("tid", static_cast<std::int64_t>(track->tid()));
      events.push_back(std::move(event));
    }
  }
  Json doc = Json::object();
  doc.set("traceEvents", std::move(events));
  return doc;
}

double peak_rss_mb() {
  rusage usage{};
  ::getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // ru_maxrss is KiB on Linux
}

std::uint64_t fnv1a(std::string_view text, std::uint64_t seed) {
  std::uint64_t hash = seed;
  for (unsigned char c : text) {
    hash ^= c;
    hash *= 0x100000001b3ULL;
  }
  return hash;
}

std::string hex64(std::uint64_t value) {
  char buffer[17];
  std::snprintf(buffer, sizeof(buffer), "%016llx", static_cast<unsigned long long>(value));
  return buffer;
}

std::string read_file(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  if (!in) throw std::runtime_error("cannot read " + path);
  std::ostringstream text;
  text << in.rdbuf();
  return text.str();
}

}  // namespace perfbench
