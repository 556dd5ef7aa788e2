// Tests for the observability subsystem (src/obs/): counter/gauge/histogram
// semantics under concurrency, snapshot merge + JSON round trip, the
// Chrome-trace emitter's event schema, and the RAII helpers.
#include "obs/obs.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <limits>
#include <memory>
#include <mutex>
#include <set>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "core/dominant_sets.hpp"
#include "core/objective.hpp"
#include "dist/online.hpp"
#include "test_helpers.hpp"
#include "util/json.hpp"
#include "util/stats.hpp"
#include "util/thread_pool.hpp"

namespace haste::obs {
namespace {

using util::Json;

TEST(Counter, SumsExactlyAcrossThreads) {
  Counter counter;
  util::ThreadPool pool(8);
  pool.parallel_for(10000, [&](std::size_t i) { counter.add(i % 3 + 1); });
  // sum over i of (i % 3 + 1): 10000 iterations, pattern 1,2,3 repeating.
  std::uint64_t expected = 0;
  for (std::size_t i = 0; i < 10000; ++i) expected += i % 3 + 1;
  EXPECT_EQ(counter.value(), expected);
}

TEST(Counter, DefaultDeltaIsOne) {
  Counter counter;
  counter.add();
  counter.add();
  EXPECT_EQ(counter.value(), 2u);
}

TEST(ThreadSlot, StablePerThreadAndDistinctAcrossThreads) {
  const std::size_t mine = thread_slot();
  EXPECT_EQ(thread_slot(), mine);  // stable on re-query
  std::set<std::size_t> seen;
  std::mutex mutex;
  std::vector<std::thread> threads;
  for (int t = 0; t < 4; ++t) {
    threads.emplace_back([&] {
      const std::size_t slot = thread_slot();
      std::lock_guard<std::mutex> lock(mutex);
      seen.insert(slot);
    });
  }
  for (std::thread& thread : threads) thread.join();
  EXPECT_EQ(seen.size(), 4u);
  EXPECT_FALSE(seen.count(mine));
}

TEST(Gauge, SetAddAndConcurrentAddsSumExactly) {
  Gauge gauge;
  gauge.set(2.5);
  EXPECT_DOUBLE_EQ(gauge.value(), 2.5);
  gauge.add(-0.5);
  EXPECT_DOUBLE_EQ(gauge.value(), 2.0);
  gauge.set(0.0);
  util::ThreadPool pool(4);
  pool.parallel_for(1000, [&](std::size_t) { gauge.add(1.0); });
  EXPECT_DOUBLE_EQ(gauge.value(), 1000.0);  // integral doubles add exactly
}

TEST(Histogram, BucketIndexLayout) {
  EXPECT_EQ(Histogram::bucket_index(0.0), 0u);
  EXPECT_EQ(Histogram::bucket_index(0.999), 0u);
  EXPECT_EQ(Histogram::bucket_index(-5.0), 0u);  // negatives park in bucket 0
  EXPECT_EQ(Histogram::bucket_index(std::numeric_limits<double>::quiet_NaN()), 0u);
  EXPECT_EQ(Histogram::bucket_index(1.0), 1u);
  EXPECT_EQ(Histogram::bucket_index(1.999), 1u);
  EXPECT_EQ(Histogram::bucket_index(2.0), 2u);
  EXPECT_EQ(Histogram::bucket_index(3.999), 2u);
  EXPECT_EQ(Histogram::bucket_index(4.0), 3u);
  // The top bucket absorbs everything, including infinity.
  EXPECT_EQ(Histogram::bucket_index(1e300), Histogram::kBucketCount - 1);
  EXPECT_EQ(Histogram::bucket_index(std::numeric_limits<double>::infinity()),
            Histogram::kBucketCount - 1);
}

TEST(Histogram, SnapshotMatchesSingleStreamGroundTruth) {
  MetricsRegistry registry;
  Histogram& histogram = registry.histogram("h");
  util::RunningStats truth;
  std::vector<double> values;
  for (int i = 0; i < 500; ++i) values.push_back(0.25 * i * i - 10.0);
  for (double v : values) {
    histogram.record(v);
    truth.add(v);
  }
  const MetricsSnapshot snapshot = registry.snapshot();
  ASSERT_TRUE(snapshot.histograms.count("h"));
  const auto& shot = snapshot.histograms.at("h");
  EXPECT_EQ(shot.stats.count(), truth.count());
  EXPECT_DOUBLE_EQ(shot.stats.min(), truth.min());
  EXPECT_DOUBLE_EQ(shot.stats.max(), truth.max());
  // The single calling thread lands in one shard, so even the mean is the
  // exact single-stream value (merge folds empty cells only).
  EXPECT_DOUBLE_EQ(shot.stats.mean(), truth.mean());
  std::uint64_t bucket_sum = 0;
  for (std::uint64_t b : shot.buckets) bucket_sum += b;
  EXPECT_EQ(bucket_sum, truth.count());
}

TEST(Histogram, ConcurrentRecordsAggregateAllObservations) {
  MetricsRegistry registry;
  Histogram& histogram = registry.histogram("spread");
  util::ThreadPool pool(8);
  pool.parallel_for(5000, [&](std::size_t i) {
    histogram.record(static_cast<double>(i % 128));
  });
  const auto shot = registry.snapshot().histograms.at("spread");
  EXPECT_EQ(shot.stats.count(), 5000u);
  EXPECT_DOUBLE_EQ(shot.stats.min(), 0.0);
  EXPECT_DOUBLE_EQ(shot.stats.max(), 127.0);
  std::uint64_t bucket_sum = 0;
  for (std::uint64_t b : shot.buckets) bucket_sum += b;
  EXPECT_EQ(bucket_sum, 5000u);
}

TEST(Histogram, QuantileUpperBoundsFollowTheLog2Buckets) {
  MetricsRegistry registry;
  Histogram& histogram = registry.histogram("q");
  for (int i = 1; i <= 1000; ++i) histogram.record(static_cast<double>(i));
  const auto shot = registry.snapshot().histograms.at("q");
  // rank 500 lands in bucket [256, 512) -> upper edge 512.
  EXPECT_DOUBLE_EQ(shot.quantile_upper(0.5), 512.0);
  // rank 990 lands in bucket [512, 1024) -> edge 1024, clamped to max 1000.
  EXPECT_DOUBLE_EQ(shot.quantile_upper(0.99), 1000.0);
  // q = 0 still means "the smallest bucket with any mass" (rank >= 1):
  // value 1 lives in bucket [1, 2), so the conservative upper edge is 2.
  EXPECT_DOUBLE_EQ(shot.quantile_upper(0.0), 2.0);
}

TEST(Histogram, QuantileUpperAllZeroBucketsReturnsTheZeroSentinel) {
  // Pins the total == 0 early-out in quantile_upper: every q — including the
  // q = 0 "smallest bucket with mass" convention — reports exactly 0.0 when
  // no bucket holds anything. Covers both shapes of "all zero": the
  // default-constructed snapshot (empty bucket vector) and a registered
  // histogram that never recorded (allocated bucket vector, all zeros).
  const MetricsSnapshot::HistogramSnapshot defaulted;
  for (const double q : {0.0, 0.5, 0.99, 1.0}) {
    EXPECT_DOUBLE_EQ(defaulted.quantile_upper(q), 0.0) << "q=" << q;
  }
  MetricsRegistry registry;
  registry.histogram("registered_but_silent");
  const auto silent = registry.snapshot().histograms.at("registered_but_silent");
  EXPECT_EQ(silent.stats.count(), 0u);
  for (const double q : {0.0, 0.5, 0.99, 1.0}) {
    EXPECT_DOUBLE_EQ(silent.quantile_upper(q), 0.0) << "q=" << q;
  }
  // The sentinel is ambiguous with a genuine all-zero population — a max of
  // exactly 0.0 clamps the bucket edge to 0.0 — which is why consumers must
  // discriminate via stats.count(), as documented on the declaration.
  Histogram& zeros = registry.histogram("all_zero_values");
  zeros.record(0.0);
  const auto observed = registry.snapshot().histograms.at("all_zero_values");
  EXPECT_EQ(observed.stats.count(), 1u);
  EXPECT_DOUBLE_EQ(observed.quantile_upper(0.99), 0.0);
}

TEST(Histogram, QuantileUpperEdgeCases) {
  const MetricsSnapshot::HistogramSnapshot empty;
  EXPECT_DOUBLE_EQ(empty.quantile_upper(0.99), 0.0);
  MetricsRegistry registry;
  Histogram& single = registry.histogram("single");
  single.record(5.0);
  const auto shot = registry.snapshot().histograms.at("single");
  // Bucket edge would be 8; the exact observed max (5) is tighter.
  EXPECT_DOUBLE_EQ(shot.quantile_upper(0.99), 5.0);
  EXPECT_DOUBLE_EQ(shot.quantile_upper(0.5), 5.0);
}

TEST(MetricsSnapshot, JsonCarriesDerivedQuantilesButRoundTripIgnoresThem) {
  MetricsRegistry registry;
  Histogram& histogram = registry.histogram("latency");
  for (int i = 1; i <= 100; ++i) histogram.record(static_cast<double>(i));
  const MetricsSnapshot snapshot = registry.snapshot();
  const Json json = snapshot.to_json();
  const Json& h = json.at("histograms").at("latency");
  EXPECT_DOUBLE_EQ(h.at("p50").as_number(), snapshot.histograms.at("latency").quantile_upper(0.5));
  EXPECT_DOUBLE_EQ(h.at("p99").as_number(), snapshot.histograms.at("latency").quantile_upper(0.99));
  // p50/p99 are derived presentation keys: the round trip reconstructs them
  // from the buckets rather than trusting (or requiring) them in the input.
  const MetricsSnapshot round = MetricsSnapshot::from_json(json);
  EXPECT_EQ(round.to_json().dump(), json.dump());
}

TEST(MetricsRegistry, InstrumentsAreStableReferences) {
  MetricsRegistry registry;
  Counter& a = registry.counter("same");
  Counter& b = registry.counter("same");
  EXPECT_EQ(&a, &b);
  a.add(3);
  EXPECT_EQ(registry.snapshot().counters.at("same"), 3u);
}

TEST(MetricsRegistry, ConcurrentRegistrationAndUseFromPool) {
  // Hammer create-or-get + record from many threads at once: the registry
  // must never lose an increment or invalidate a reference. (The sanitized
  // duplicate of this suite runs the same pattern under ASan/UBSan.)
  MetricsRegistry registry;
  util::ThreadPool pool(8);
  pool.parallel_for(4000, [&](std::size_t i) {
    registry.counter("shared." + std::to_string(i % 7)).add(1);
    registry.histogram("hist." + std::to_string(i % 3)).record(static_cast<double>(i));
    registry.gauge("gauge").set(static_cast<double>(i));
  });
  const MetricsSnapshot snapshot = registry.snapshot();
  std::uint64_t counter_total = 0;
  for (const auto& [name, value] : snapshot.counters) counter_total += value;
  EXPECT_EQ(counter_total, 4000u);
  std::uint64_t histogram_total = 0;
  for (const auto& [name, shot] : snapshot.histograms) {
    histogram_total += shot.stats.count();
  }
  EXPECT_EQ(histogram_total, 4000u);
}

TEST(MetricsSnapshot, MergeAddsCountersAndCombinesHistograms) {
  MetricsRegistry a;
  MetricsRegistry b;
  a.counter("shared").add(5);
  b.counter("shared").add(7);
  a.counter("only_a").add(1);
  b.gauge("g").set(4.5);
  util::RunningStats truth;
  for (int i = 0; i < 10; ++i) {
    a.histogram("h").record(static_cast<double>(i));
    truth.add(static_cast<double>(i));
  }
  for (int i = 10; i < 30; ++i) {
    b.histogram("h").record(static_cast<double>(i));
    truth.add(static_cast<double>(i));
  }
  MetricsSnapshot merged = a.snapshot();
  merged.merge(b.snapshot());
  EXPECT_EQ(merged.counters.at("shared"), 12u);
  EXPECT_EQ(merged.counters.at("only_a"), 1u);
  EXPECT_DOUBLE_EQ(merged.gauges.at("g"), 4.5);
  const auto& h = merged.histograms.at("h");
  EXPECT_EQ(h.stats.count(), truth.count());
  EXPECT_DOUBLE_EQ(h.stats.min(), truth.min());
  EXPECT_DOUBLE_EQ(h.stats.max(), truth.max());
  EXPECT_NEAR(h.stats.mean(), truth.mean(), 1e-12);
  EXPECT_NEAR(h.stats.variance(), truth.variance(), 1e-9);
}

TEST(MetricsSnapshot, JsonRoundTripIsExact) {
  MetricsRegistry registry;
  // A value above 2^53 would be silently rounded as a JSON number; the
  // decimal-string convention must carry it bit-exact.
  registry.counter("big").add((1ull << 60) + 12345);
  registry.gauge("ratio").set(0.1);  // not exactly representable in decimal
  for (int i = 0; i < 5; ++i) registry.histogram("h").record(1.5 * i);
  const MetricsSnapshot before = registry.snapshot();
  const MetricsSnapshot after =
      MetricsSnapshot::from_json(Json::parse(before.to_json().dump()));
  EXPECT_EQ(after.counters, before.counters);
  ASSERT_EQ(after.gauges.size(), before.gauges.size());
  EXPECT_EQ(after.gauges.at("ratio"), before.gauges.at("ratio"));  // bit-exact
  const auto& ha = after.histograms.at("h");
  const auto& hb = before.histograms.at("h");
  EXPECT_EQ(ha.stats.count(), hb.stats.count());
  EXPECT_EQ(ha.stats.mean(), hb.stats.mean());
  EXPECT_EQ(ha.stats.m2(), hb.stats.m2());
  EXPECT_EQ(ha.buckets, hb.buckets);
}

TEST(MetricsSnapshot, EmptyAndMergeIntoEmpty) {
  MetricsSnapshot empty;
  EXPECT_TRUE(empty.empty());
  MetricsRegistry registry;
  registry.counter("c").add(2);
  MetricsSnapshot merged;
  merged.merge(registry.snapshot());
  EXPECT_FALSE(merged.empty());
  EXPECT_EQ(merged.counters.at("c"), 2u);
}

// --- Tracer ---

class TracerTest : public ::testing::Test {
 protected:
  void SetUp() override {
    Tracer::instance().stop();
    Tracer::instance().take_events();  // drain leftovers from other tests
  }
  void TearDown() override {
    Tracer::instance().stop();
    Tracer::instance().take_events();
  }
};

TEST_F(TracerTest, DisabledTracerEmitsNothingAndSpansAreInactive) {
  EXPECT_FALSE(Tracer::instance().enabled());
  {
    Span span("ignored");
    EXPECT_FALSE(span.active());
    span.arg("k", Json(1));  // must be a safe no-op
  }
  Tracer::instance().instant("ignored");
  Tracer::instance().counter("ignored", 1.0);
  EXPECT_EQ(Tracer::instance().take_events().size(), 0u);
}

TEST_F(TracerTest, MemoryModeCollectsSchemaValidEvents) {
  Tracer::instance().start_memory();
  EXPECT_TRUE(Tracer::instance().enabled());
  {
    Span outer("outer");
    EXPECT_TRUE(outer.active());
    outer.arg("chargers", Json(3));
    {
      Span inner("inner");
      EXPECT_TRUE(inner.active());
    }
  }
  Tracer::instance().instant("tick");
  Tracer::instance().counter("depth", 2.0);
  Tracer::instance().process_name("unit test");
  const Json events = Tracer::instance().take_events();
  ASSERT_EQ(events.size(), 5u);

  // Spans close inner-first, so "inner" precedes "outer" in the buffer.
  const Json& inner = events.at(0);
  EXPECT_EQ(inner.at("ph").as_string(), "X");
  EXPECT_EQ(inner.at("name").as_string(), "inner");
  EXPECT_GE(inner.at("dur").as_int(), 0);
  const Json& outer = events.at(1);
  EXPECT_EQ(outer.at("name").as_string(), "outer");
  EXPECT_EQ(outer.at("args").at("chargers").as_int(), 3);
  // Proper nesting: outer starts no later and ends no earlier than inner.
  EXPECT_LE(outer.at("ts").as_int(), inner.at("ts").as_int());
  EXPECT_GE(outer.at("ts").as_int() + outer.at("dur").as_int(),
            inner.at("ts").as_int() + inner.at("dur").as_int());
  for (const char* key : {"ph", "name", "ts", "pid", "tid"}) {
    EXPECT_TRUE(inner.contains(key)) << key;
  }

  const Json& instant = events.at(2);
  EXPECT_EQ(instant.at("ph").as_string(), "i");
  EXPECT_EQ(instant.at("s").as_string(), "t");
  const Json& counter = events.at(3);
  EXPECT_EQ(counter.at("ph").as_string(), "C");
  EXPECT_DOUBLE_EQ(counter.at("args").at("value").as_number(), 2.0);
  const Json& meta = events.at(4);
  EXPECT_EQ(meta.at("ph").as_string(), "M");
  EXPECT_EQ(meta.at("name").as_string(), "process_name");

  // take_events drained the buffer.
  EXPECT_EQ(Tracer::instance().take_events().size(), 0u);
}

TEST_F(TracerTest, InjectAppendsForeignEvents) {
  Tracer::instance().start_memory();
  Json foreign = Json::array();
  Json event = Json::object();
  event.set("ph", Json("X"));
  event.set("name", Json("worker.span"));
  event.set("ts", Json(1.0));
  event.set("dur", Json(2.0));
  event.set("pid", Json(99999));
  event.set("tid", Json(0));
  foreign.push_back(std::move(event));
  Tracer::instance().inject(foreign);
  const Json events = Tracer::instance().take_events();
  ASSERT_EQ(events.size(), 1u);
  EXPECT_EQ(events.at(0).at("name").as_string(), "worker.span");
  EXPECT_EQ(events.at(0).at("pid").as_int(), 99999);
}

TEST_F(TracerTest, FileModeWritesTraceEventsObject) {
  const std::string path = testing::TempDir() + "haste_obs_trace_test.json";
  std::remove(path.c_str());
  Tracer::instance().start_file(path);
  { Span span("file.span"); }
  Tracer::instance().stop();
  EXPECT_FALSE(Tracer::instance().enabled());
  const Json root = util::load_json_file(path);
  ASSERT_TRUE(root.contains("traceEvents"));
  ASSERT_EQ(root.at("traceEvents").size(), 1u);
  EXPECT_EQ(root.at("traceEvents").at(0).at("name").as_string(), "file.span");
  std::remove(path.c_str());
}

TEST_F(TracerTest, ConcurrentSpansFromPoolAllRecorded) {
  Tracer::instance().start_memory();
  util::ThreadPool pool(8);
  pool.parallel_for(200, [&](std::size_t i) {
    Span span("parallel.span");
    span.arg("i", Json(static_cast<int>(i)));
    HASTE_OBS_COUNTER_ADD("obs_test.parallel", 1);
  });
  const Json events = Tracer::instance().take_events();
  EXPECT_EQ(events.size(), 200u);
  EXPECT_GE(MetricsRegistry::instance().counter("obs_test.parallel").value(), 200u);
}

TEST_F(TracerTest, ScopedTimerFeedsHistogram) {
  MetricsRegistry registry;
  Histogram& histogram = registry.histogram("timer_us");
  { ScopedTimer timer(histogram); }
  { ScopedTimer timer(histogram); }
  const auto shot = registry.snapshot().histograms.at("timer_us");
  EXPECT_EQ(shot.stats.count(), 2u);
  EXPECT_GE(shot.stats.min(), 0.0);
}

// Regression: stop()/write() used to leave events_ populated, so a second
// trace session in the same process re-emitted every event of the first.
// Back-to-back file sessions must yield disjoint event sets.
TEST_F(TracerTest, BackToBackFileSessionsNeverDuplicateEvents) {
  const std::string first_path = testing::TempDir() + "haste_obs_session1.json";
  const std::string second_path = testing::TempDir() + "haste_obs_session2.json";
  std::remove(first_path.c_str());
  std::remove(second_path.c_str());

  Tracer::instance().start_file(first_path);
  Tracer::instance().instant("first.only");
  Tracer::instance().stop();
  Tracer::instance().start_file(second_path);
  Tracer::instance().instant("second.only");
  Tracer::instance().stop();

  const auto names_of = [](const std::string& path) {
    std::set<std::string> names;
    const Json events = util::load_json_file(path).at("traceEvents");
    for (std::size_t e = 0; e < events.size(); ++e) {
      names.insert(events.at(e).at("name").as_string());
    }
    return names;
  };
  const std::set<std::string> first = names_of(first_path);
  const std::set<std::string> second = names_of(second_path);
  EXPECT_TRUE(first.count("first.only"));
  EXPECT_FALSE(first.count("second.only"));
  EXPECT_TRUE(second.count("second.only"));
  EXPECT_FALSE(second.count("first.only"));  // the duplication bug
  std::remove(first_path.c_str());
  std::remove(second_path.c_str());
}

// Repeated write() calls must each hold only the window since the previous
// drain — never a re-emission of already-written events.
TEST_F(TracerTest, RepeatedWritesDrainTheBuffer) {
  const std::string path = testing::TempDir() + "haste_obs_rewrite.json";
  Tracer::instance().start_memory();
  Tracer::instance().instant("window.one");
  Tracer::instance().write(path);
  EXPECT_EQ(util::load_json_file(path).at("traceEvents").size(), 1u);
  Tracer::instance().instant("window.two");
  Tracer::instance().write(path);
  const Json second = util::load_json_file(path).at("traceEvents");
  ASSERT_EQ(second.size(), 1u);
  EXPECT_EQ(second.at(0).at("name").as_string(), "window.two");
  std::remove(path.c_str());
}

// A Span that outlives its session must emit nothing: neither after a plain
// stop() (tracing disabled) nor after a stop()+restart (stale epoch must not
// contaminate the new session).
TEST_F(TracerTest, SpanOutlivingItsSessionEmitsNothing) {
  Tracer::instance().start_memory();
  auto stopped_span = std::make_unique<Span>("born.before.stop");
  EXPECT_TRUE(stopped_span->active());
  Tracer::instance().stop();
  stopped_span.reset();  // destroyed while tracing is off: dropped
  Tracer::instance().start_memory();
  EXPECT_EQ(Tracer::instance().take_events().size(), 0u);

  auto stale_span = std::make_unique<Span>("born.in.old.session");
  EXPECT_TRUE(stale_span->active());
  Tracer::instance().stop();
  Tracer::instance().take_events();
  Tracer::instance().start_memory();  // NEW session while the span is alive
  stale_span.reset();  // enabled again, but the span's epoch is stale
  Tracer::instance().instant("fresh");
  const Json events = Tracer::instance().take_events();
  ASSERT_EQ(events.size(), 1u);
  EXPECT_EQ(events.at(0).at("name").as_string(), "fresh");
}

TEST_F(TracerTest, RingDropsOldestAndLatchesDroppedCounter) {
  const std::uint64_t dropped_before =
      MetricsRegistry::instance().counter("trace.dropped").value();
  Tracer::instance().set_ring_capacity(4);
  Tracer::instance().start_memory();
  for (int i = 0; i < 10; ++i) {
    Tracer::instance().instant("ring." + std::to_string(i));
  }
  const Json events = Tracer::instance().take_events();
  Tracer::instance().set_ring_capacity(Tracer::kDefaultRingCapacity);
  ASSERT_EQ(events.size(), 4u);
  // Drop-oldest: the survivors are the most recent four, in order.
  for (int i = 0; i < 4; ++i) {
    EXPECT_EQ(events.at(i).at("name").as_string(), "ring." + std::to_string(6 + i));
  }
  EXPECT_EQ(MetricsRegistry::instance().counter("trace.dropped").value(),
            dropped_before + 6);
}

TEST_F(TracerTest, ShrinkingRingCapacityTrimsAndCountsDrops) {
  const std::uint64_t dropped_before =
      MetricsRegistry::instance().counter("trace.dropped").value();
  Tracer::instance().start_memory();
  for (int i = 0; i < 6; ++i) {
    Tracer::instance().instant("trim." + std::to_string(i));
  }
  Tracer::instance().set_ring_capacity(2);  // trims 4 immediately
  const Json events = Tracer::instance().take_events();
  Tracer::instance().set_ring_capacity(Tracer::kDefaultRingCapacity);
  ASSERT_EQ(events.size(), 2u);
  EXPECT_EQ(events.at(0).at("name").as_string(), "trim.4");
  EXPECT_EQ(events.at(1).at("name").as_string(), "trim.5");
  EXPECT_EQ(MetricsRegistry::instance().counter("trace.dropped").value(),
            dropped_before + 4);
}

// --- windowed deltas + text exposition ---

TEST(MetricsSnapshot, DeltaWindowsCountersGaugesAndHistograms) {
  MetricsRegistry registry;
  registry.counter("c").add(5);
  registry.gauge("g").set(1.0);
  util::RunningStats window_truth;
  for (int i = 0; i < 10; ++i) registry.histogram("h").record(static_cast<double>(i));
  const MetricsSnapshot before = registry.snapshot();

  registry.counter("c").add(3);
  registry.counter("fresh").add(2);  // born after `before`
  registry.gauge("g").set(7.5);
  for (int i = 100; i < 130; ++i) {
    registry.histogram("h").record(static_cast<double>(i));
    window_truth.add(static_cast<double>(i));
  }
  const MetricsSnapshot after = registry.snapshot();

  const MetricsSnapshot window = after.delta(before);
  EXPECT_EQ(window.counters.at("c"), 3u);
  EXPECT_EQ(window.counters.at("fresh"), 2u);  // all-zero prev: full value
  EXPECT_DOUBLE_EQ(window.gauges.at("g"), 7.5);  // gauges carry the level

  const auto& h = window.histograms.at("h");
  EXPECT_EQ(h.stats.count(), window_truth.count());
  EXPECT_NEAR(h.stats.mean(), window_truth.mean(), 1e-9);
  EXPECT_NEAR(h.stats.variance(), window_truth.variance(), 1e-6);
  std::uint64_t bucket_sum = 0;
  for (std::uint64_t b : h.buckets) bucket_sum += b;
  EXPECT_EQ(bucket_sum, window_truth.count());
  // min/max keep the cumulative envelope (conservative, never narrower).
  EXPECT_DOUBLE_EQ(h.stats.min(), 0.0);
  EXPECT_DOUBLE_EQ(h.stats.max(), 129.0);
}

TEST(MetricsSnapshot, DeltaOfIdenticalSnapshotsIsEmptyWindow) {
  MetricsRegistry registry;
  registry.counter("c").add(4);
  for (int i = 0; i < 7; ++i) registry.histogram("h").record(2.0 * i);
  const MetricsSnapshot snap = registry.snapshot();
  const MetricsSnapshot window = snap.delta(snap);
  EXPECT_EQ(window.counters.at("c"), 0u);
  EXPECT_EQ(window.histograms.at("h").stats.count(), 0u);
  std::uint64_t bucket_sum = 0;
  for (std::uint64_t b : window.histograms.at("h").buckets) bucket_sum += b;
  EXPECT_EQ(bucket_sum, 0u);
}

TEST(MetricsSnapshot, DeltaClampsBackwardCountersToZero) {
  MetricsSnapshot before;
  before.counters["c"] = 10;
  MetricsSnapshot after;
  after.counters["c"] = 4;  // e.g. a restarted worker re-reported totals
  EXPECT_EQ(after.delta(before).counters.at("c"), 0u);
}

TEST(MetricsSnapshot, TextExpositionOneLinePerValue) {
  MetricsRegistry registry;
  registry.counter("jobs.done").add(3);
  registry.gauge("pool.size").set(8.0);
  for (int i = 1; i <= 100; ++i) {
    registry.histogram("latency_us").record(static_cast<double>(i));
  }
  const MetricsSnapshot snap = registry.snapshot();
  const std::string text = snap.text_exposition();
  EXPECT_NE(text.find("jobs.done 3\n"), std::string::npos);
  EXPECT_NE(text.find("pool.size 8\n"), std::string::npos);
  EXPECT_NE(text.find("latency_us.count 100\n"), std::string::npos);
  EXPECT_NE(text.find("latency_us.p50 "), std::string::npos);
  EXPECT_NE(text.find("latency_us.p99 "), std::string::npos);
  EXPECT_NE(text.find("latency_us.max 100\n"), std::string::npos);
  // Every line is "name value": two fields, space-separated.
  std::size_t start = 0;
  while (start < text.size()) {
    const std::size_t eol = text.find('\n', start);
    ASSERT_NE(eol, std::string::npos);
    const std::string line = text.substr(start, eol - start);
    EXPECT_EQ(std::count(line.begin(), line.end(), ' '), 1) << line;
    start = eol + 1;
  }
}

// --- quantile_upper edge cases ---

TEST(Histogram, QuantileUpperAtExtremesAndSubUnitValues) {
  MetricsRegistry registry;
  Histogram& sub = registry.histogram("sub_unit");
  sub.record(0.25);
  sub.record(0.5);  // everything in bucket 0 (values < 1)
  const auto all_zero = registry.snapshot().histograms.at("sub_unit");
  // Bucket 0's upper edge is 1, clamped to the exact observed max.
  EXPECT_DOUBLE_EQ(all_zero.quantile_upper(0.0), 0.5);
  EXPECT_DOUBLE_EQ(all_zero.quantile_upper(1.0), 0.5);
  // Out-of-range q clamps rather than throwing.
  EXPECT_DOUBLE_EQ(all_zero.quantile_upper(-3.0), 0.5);
  EXPECT_DOUBLE_EQ(all_zero.quantile_upper(2.0), 0.5);
}

TEST(Histogram, QuantileUpperWithInfinityAndNaN) {
  MetricsRegistry registry;
  Histogram& hist = registry.histogram("weird");
  hist.record(std::numeric_limits<double>::quiet_NaN());  // bucket 0
  hist.record(std::numeric_limits<double>::infinity());   // top bucket
  const auto shot = registry.snapshot().histograms.at("weird");
  std::uint64_t bucket_sum = 0;
  for (std::uint64_t b : shot.buckets) bucket_sum += b;
  EXPECT_EQ(bucket_sum, 2u);
  EXPECT_EQ(shot.buckets[0], 1u);
  EXPECT_EQ(shot.buckets[Histogram::kBucketCount - 1], 1u);
  // q=1 targets the +inf observation: the top bucket's finite upper edge is
  // the conservative bound (min(2^63, max=inf)).
  EXPECT_DOUBLE_EQ(shot.quantile_upper(1.0),
                   std::ldexp(1.0, static_cast<int>(Histogram::kBucketCount) - 1));
}

TEST(Histogram, QuantileUpperOnMergedWorkerSnapshots) {
  MetricsRegistry worker_a;
  MetricsRegistry worker_b;
  for (int i = 1; i <= 50; ++i) worker_a.histogram("h").record(2.0);   // [2,4)
  for (int i = 1; i <= 50; ++i) worker_b.histogram("h").record(100.0);  // [64,128)
  MetricsSnapshot merged = worker_a.snapshot();
  merged.merge(worker_b.snapshot());
  const auto& h = merged.histograms.at("h");
  EXPECT_EQ(h.stats.count(), 100u);
  EXPECT_DOUBLE_EQ(h.quantile_upper(0.5), 4.0);    // rank 50: still bucket [2,4)
  EXPECT_DOUBLE_EQ(h.quantile_upper(0.99), 100.0);  // edge 128 clamped to max
}

// --- MetricsFlusher ---

TEST(MetricsFlusher, FlushNowSamplesWindowedDeltas) {
  Tracer::instance().stop();
  Tracer::instance().take_events();
  Tracer::instance().start_memory();
  // Period far beyond the test's lifetime: only explicit flushes sample.
  MetricsFlusher flusher(600000);
  Counter& counter = MetricsRegistry::instance().counter("flusher_test.jobs");
  const std::uint64_t base = counter.value();
  counter.add(3);
  flusher.flush_now();
  counter.add(2);
  flusher.flush_now();
  flusher.stop();  // joins + one more (empty for this counter) window
  const Json events = Tracer::instance().take_events();
  Tracer::instance().stop();

  std::vector<double> samples;
  for (std::size_t e = 0; e < events.size(); ++e) {
    const Json& event = events.at(e);
    if (event.at("ph").as_string() == "C" &&
        event.at("name").as_string() == "flusher_test.jobs") {
      samples.push_back(event.at("args").at("value").as_number());
    }
  }
  ASSERT_EQ(samples.size(), 3u);
  // First window carries the whole history (prev_ starts empty), the second
  // the delta since, the final stop() window nothing new.
  EXPECT_DOUBLE_EQ(samples[0], static_cast<double>(base) + 3.0);
  EXPECT_DOUBLE_EQ(samples[1], 2.0);
  EXPECT_DOUBLE_EQ(samples[2], 0.0);
}

TEST(MetricsFlusher, PeriodicThreadSamplesWithoutExplicitFlushes) {
  Tracer::instance().stop();
  Tracer::instance().take_events();
  Tracer::instance().start_memory();
  MetricsRegistry::instance().counter("flusher_test.periodic").add(1);
  {
    MetricsFlusher flusher(5);
    std::this_thread::sleep_for(std::chrono::milliseconds(60));
  }  // destructor stops + final flush
  const Json events = Tracer::instance().take_events();
  Tracer::instance().stop();
  std::size_t samples = 0;
  for (std::size_t e = 0; e < events.size(); ++e) {
    if (events.at(e).at("name").as_string() == "flusher_test.periodic") ++samples;
  }
  EXPECT_GE(samples, 2u);
}

// Every negotiated re-plan records one sample of its broadcasts,
// deliveries and rounds beside its latency. No other case of this suite
// runs an online session, so the cumulative extrema are this run's.
TEST(OnlineReplanHistograms, OneSamplePerNegotiatedPlan) {
  const MetricsSnapshot before = MetricsRegistry::instance().snapshot();
  util::Rng rng(5);
  const model::Network net = testing_helpers::random_network(rng, 5, 14, 5);
  dist::OnlineConfig config;
  config.colors = 2;
  config.samples = 4;
  const dist::OnlineResult result = dist::run_online(net, config);
  ASSERT_GT(result.negotiations, 1u);
  const MetricsSnapshot after = MetricsRegistry::instance().snapshot();
  const MetricsSnapshot window = after.delta(before);
  const auto check = [&](const char* name, std::uint64_t dist::NegotiationRecord::*field) {
    SCOPED_TRACE(name);
    std::uint64_t low = ~std::uint64_t{0};
    std::uint64_t high = 0;
    for (const dist::NegotiationRecord& record : result.log) {
      low = std::min(low, record.*field);
      high = std::max(high, record.*field);
    }
    ASSERT_EQ(window.histograms.count(name), 1u);
    EXPECT_EQ(window.histograms.at(name).stats.count(), result.negotiations);
    const util::RunningStats& stats = after.histograms.at(name).stats;
    EXPECT_EQ(stats.min(), static_cast<double>(low));
    EXPECT_EQ(stats.max(), static_cast<double>(high));
  };
  check("online.replan.messages", &dist::NegotiationRecord::messages);
  check("online.replan.deliveries", &dist::NegotiationRecord::deliveries);
  check("online.replan.rounds", &dist::NegotiationRecord::rounds);
}

// online.slots.live and online.slots.dead split the participating (charger,
// slot)s of each plan, added once per plan: in the election protocol each
// pair loads once, so live + dead is every (charger, slot >= plan start)
// with a policy over the plan's known tasks. Tasks that need a single joule
// saturate in the first slot that charges them, so the later slots of their
// windows are dead. The greedy strategies add to neither counter.
TEST(OnlineSlotCounters, LiveAndDeadSplitTheParticipatingPairs) {
  util::Rng rng(6);
  const model::Network base = testing_helpers::random_network(rng, 5, 14, 6);
  std::vector<model::Task> tasks = base.tasks();
  for (model::Task& task : tasks) {
    task.required_energy = 1.0;
    task.end_slot = task.release_slot + 6;
  }
  const model::Network net(base.chargers(), std::move(tasks), base.power_model(), base.time());
  const auto counters = [] {
    auto& registry = MetricsRegistry::instance();
    return std::pair{registry.counter("online.slots.live").value(),
                     registry.counter("online.slots.dead").value()};
  };
  dist::OnlineConfig config;
  config.colors = 2;
  config.samples = 4;
  const auto before = counters();
  const dist::OnlineResult result = dist::run_online(net, config);
  const auto after = counters();
  const std::uint64_t live = after.first - before.first;
  const std::uint64_t dead = after.second - before.second;

  std::uint64_t participating = 0;
  core::SlotPolicies policies;
  for (const dist::NegotiationRecord& record : result.log) {
    std::vector<model::TaskIndex> known;
    for (model::TaskIndex j = 0; j < net.task_count(); ++j) {
      if (net.tasks()[static_cast<std::size_t>(j)].release_slot <= record.event_slot) {
        known.push_back(j);
      }
    }
    ASSERT_EQ(known.size(), record.known_tasks);
    for (model::ChargerIndex i = 0; i < net.charger_count(); ++i) {
      const auto dominant = core::extract_dominant_sets(net, i, known);
      for (model::SlotIndex k = record.plan_start; k < net.horizon(); ++k) {
        core::make_slot_policies(net, i, dominant, k, policies);
        if (policies.size() > 0) ++participating;
      }
    }
  }
  EXPECT_EQ(live + dead, participating);
  EXPECT_GT(live, 0u);
  EXPECT_GT(dead, 0u);

  for (const dist::OnlineStrategy strategy :
       {dist::OnlineStrategy::kGreedyUtility, dist::OnlineStrategy::kGreedyCover}) {
    config.strategy = strategy;
    const auto greedy_before = counters();
    EXPECT_GT(dist::run_online(net, config).negotiations, 0u);
    EXPECT_EQ(counters(), greedy_before);
  }
}

}  // namespace
}  // namespace haste::obs
