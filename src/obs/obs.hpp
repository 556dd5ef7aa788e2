// Instrumentation entry points. The classes in metrics.hpp / trace.hpp are
// always compiled (snapshots ride the shard wire protocol); these macros are
// how hot paths touch them. Spans are plain obs::Span values.
//
// Counter/gauge/histogram macros cache the registry lookup in a
// function-local static, so the steady-state cost is the instrument's own
// fast path (one relaxed atomic RMW for counters).
#pragma once

#include "obs/metrics.hpp"
#include "obs/trace.hpp"

#define HASTE_OBS_COUNTER_ADD(name, delta)                                   \
  do {                                                                       \
    static ::haste::obs::Counter& haste_obs_counter_ =                       \
        ::haste::obs::MetricsRegistry::instance().counter(name);             \
    haste_obs_counter_.add(delta);                                           \
  } while (0)
#define HASTE_OBS_GAUGE_SET(name, value)                                     \
  do {                                                                       \
    static ::haste::obs::Gauge& haste_obs_gauge_ =                           \
        ::haste::obs::MetricsRegistry::instance().gauge(name);               \
    haste_obs_gauge_.set(value);                                             \
  } while (0)
#define HASTE_OBS_GAUGE_ADD(name, delta)                                     \
  do {                                                                       \
    static ::haste::obs::Gauge& haste_obs_gauge_ =                           \
        ::haste::obs::MetricsRegistry::instance().gauge(name);               \
    haste_obs_gauge_.add(delta);                                             \
  } while (0)
#define HASTE_OBS_HISTOGRAM_RECORD(name, value)                              \
  do {                                                                       \
    static ::haste::obs::Histogram& haste_obs_histogram_ =                   \
        ::haste::obs::MetricsRegistry::instance().histogram(name);           \
    haste_obs_histogram_.record(value);                                      \
  } while (0)
