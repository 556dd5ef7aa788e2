#include "serve/session.hpp"

#include <cstdint>
#include <limits>
#include <stdexcept>
#include <string>
#include <vector>

#include "io/scenario_io.hpp"
#include "obs/obs.hpp"

namespace haste::serve {

namespace {

using util::Json;

// 64-bit counters ride as decimal strings (the shard wire convention):
// JSON numbers are doubles and silently round above 2^53.
Json u64_json(std::uint64_t value) { return Json(std::to_string(value)); }

std::uint64_t u64_from(const Json& json) {
  if (json.is_number()) {
    // Accept small numeric seeds for hand-written requests; exact up to 2^53.
    const double value = json.as_number();
    if (value < 0 || value != static_cast<double>(static_cast<std::uint64_t>(value))) {
      throw util::JsonError("u64 field is not a non-negative integer");
    }
    return static_cast<std::uint64_t>(value);
  }
  const std::string& text = json.as_string();
  std::size_t consumed = 0;
  const std::uint64_t value = std::stoull(text, &consumed, 10);
  if (consumed != text.size()) throw util::JsonError("malformed u64: " + text);
  return value;
}

// Slots, task ids and charger ids are 32-bit indices. A JSON number outside
// that range must be rejected, not narrowed: a cast would wrap 2^32 to 0 and
// act on the wrong slot, task or charger.
std::int32_t index_from(const Json& json, const char* field) {
  const std::int64_t value = json.as_int();
  if (value < std::numeric_limits<std::int32_t>::min() ||
      value > std::numeric_limits<std::int32_t>::max()) {
    throw util::JsonError(std::string(field) + " " + std::to_string(value) +
                          " is outside the index range");
  }
  return static_cast<std::int32_t>(value);
}

const char* strategy_name(dist::OnlineStrategy strategy) {
  switch (strategy) {
    case dist::OnlineStrategy::kHaste: return "haste";
    case dist::OnlineStrategy::kHasteSequential: return "haste-seq";
    case dist::OnlineStrategy::kGreedyUtility: return "greedy-utility";
    case dist::OnlineStrategy::kGreedyCover: return "greedy-cover";
  }
  return "haste";
}

dist::OnlineStrategy parse_strategy(const std::string& name) {
  if (name == "haste") return dist::OnlineStrategy::kHaste;
  if (name == "haste-seq") return dist::OnlineStrategy::kHasteSequential;
  if (name == "greedy-utility") return dist::OnlineStrategy::kGreedyUtility;
  if (name == "greedy-cover") return dist::OnlineStrategy::kGreedyCover;
  throw util::JsonError("unknown online strategy: " + name);
}

const char* tabular_mode_name(core::TabularMode mode) {
  return mode == core::TabularMode::kRebuild ? "rebuild" : "incremental";
}

core::TabularMode parse_tabular_mode(const std::string& name) {
  if (name == "incremental") return core::TabularMode::kIncremental;
  if (name == "rebuild") return core::TabularMode::kRebuild;
  throw util::JsonError("unknown tabular mode: " + name);
}

// The session lifecycle counters are the daemon's operational surface, so
// like the online.replan span they bypass the HASTE_OBS gate and exist even
// in -DHASTE_OBS=OFF builds (the per-request counters in server.cpp stay
// gated — they are diagnostics, not contract).
obs::Counter& lifecycle_counter(const char* name) {
  return obs::MetricsRegistry::instance().counter(name);
}

Json error_reply(const std::string& message) {
  Json reply = Json::object();
  reply.set("ok", false);
  reply.set("op", "error");
  reply.set("message", message);
  return reply;
}

// Returns an empty string when `deadlines` is a well-formed echo of the
// batch's task deadlines (-1 = no deadline), else a description of the first
// problem. Never throws: a malformed echo must soft-reject the one line, not
// trip the catch-all that closes the whole session.
std::string check_deadline_echo(const model::Network& net, const Json& deadlines,
                                const std::vector<model::TaskIndex>& tasks) {
  try {
    if (deadlines.size() != tasks.size()) {
      return "deadlines length " + std::to_string(deadlines.size()) +
             " does not match tasks length " + std::to_string(tasks.size());
    }
    for (std::size_t t = 0; t < tasks.size(); ++t) {
      const auto echoed = static_cast<std::int64_t>(deadlines.at(t).as_int());
      const model::TaskIndex j = tasks[t];
      // Out-of-range ids fall through to on_arrival's own range check.
      if (j < 0 || j >= net.task_count()) continue;
      const model::Task& task = net.tasks()[static_cast<std::size_t>(j)];
      const std::int64_t expected =
          task.has_deadline() ? static_cast<std::int64_t>(task.deadline_slot) : -1;
      if (echoed != expected) {
        return "task " + std::to_string(j) + " deadline mismatch: scenario has " +
               std::to_string(expected) + ", arrive line says " +
               std::to_string(echoed);
      }
    }
  } catch (const std::exception& error) {
    return std::string("malformed deadlines field: ") + error.what();
  }
  return "";
}

}  // namespace

Json online_config_to_json(const dist::OnlineConfig& config) {
  Json json = Json::object();
  json.set("strategy", strategy_name(config.strategy));
  json.set("colors", config.colors);
  json.set("samples", config.samples);
  json.set("seed", u64_json(config.seed));
  json.set("mode", tabular_mode_name(config.mode));
  json.set("reuse_nodes", config.reuse_nodes);
  Json predictor = Json::object();
  predictor.set("enabled", config.predictor.enabled);
  predictor.set("grid", config.predictor.grid);
  predictor.set("discount", config.predictor.discount);
  predictor.set("hot_rate", config.predictor.hot_rate);
  predictor.set("min_confidence", config.predictor.min_confidence);
  predictor.set("surprise_factor", config.predictor.surprise_factor);
  predictor.set("max_level", config.predictor.max_level);
  predictor.set("batch_slots", config.predictor.batch_slots);
  predictor.set("batch_tasks", config.predictor.batch_tasks);
  predictor.set("shortfall_factor", config.predictor.shortfall_factor);
  predictor.set("prewarm", config.predictor.prewarm);
  json.set("predictor", std::move(predictor));
  return json;
}

dist::OnlineConfig online_config_from_json(const Json& json) {
  dist::OnlineConfig config;
  config.strategy = parse_strategy(json.string_or("strategy", "haste"));
  config.colors = static_cast<int>(json.number_or("colors", config.colors));
  config.samples = static_cast<int>(json.number_or("samples", config.samples));
  if (json.contains("seed")) config.seed = u64_from(json.at("seed"));
  config.mode = parse_tabular_mode(json.string_or("mode", "incremental"));
  config.reuse_nodes = json.bool_or("reuse_nodes", config.reuse_nodes);
  if (json.contains("predictor")) {
    const Json& predictor = json.at("predictor");
    predict::PredictorConfig& p = config.predictor;
    p.enabled = predictor.bool_or("enabled", p.enabled);
    p.grid = static_cast<int>(predictor.number_or("grid", p.grid));
    p.discount = predictor.number_or("discount", p.discount);
    p.hot_rate = predictor.number_or("hot_rate", p.hot_rate);
    p.min_confidence = predictor.number_or("min_confidence", p.min_confidence);
    p.surprise_factor = predictor.number_or("surprise_factor", p.surprise_factor);
    p.max_level = static_cast<int>(predictor.number_or("max_level", p.max_level));
    p.batch_slots = static_cast<int>(predictor.number_or("batch_slots", p.batch_slots));
    p.batch_tasks = static_cast<int>(predictor.number_or("batch_tasks", p.batch_tasks));
    p.shortfall_factor = predictor.number_or("shortfall_factor", p.shortfall_factor);
    p.prewarm = predictor.bool_or("prewarm", p.prewarm);
  }
  return config;
}

Session::Session() = default;
Session::~Session() = default;

Reply Session::handle_line(const std::string& line) {
  try {
    return handle_request(Json::parse(line));
  } catch (const std::exception& error) {
    // Parse errors, protocol violations, and scheduler exceptions all land
    // here: the session is in an unknown state, so the connection closes.
    static obs::Counter& errors = lifecycle_counter("serve.errors");
    errors.add(1);
    return Reply{error_reply(error.what()).dump(), /*close=*/true};
  }
}

Reply Session::handle_request(const Json& request) {
  const std::string op = request.at("op").as_string();

  if (op == "open") {
    if (opened()) throw std::logic_error("session already open");
    auto net = std::make_unique<model::Network>(
        io::network_from_json(request.at("scenario")));
    dist::OnlineConfig config;
    if (request.contains("config")) {
      config = online_config_from_json(request.at("config"));
    }
    online_ = std::make_unique<dist::OnlineSession>(*net, config);
    net_ = std::move(net);
    predictor_enabled_ = config.predictor.enabled;
    static obs::Counter& opened_sessions = lifecycle_counter("serve.sessions.opened");
    opened_sessions.add(1);
    Json reply = Json::object();
    reply.set("ok", true);
    reply.set("op", "opened");
    reply.set("chargers", static_cast<int>(net_->charger_count()));
    reply.set("tasks", static_cast<int>(net_->task_count()));
    reply.set("horizon", static_cast<int>(net_->horizon()));
    return Reply{reply.dump(), false};
  }

  if (op == "arrive" || op == "fail") {
    if (!opened()) throw std::logic_error("no open session");
    const model::SlotIndex slot = index_from(request.at("slot"), "slot");
    const dist::NegotiationRecord* record = nullptr;
    if (op == "arrive") {
      const Json& tasks_json = request.at("tasks");
      std::vector<model::TaskIndex> tasks;
      tasks.reserve(tasks_json.size());
      for (std::size_t t = 0; t < tasks_json.size(); ++t) {
        tasks.push_back(index_from(tasks_json.at(t), "task"));
      }
      if (request.contains("deadlines")) {
        // Optional deadline echo: an arriving batch may restate its tasks'
        // deadlines so driver and daemon provably agree on the objective. A
        // bad echo means the caller is working from a different scenario —
        // reject the one batch without mutating or closing the session.
        const std::string problem =
            check_deadline_echo(*net_, request.at("deadlines"), tasks);
        if (!problem.empty()) {
          static obs::Counter& rejects = lifecycle_counter("serve.deadline_rejects");
          rejects.add(1);
          Json reply = Json::object();
          reply.set("ok", false);
          reply.set("op", "reject");
          reply.set("message", problem);
          return Reply{reply.dump(), false};
        }
      }
      record = online_->on_arrival(slot, tasks);
    } else {
      const model::ChargerIndex charger = index_from(request.at("charger"), "charger");
      record = online_->on_failure(charger, slot);
    }
    Json reply = Json::object();
    reply.set("ok", true);
    reply.set("op", "replanned");
    reply.set("slot", static_cast<int>(slot));
    reply.set("trigger", op == "arrive" ? "arrival" : "failure");
    reply.set("replanned", record != nullptr);
    reply.set("known_tasks", static_cast<std::int64_t>(online_->known_tasks()));
    if (record != nullptr) {
      reply.set("plan_start", static_cast<int>(record->plan_start));
      reply.set("messages", u64_json(record->messages));
      reply.set("rounds", u64_json(record->rounds));
      reply.set("row_evals", u64_json(record->row_evals));
    }
    return Reply{reply.dump(), false};
  }

  if (op == "finish") {
    if (!opened()) throw std::logic_error("no open session");
    return finish_reply();
  }

  throw std::invalid_argument("unknown op: " + op);
}

Reply Session::finish_reply() {
  const dist::OnlineResult result = online_->finish();
  online_.reset();
  net_.reset();
  Json reply = Json::object();
  reply.set("ok", true);
  reply.set("op", "result");
  reply.set("schedule", io::schedule_to_json(result.schedule));
  reply.set("weighted_utility", result.evaluation.weighted_utility);
  reply.set("relaxed_weighted_utility", result.evaluation.relaxed_weighted_utility);
  reply.set("switches", result.evaluation.switches);
  reply.set("messages", u64_json(result.messages));
  reply.set("deliveries", u64_json(result.deliveries));
  reply.set("message_bytes", u64_json(result.message_bytes));
  reply.set("rounds", u64_json(result.rounds));
  reply.set("negotiations", u64_json(result.negotiations));
  reply.set("row_evals", u64_json(result.row_evaluations));
  if (predictor_enabled_) {
    // Predictor ledger, only for sessions that opted in: the reply bytes of
    // a reactive session stay exactly what they were before the predictor
    // subsystem existed.
    Json predictor = Json::object();
    predictor.set("replans_skipped", u64_json(result.replans_skipped));
    predictor.set("hits", u64_json(result.predictor.hits));
    predictor.set("misses", u64_json(result.predictor.misses));
    predictor.set("batched", u64_json(result.predictor.batched));
    reply.set("predictor", std::move(predictor));
  }
  static obs::Counter& finished_sessions = lifecycle_counter("serve.sessions.finished");
  finished_sessions.add(1);
  // The result is the session's terminal reply: one run per connection keeps
  // the protocol state machine trivially restartable (reconnect to re-open).
  return Reply{reply.dump(), /*close=*/true};
}

std::optional<Reply> Session::drain_finish() {
  if (!opened()) return std::nullopt;
  return finish_reply();
}

}  // namespace haste::serve
