// Lifecycle battery for the haste_serve daemon (src/serve): session open and
// admission control, many concurrent sessions bit-identical to the one-shot
// driver, abrupt client death, and graceful drain. The Server runs in-process
// on its own driver thread with an ephemeral loopback port, so the suite
// cannot collide with other processes or itself under ctest -j; the
// process-boundary variant (spawned child daemon + SIGTERM) lives in the
// haste_serve --self-test tier-1 ctests.
#include <gtest/gtest.h>

#include <chrono>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "dist/online.hpp"
#include "io/scenario_io.hpp"
#include "model/deadline.hpp"
#include "obs/metrics.hpp"
#include "serve/client.hpp"
#include "serve/server.hpp"
#include "serve/session.hpp"
#include "sim/scenario.hpp"
#include "test_helpers.hpp"
#include "util/json.hpp"
#include "util/rng.hpp"
#include "util/socket.hpp"

namespace haste::serve {
namespace {

using util::Json;
using Clock = std::chrono::steady_clock;

std::uint64_t counter_value(const char* name) {
  return obs::MetricsRegistry::instance().counter(name).value();
}

/// A small per-session config: tiny color panel so 100 sessions re-plan in
/// seconds, seeded per session so no two sessions share a sampling stream.
dist::OnlineConfig small_config(std::uint64_t seed) {
  dist::OnlineConfig config;
  config.colors = 2;
  config.samples = 4;
  config.seed = seed;
  return config;
}

/// In-process daemon on an ephemeral port with its own driver thread.
struct TestServer {
  explicit TestServer(ServerOptions options) : server(new Server(options)) {
    driver = std::thread([this] { server->run(); });
  }
  ~TestServer() {
    if (driver.joinable()) {
      server->request_drain();
      driver.join();
    }
  }
  std::string address() const { return server->address(); }
  void drain_and_join() {
    server->request_drain();
    driver.join();
  }

  std::unique_ptr<Server> server;
  std::thread driver;
};

/// Polls a process-global counter until it grows past `at_least` (counters
/// are cumulative across tests, so every expectation is a delta).
bool wait_for_counter(const char* name, std::uint64_t at_least, int timeout_ms = 5000) {
  const Clock::time_point start = Clock::now();
  while (counter_value(name) < at_least) {
    if (std::chrono::duration<double, std::milli>(Clock::now() - start).count() >
        timeout_ms) {
      return false;
    }
    std::this_thread::sleep_for(std::chrono::milliseconds(5));
  }
  return true;
}

TEST(Serve, SessionOpensReplansAndFinishesBitIdentical) {
  TestServer daemon{ServerOptions{}};
  util::Rng rng(101);
  const model::Network net = testing_helpers::random_network(rng, 3, 6);
  const dist::OnlineConfig config = small_config(7);
  const std::vector<ReplayEvent> events = build_replay_events(net);
  ASSERT_FALSE(events.empty());

  const ReplayOutcome outcome = replay_online(daemon.address(), "", net, config, events);
  EXPECT_TRUE(outcome.finished);
  EXPECT_EQ(outcome.acked.size(), events.size());
  EXPECT_EQ(outcome.rejected, 0u);
  EXPECT_EQ(diff_result(outcome.result, dist::run_online(net, config)), "");
}

TEST(Serve, OpenedReplyEchoesInstanceDimensions) {
  TestServer daemon{ServerOptions{}};
  util::Rng rng(102);
  const model::Network net = testing_helpers::random_network(rng, 4, 5);

  Client client(daemon.address());
  const Json opened = client.open(net, small_config(1));
  ASSERT_TRUE(opened.bool_or("ok", false));
  EXPECT_EQ(opened.string_or("op", ""), "opened");
  EXPECT_EQ(opened.at("chargers").as_int(), 4);
  EXPECT_EQ(opened.at("tasks").as_int(), 5);
  EXPECT_EQ(opened.at("horizon").as_int(), static_cast<std::int64_t>(net.horizon()));
}

TEST(Serve, WrongTokenIsRejectedAndCounted) {
  ServerOptions options;
  options.auth_token = "right-token";
  TestServer daemon{options};
  const std::uint64_t rejects_before = counter_value("serve.auth_reject");

  Client client(daemon.address(), "wrong-token");
  // The first protocol reply never comes: the daemon closes on the bad line.
  util::Rng rng(103);
  const model::Network net = testing_helpers::random_network(rng, 2, 3);
  EXPECT_TRUE(client.open(net, small_config(1)).is_null());
  EXPECT_TRUE(wait_for_counter("serve.auth_reject", rejects_before + 1));

  // The right token still works — the reject only killed that connection.
  const ReplayOutcome outcome = replay_online(daemon.address(), "right-token", net,
                                              small_config(1), build_replay_events(net));
  EXPECT_TRUE(outcome.finished);
}

TEST(Serve, SilentPeerTripsTheAuthDeadline) {
  ServerOptions options;
  options.auth_token = "secret";
  options.auth_timeout_seconds = 0.2;
  TestServer daemon{options};
  const std::uint64_t rejects_before = counter_value("serve.auth_reject");

  util::TcpSocket mute = util::TcpSocket::connect(daemon.address());
  EXPECT_TRUE(wait_for_counter("serve.auth_reject", rejects_before + 1));
}

TEST(Serve, SessionLimitRejectsTheExtraConnection) {
  ServerOptions options;
  options.max_sessions = 1;
  TestServer daemon{options};
  util::Rng rng(104);
  const model::Network net = testing_helpers::random_network(rng, 2, 3);

  Client first(daemon.address());
  ASSERT_TRUE(first.open(net, small_config(1)).bool_or("ok", false));

  Client second(daemon.address());
  const Json reject = second.read_reply();  // arrives unsolicited, then EOF
  ASSERT_FALSE(reject.is_null());
  EXPECT_FALSE(reject.bool_or("ok", true));
  EXPECT_EQ(reject.string_or("op", ""), "reject");
  EXPECT_EQ(reject.string_or("reason", ""), "session-limit");
  EXPECT_TRUE(second.read_reply().is_null());

  // Finishing the first session frees the slot.
  ASSERT_TRUE(first.finish().bool_or("ok", false));
  const ReplayOutcome outcome = replay_online(daemon.address(), "", net, small_config(1),
                                              build_replay_events(net));
  EXPECT_TRUE(outcome.finished);
}

TEST(Serve, ArrivalQuotaRejectsPipelinedLinesDeterministically) {
  ServerOptions options;
  options.arrival_quota = 0;  // 1 executing, 0 queued
  TestServer daemon{options};
  util::Rng rng(105);
  const model::Network net = testing_helpers::random_network(rng, 2, 4);

  util::TcpSocket raw = util::TcpSocket::connect(daemon.address());
  Json open_request = Json::object();
  open_request.set("op", "open");
  open_request.set("scenario", io::network_to_json(net));
  open_request.set("config", online_config_to_json(small_config(1)));
  Json finish_request = Json::object();
  finish_request.set("op", "finish");
  // Two requests in one write: the first is admitted (the session is idle),
  // the second finds pending = 1 > quota and must be rejected — the daemon
  // never buffers more than the quota allows, however fast the peer sends.
  ASSERT_TRUE(raw.write_all(open_request.dump() + "\n" + finish_request.dump() + "\n"));

  util::LineBuffer lines;
  std::vector<Json> replies;
  char chunk[4096];
  const Clock::time_point start = Clock::now();
  while (replies.size() < 2 &&
         std::chrono::duration<double>(Clock::now() - start).count() < 5.0) {
    if (util::poll_readable({raw.fd()}, 50).empty()) continue;
    const ssize_t n = ::read(raw.fd(), chunk, sizeof(chunk));
    if (n <= 0) break;
    for (const std::string& line : lines.feed(chunk, static_cast<std::size_t>(n))) {
      if (!line.empty()) replies.push_back(Json::parse(line));
    }
  }
  ASSERT_EQ(replies.size(), 2u);
  // Rejects are emitted at ingest (bounding the queue is the whole point),
  // so the reject may overtake the admitted line's pool-produced reply.
  const Json& rejected = replies[0].string_or("op", "") == "reject" ? replies[0]
                                                                    : replies[1];
  const Json& opened = &rejected == &replies[0] ? replies[1] : replies[0];
  EXPECT_EQ(opened.string_or("op", ""), "opened");
  EXPECT_TRUE(opened.bool_or("ok", false));
  EXPECT_EQ(rejected.string_or("op", ""), "reject");
  EXPECT_FALSE(rejected.bool_or("ok", true));
  EXPECT_EQ(rejected.string_or("reason", ""), "arrival-quota");
}

TEST(Serve, HundredConcurrentSessionsBitIdenticalToOneShotDriver) {
  ServerOptions options;
  options.auth_token = "many";
  TestServer daemon{options};
  constexpr std::size_t kSessions = 100;

  std::vector<std::string> errors(kSessions);
  std::vector<std::thread> clients;
  clients.reserve(kSessions);
  for (std::size_t i = 0; i < kSessions; ++i) {
    clients.emplace_back([&, i] {
      try {
        util::Rng rng(9000 + i);
        const model::Network net = testing_helpers::random_network(rng, 3, 6);
        const dist::OnlineConfig config = small_config(500 + i);
        const std::vector<ReplayEvent> events = build_replay_events(net);
        const ReplayOutcome outcome =
            replay_online(daemon.address(), "many", net, config, events);
        if (!outcome.finished) {
          errors[i] = "no result";
          return;
        }
        if (outcome.acked.size() != events.size()) {
          errors[i] = "events rejected";
          return;
        }
        errors[i] = diff_result(outcome.result, dist::run_online(net, config));
      } catch (const std::exception& error) {
        errors[i] = error.what();
      }
    });
  }
  for (std::thread& client : clients) client.join();
  for (std::size_t i = 0; i < kSessions; ++i) {
    EXPECT_EQ(errors[i], "") << "session " << i;
  }
}

TEST(Serve, KilledClientMidSessionIsReapedAndCountedAborted) {
  TestServer daemon{ServerOptions{}};
  util::Rng rng(106);
  const model::Network net = testing_helpers::random_network(rng, 3, 6);
  const std::uint64_t aborted_before = counter_value("serve.sessions.aborted");

  {
    Client client(daemon.address());
    ASSERT_TRUE(client.open(net, small_config(3)).bool_or("ok", false));
    const std::vector<ReplayEvent> events = build_replay_events(net);
    ASSERT_FALSE(events.empty());
    ASSERT_TRUE(client.arrive(events[0].slot, events[0].tasks).bool_or("ok", false));
  }  // ~Client closes the socket with the session still open

  EXPECT_TRUE(wait_for_counter("serve.sessions.aborted", aborted_before + 1));

  // The daemon survives the abort and keeps serving.
  const ReplayOutcome outcome = replay_online(daemon.address(), "", net, small_config(3),
                                              build_replay_events(net));
  EXPECT_TRUE(outcome.finished);
}

TEST(Serve, DrainFinishesInFlightSessionsWithPrefixIdenticalResults) {
  TestServer daemon{ServerOptions{}};
  util::Rng rng(107);
  const model::Network net = testing_helpers::random_network(rng, 3, 8, /*max_slots=*/6);
  const dist::OnlineConfig config = small_config(11);
  const std::vector<ReplayEvent> events = build_replay_events(net);
  ASSERT_GE(events.size(), 2u);

  ReplayOutcome outcome;
  std::thread client([&] {
    // Slow stream so the drain lands mid-session (benign if it lands after).
    outcome = replay_online(daemon.address(), "", net, config, events,
                            /*inter_event_sleep_ms=*/50);
  });
  std::this_thread::sleep_for(std::chrono::milliseconds(120));
  daemon.drain_and_join();  // run() returns only once every session got its result
  client.join();

  ASSERT_TRUE(outcome.finished);
  // Whatever prefix was acknowledged, the result must match the in-process
  // driver fed exactly that prefix — a drain never drops an in-flight
  // re-plan or ships a half-applied one.
  EXPECT_EQ(diff_result(outcome.result, replay_locally(net, config, outcome.acked)), "");

  // The listener is gone: new connections are refused outright.
  EXPECT_THROW(util::TcpSocket::connect(daemon.address()), std::exception);
}

TEST(Serve, MalformedLineGetsErrorReplyAndClose) {
  TestServer daemon{ServerOptions{}};
  util::TcpSocket raw = util::TcpSocket::connect(daemon.address());
  ASSERT_TRUE(raw.write_all("this is not json\n"));

  util::LineBuffer lines;
  std::string first_line;
  char chunk[4096];
  const Clock::time_point start = Clock::now();
  bool eof = false;
  while (!eof && std::chrono::duration<double>(Clock::now() - start).count() < 5.0) {
    if (util::poll_readable({raw.fd()}, 50).empty()) continue;
    const ssize_t n = ::read(raw.fd(), chunk, sizeof(chunk));
    if (n <= 0) {
      eof = true;
      break;
    }
    for (const std::string& line : lines.feed(chunk, static_cast<std::size_t>(n))) {
      if (first_line.empty()) first_line = line;
    }
    if (!first_line.empty()) break;
  }
  ASSERT_FALSE(first_line.empty());
  const Json reply = Json::parse(first_line);
  EXPECT_FALSE(reply.bool_or("ok", true));
  EXPECT_EQ(reply.string_or("op", ""), "error");
}

TEST(Serve, EventBeforeOpenIsAProtocolError) {
  TestServer daemon{ServerOptions{}};
  Client client(daemon.address());
  const Json reply = client.arrive(0, {0});
  ASSERT_FALSE(reply.is_null());
  EXPECT_FALSE(reply.bool_or("ok", true));
  EXPECT_EQ(reply.string_or("op", ""), "error");
  EXPECT_TRUE(client.read_reply().is_null());  // the error closed the session
}

/// `base` with a linear-decay deadline policy and a tight deadline on every
/// even-indexed task (odd tasks stay deadline-free, exercising the -1 echo).
model::Network tight_deadline_network(const model::Network& base) {
  std::vector<model::Task> tasks = base.tasks();
  for (std::size_t j = 0; j < tasks.size(); j += 2) {
    tasks[j].deadline_slot = tasks[j].release_slot + 1;
  }
  return model::Network(base.chargers(), std::move(tasks), base.power_model(),
                        base.time(), nullptr,
                        model::DeadlinePolicy{model::DeadlineDecay::kLinear, 3.0});
}

/// The wire line `Client::arrive` would send, plus a "deadlines" echo array.
Json arrive_with_deadlines(const ReplayEvent& event, const Json& deadlines) {
  Json request = Json::object();
  request.set("op", "arrive");
  request.set("slot", static_cast<int>(event.slot));
  Json array = Json::array();
  for (model::TaskIndex j : event.tasks) array.push_back(static_cast<int>(j));
  request.set("tasks", std::move(array));
  request.set("deadlines", deadlines);
  return request;
}

/// The correct echo for an arrival batch: deadline_slot, or -1 when none.
Json correct_deadline_echo(const model::Network& net, const ReplayEvent& event) {
  Json deadlines = Json::array();
  for (model::TaskIndex j : event.tasks) {
    const model::Task& task = net.tasks()[static_cast<std::size_t>(j)];
    deadlines.push_back(
        task.has_deadline() ? static_cast<std::int64_t>(task.deadline_slot)
                            : std::int64_t{-1});
  }
  return deadlines;
}

TEST(Serve, DeadlineCarryingArriveLinesBitIdenticalToLocalReplay) {
  TestServer daemon{ServerOptions{}};
  util::Rng rng(109);
  const model::Network net =
      tight_deadline_network(testing_helpers::random_network(rng, 3, 6));
  const dist::OnlineConfig config = small_config(11);
  const std::vector<ReplayEvent> events = build_replay_events(net);
  ASSERT_FALSE(events.empty());

  Client client(daemon.address());
  ASSERT_TRUE(client.open(net, config).bool_or("ok", false));
  for (const ReplayEvent& event : events) {
    const Json reply =
        client.call(arrive_with_deadlines(event, correct_deadline_echo(net, event)));
    ASSERT_TRUE(reply.bool_or("ok", false)) << reply.dump();
    EXPECT_EQ(reply.string_or("op", ""), "replanned");
  }
  const Json result = client.finish();
  EXPECT_EQ(diff_result(result, replay_locally(net, config, events)), "");
  EXPECT_EQ(diff_result(result, dist::run_online(net, config)), "");
}

TEST(Serve, MalformedDeadlineEchoSoftRejectsWithoutKillingTheSession) {
  TestServer daemon{ServerOptions{}};
  util::Rng rng(110);
  const model::Network net =
      tight_deadline_network(testing_helpers::random_network(rng, 3, 6));
  const dist::OnlineConfig config = small_config(13);
  const std::vector<ReplayEvent> events = build_replay_events(net);
  ASSERT_FALSE(events.empty());
  const std::uint64_t rejects_before = counter_value("serve.deadline_rejects");

  Client client(daemon.address());
  ASSERT_TRUE(client.open(net, config).bool_or("ok", false));

  // Three bad echoes for the first batch: wrong value, wrong length, and a
  // non-numeric entry. Each must draw a soft reject that leaves the session
  // open and the online state untouched.
  const Json good = correct_deadline_echo(net, events[0]);
  Json wrong_value = Json::array();
  Json wrong_type = Json::array();
  for (std::size_t t = 0; t < good.size(); ++t) {
    wrong_value.push_back(t == 0 ? Json(good.at(0).as_int() + 5) : good.at(t));
    wrong_type.push_back(t == 0 ? Json("soon") : good.at(t));
  }
  Json wrong_length = correct_deadline_echo(net, events[0]);
  wrong_length.push_back(std::int64_t{4});
  for (const Json& bad : {wrong_value, wrong_length, wrong_type}) {
    const Json reply = client.call(arrive_with_deadlines(events[0], bad));
    ASSERT_FALSE(reply.is_null());
    EXPECT_FALSE(reply.bool_or("ok", true)) << reply.dump();
    EXPECT_EQ(reply.string_or("op", ""), "reject") << reply.dump();
    EXPECT_FALSE(reply.string_or("message", "").empty());
  }
  EXPECT_EQ(counter_value("serve.deadline_rejects"), rejects_before + 3);

  // The session is still alive: the same batch with a correct echo (and the
  // rest of the trace) replays to the bit-exact local result, proving the
  // rejected lines never reached the online session.
  for (const ReplayEvent& event : events) {
    const Json reply =
        client.call(arrive_with_deadlines(event, correct_deadline_echo(net, event)));
    ASSERT_TRUE(reply.bool_or("ok", false)) << reply.dump();
  }
  EXPECT_EQ(diff_result(client.finish(), replay_locally(net, config, events)), "");
}

/// One HTTP/1.0 GET against the daemon's metrics listener, read to EOF.
std::string scrape_metrics(const std::string& address) {
  util::TcpSocket socket = util::TcpSocket::connect(address);
  if (!socket.write_all("GET /metrics HTTP/1.0\r\n\r\n")) return "";
  std::string response;
  char chunk[4096];
  const Clock::time_point start = Clock::now();
  while (std::chrono::duration<double>(Clock::now() - start).count() < 10.0) {
    if (util::poll_readable({socket.fd()}, 100).empty()) continue;
    const ssize_t n = ::read(socket.fd(), chunk, sizeof(chunk));
    if (n < 0) return response;
    if (n == 0) break;  // EOF: the daemon closes after the body
    response.append(chunk, static_cast<std::size_t>(n));
  }
  return response;
}

TEST(Serve, MetricsEndpointExposesLiveRegistry) {
  ServerOptions options;
  options.metrics_address = "127.0.0.1:0";
  TestServer daemon{options};
  const std::string metrics_address = daemon.server->metrics_address();
  ASSERT_FALSE(metrics_address.empty());

  // Drive one full session first so the replan-latency histogram and the
  // session lifecycle counters have data to expose.
  util::Rng rng(108);
  const model::Network net = testing_helpers::random_network(rng, 3, 6);
  const ReplayOutcome outcome = replay_online(daemon.address(), "", net,
                                              small_config(5), build_replay_events(net));
  ASSERT_TRUE(outcome.finished);

  const std::string response = scrape_metrics(metrics_address);
  EXPECT_NE(response.find("HTTP/1.0 200 OK"), std::string::npos);
  EXPECT_NE(response.find("Content-Type: text/plain"), std::string::npos);
  EXPECT_NE(response.find("online.replan.latency_us.p50 "), std::string::npos)
      << response;
  EXPECT_NE(response.find("online.replan.latency_us.p99 "), std::string::npos);
  EXPECT_NE(response.find("serve.sessions.finished "), std::string::npos);

  // One connection per scrape: a second GET must work just as well.
  EXPECT_NE(scrape_metrics(metrics_address).find("HTTP/1.0 200 OK"),
            std::string::npos);
}

TEST(Serve, MetricsListenerIsOffByDefault) {
  TestServer daemon{ServerOptions{}};
  EXPECT_TRUE(daemon.server->metrics_address().empty());
}

/// The NDJSON line opening a session on `net` under `config`.
std::string open_line(const model::Network& net, const dist::OnlineConfig& config) {
  Json request = Json::object();
  request.set("op", "open");
  request.set("scenario", io::network_to_json(net));
  request.set("config", online_config_to_json(config));
  return request.dump();
}

/// Feeds `line` to a freshly opened session and returns its reply.
Reply reply_after_open(const std::string& line) {
  util::Rng rng(61);
  const model::Network net = testing_helpers::random_network(rng, 3, 6, 4);
  Session session;
  const Json opened = Json::parse(session.handle_line(open_line(net, small_config(61))).line);
  EXPECT_TRUE(opened.bool_or("ok", false));
  return session.handle_line(line);
}

TEST(ServeSession, TaskRepeatedWithinOneArriveLineIsAnError) {
  const Reply reply = reply_after_open(R"({"op":"arrive","slot":1,"tasks":[2,0,2]})");
  const Json parsed = Json::parse(reply.line);
  EXPECT_FALSE(parsed.bool_or("ok", true));
  EXPECT_EQ(parsed.string_or("op", ""), "error");
  EXPECT_NE(parsed.string_or("message", "").find("released twice"), std::string::npos)
      << reply.line;
  EXPECT_TRUE(reply.close);
}

TEST(ServeSession, IndicesOutsideInt32AreErrorsNotNarrowed) {
  // Narrowed to 32 bits, 2^32 is 0 and 2^32 + 1 is 1: accepting these lines
  // would act on slot 0, task 0 or charger 1.
  for (const char* line : {R"({"op":"arrive","slot":4294967296,"tasks":[4294967296]})",
                           R"({"op":"arrive","slot":0,"tasks":[4294967296]})",
                           R"({"op":"fail","slot":0,"charger":4294967297})",
                           R"({"op":"arrive","slot":-2147483649,"tasks":[0]})",
                           R"({"op":"arrive","slot":1e300,"tasks":[0]})"}) {
    const Reply reply = reply_after_open(line);
    const Json parsed = Json::parse(reply.line);
    EXPECT_FALSE(parsed.bool_or("ok", true)) << line;
    EXPECT_EQ(parsed.string_or("op", ""), "error") << line;
    EXPECT_NE(parsed.string_or("message", "").find("outside"), std::string::npos)
        << line << " -> " << reply.line;
    EXPECT_TRUE(reply.close) << line;
  }
  // The largest in-range values reach the scheduler: a charger id past the
  // fleet is its error, and a slot past the horizon re-plans nothing.
  const Json failed = Json::parse(
      reply_after_open(R"({"op":"fail","slot":0,"charger":2147483647})").line);
  EXPECT_NE(failed.string_or("message", "").find("out of range"), std::string::npos);
  const Json late = Json::parse(
      reply_after_open(R"({"op":"arrive","slot":2147483647,"tasks":[0]})").line);
  EXPECT_TRUE(late.bool_or("ok", false)) << late.dump();
  EXPECT_FALSE(late.bool_or("replanned", true));
}

TEST(ServeSession, OpenBeyondTheCellLimitIsAnError) {
  // One task ending just past the limit for four chargers: accepted, the
  // session would allocate a schedule and node state per charger and slot.
  util::Rng rng(62);
  const model::Network base = testing_helpers::random_network(rng, 4, 6, 4);
  std::vector<model::Task> tasks = base.tasks();
  tasks[0].end_slot = static_cast<model::SlotIndex>(io::kMaxScheduleCells / 4 + 1);
  const model::Network wide(base.chargers(), tasks, base.power_model(), base.time());
  Session session;
  const Reply reply = session.handle_line(open_line(wide, small_config(62)));
  const Json parsed = Json::parse(reply.line);
  EXPECT_FALSE(parsed.bool_or("ok", true));
  EXPECT_EQ(parsed.string_or("op", ""), "error");
  const std::string message = parsed.string_or("message", "");
  EXPECT_NE(message.find("end_slot"), std::string::npos) << reply.line;
  EXPECT_NE(message.find(std::to_string(io::kMaxScheduleCells)), std::string::npos)
      << reply.line;
  EXPECT_TRUE(reply.close);
}

/// The first reply line a daemon at `address` sends to a connection that
/// writes `line`; empty when none arrives within five seconds.
std::string first_reply(const std::string& address, const std::string& line) {
  util::TcpSocket raw = util::TcpSocket::connect(address);
  if (!raw.write_all(line + "\n")) return "";
  util::LineBuffer lines;
  char chunk[4096];
  const Clock::time_point start = Clock::now();
  while (std::chrono::duration<double>(Clock::now() - start).count() < 5.0) {
    if (util::poll_readable({raw.fd()}, 50).empty()) continue;
    const ssize_t n = ::read(raw.fd(), chunk, sizeof(chunk));
    if (n <= 0) return "";
    const std::vector<std::string> got = lines.feed(chunk, static_cast<std::size_t>(n));
    if (!got.empty()) return got.front();
  }
  return "";
}

// The config numbers that size a session's state are read as checked ints:
// colors and samples up to io::kMaxPanelSamples, the predictor grid up to
// io::kMaxPredictorGrid. Each oversized open is an error reply naming its
// field, sized just above the cap, and the daemon opens the next connection
// as usual.
TEST(ServeSession, OversizedConfigNumbersAreErrorsNamingTheField) {
  TestServer daemon{ServerOptions{}};
  util::Rng rng(63);
  const model::Network net = testing_helpers::random_network(rng, 3, 6, 4);
  const auto open_with = [&](const char* key, double value, bool predictor) {
    Json config = online_config_to_json(small_config(63));
    if (predictor) {
      Json nested = config.at("predictor");
      nested.set(key, value);
      config.set("predictor", std::move(nested));
    } else {
      config.set(key, value);
    }
    Json request = Json::object();
    request.set("op", "open");
    request.set("scenario", io::network_to_json(net));
    request.set("config", std::move(config));
    return request.dump();
  };
  const struct {
    const char* field;
    double value;
    bool predictor;
  } cases[] = {{"samples", 3e9, false},
               {"samples", io::kMaxPanelSamples + 1.0, false},
               {"grid", io::kMaxPredictorGrid + 1.0, true}};
  for (const auto& oversized : cases) {
    SCOPED_TRACE(::testing::Message() << oversized.field << " " << oversized.value);
    const std::string line = first_reply(daemon.address(),
                                         open_with(oversized.field, oversized.value,
                                                   oversized.predictor));
    ASSERT_FALSE(line.empty());
    const Json reply = Json::parse(line);
    EXPECT_FALSE(reply.bool_or("ok", true));
    EXPECT_EQ(reply.string_or("op", ""), "error");
    EXPECT_NE(reply.string_or("message", "").find(oversized.field), std::string::npos) << line;

    Client client(daemon.address());
    const Json opened = client.open(net, small_config(63));
    EXPECT_TRUE(opened.bool_or("ok", false)) << opened.dump();
  }
}

// Seeded mutation sweep over one fixture session's NDJSON, fed line by line
// through Session::handle_line: an open of a 4-charger/10-task scenario with
// the predictor on, then arrive, fail and finish lines. A mutant edits 1-4
// bytes of one line, digits most often, so counts, slots and ids grow and
// shrink; a third of the mutants edit only the digits of the open line's
// config, whose caps bound what an open may allocate. Every reply must parse
// with a boolean "ok", and every ok:false reply must carry a non-empty
// message. A reply that closes the session ends the mutant's feed, as the
// daemon ends the connection. Fixed seed and budget, so a failure
// reproduces; the ctest TIMEOUT catches a hang.
TEST(ServeSessionFuzz, MutatedSessionsGetWellFormedReplies) {
  sim::ScenarioConfig scenario = sim::ScenarioConfig::paper_default();
  scenario.chargers = 4;
  scenario.tasks = 10;
  util::Rng fixture_rng(7);
  const model::Network net = sim::generate_scenario(scenario, fixture_rng);
  dist::OnlineConfig config;  // the paper's panel, C = 4 and S = 16
  config.seed = 7;
  config.predictor.enabled = true;
  config.predictor.grid = 64;
  std::vector<std::string> fixture;
  // The open line around its config object: a third of the mutants edit
  // the config's digits, or the scenario's text would drown them.
  const std::string config_text = online_config_to_json(config).dump();
  std::size_t config_at = 0;
  {
    Json open = Json::object();
    open.set("op", "open");
    open.set("scenario", io::network_to_json(net));
    open.set("config", online_config_to_json(config));
    fixture.push_back(open.dump());
    config_at = fixture.front().find(config_text);
    ASSERT_NE(config_at, std::string::npos);
  }
  for (const ReplayEvent& event : build_replay_events(net, {{1, 3}})) {
    Json line = Json::object();
    line.set("op", event.is_failure ? "fail" : "arrive");
    line.set("slot", static_cast<int>(event.slot));
    if (event.is_failure) {
      line.set("charger", static_cast<int>(event.charger));
    } else {
      Json tasks = Json::array();
      for (const model::TaskIndex j : event.tasks) tasks.push_back(static_cast<int>(j));
      line.set("tasks", std::move(tasks));
    }
    fixture.push_back(line.dump());
  }
  fixture.push_back(R"({"op":"finish"})");
  ASSERT_GE(fixture.size(), 4u);

  constexpr std::string_view kAlphabet = "0123456789012345678901234567890123456789{}[]:,\"\\ .-+eE";
  util::Rng rng(20181019);
  std::size_t replies = 0;
  std::size_t errors = 0;
  std::size_t capped = 0;  // errors from a bounded config number
  for (int iteration = 0; iteration < 2000; ++iteration) {
    std::vector<std::string> lines = fixture;
    const int edits = static_cast<int>(rng.uniform_int(1, 4));
    if (rng.uniform() < 1.0 / 3.0) {
      // Digit edits of the config: its numbers grow and shrink.
      std::string text = config_text;
      for (int e = 0; e < edits; ++e) {
        std::vector<std::size_t> digits;
        for (std::size_t at = 0; at < text.size(); ++at) {
          if (text[at] >= '0' && text[at] <= '9') digits.push_back(at);
        }
        const std::size_t at = digits[static_cast<std::size_t>(
            rng.uniform_int(0, static_cast<std::int64_t>(digits.size()) - 1))];
        const auto digit = static_cast<char>('0' + rng.uniform_int(0, 9));
        if (rng.uniform() < 0.5) {
          text[at] = digit;
        } else {
          text.insert(at, 1, digit);
        }
      }
      lines[0].replace(config_at, config_text.size(), text);
    } else {
      std::string& text = lines[static_cast<std::size_t>(
          rng.uniform_int(0, static_cast<std::int64_t>(lines.size()) - 1))];
      for (int e = 0; e < edits && !text.empty(); ++e) {
        const auto at = static_cast<std::size_t>(
            rng.uniform_int(0, static_cast<std::int64_t>(text.size()) - 1));
        const char byte = kAlphabet[static_cast<std::size_t>(
            rng.uniform_int(0, static_cast<std::int64_t>(kAlphabet.size()) - 1))];
        switch (rng.uniform_int(0, 3)) {
          case 0: text[at] = byte; break;
          case 1: text.insert(text.begin() + static_cast<std::ptrdiff_t>(at), byte); break;
          case 2: text.erase(at, 1); break;
          default: {
            const auto length = static_cast<std::size_t>(rng.uniform_int(1, 8));
            text.insert(at, text.substr(at, length));
            break;
          }
        }
      }
    }
    Session session;
    for (const std::string& line : lines) {
      const Reply reply = session.handle_line(line);
      ++replies;
      Json parsed;
      try {
        parsed = Json::parse(reply.line);
      } catch (const util::JsonError&) {
        ADD_FAILURE() << "iteration " << iteration << ": reply is not JSON: " << reply.line;
        break;
      }
      ASSERT_TRUE(parsed.is_object()) << reply.line;
      ASSERT_TRUE(parsed.contains("ok") && parsed.at("ok").is_bool())
          << "iteration " << iteration << ": " << reply.line;
      if (!parsed.at("ok").as_bool()) {
        ++errors;
        const std::string message = parsed.string_or("message", "");
        EXPECT_FALSE(message.empty()) << "iteration " << iteration << ": " << reply.line;
        if (message.find(" is outside [") != std::string::npos) ++capped;
      }
      if (reply.close) break;
    }
  }
  // The sweep reaches past the open line, rejects some mutants, and some of
  // those for a config number past its bounds.
  EXPECT_GT(replies, 8000u);
  EXPECT_GT(errors, 500u);
  EXPECT_GT(capped, 20u);
}

TEST(ServeConfig, OnlineConfigJsonRoundTripsExactly) {
  dist::OnlineConfig config;
  config.strategy = dist::OnlineStrategy::kHasteSequential;
  config.colors = 3;
  config.samples = 9;
  config.seed = 0xFFFFFFFFFFFFFFFFULL;  // above 2^53: must survive as a string

  const dist::OnlineConfig round = online_config_from_json(online_config_to_json(config));
  EXPECT_EQ(round.strategy, config.strategy);
  EXPECT_EQ(round.colors, config.colors);
  EXPECT_EQ(round.samples, config.samples);
  EXPECT_EQ(round.seed, config.seed);

  EXPECT_THROW(online_config_from_json(Json::parse(R"({"strategy":"nope"})")),
               util::JsonError);
}

TEST(ServeConfig, RemovedOptionKeysAreAcceptedAndIgnored) {
  // The keys of deleted options ("mode", "reuse_nodes", "predictor.prewarm")
  // still open a session and change nothing: every reply of a script whose
  // open line carries them is byte-identical to the same script without.
  // Bursty traffic with lenient predictor gates, so arrivals get deferred,
  // and one charger failure.
  sim::ScenarioConfig scenario = sim::ScenarioConfig::paper_default();
  scenario.chargers = 8;
  scenario.tasks = 30;
  scenario.release_window_slots = 24;
  scenario.burst_factor = 4.0;
  scenario.hotspot_fraction = 0.6;
  util::Rng rng(71);
  const model::Network net = sim::generate_scenario(scenario, rng);
  const std::vector<ReplayEvent> events = build_replay_events(net, {{2, 6}});

  Json predictor = Json::object();
  predictor.set("enabled", true);
  predictor.set("max_level", 3);
  predictor.set("hot_rate", 0.05);
  predictor.set("min_confidence", 2.0);
  Json plain = Json::object();
  plain.set("colors", 2);
  plain.set("samples", 4);
  plain.set("predictor", predictor);
  Json legacy = plain;
  legacy.set("mode", "rebuild");
  legacy.set("reuse_nodes", false);
  predictor.set("prewarm", true);
  legacy.set("predictor", std::move(predictor));

  const auto replies = [&](const Json& config) {
    Session session;
    Json open = Json::object();
    open.set("op", "open");
    open.set("scenario", io::network_to_json(net));
    open.set("config", config);
    std::vector<std::string> lines{session.handle_line(open.dump()).line};
    for (const ReplayEvent& event : events) {
      Json line = Json::object();
      line.set("op", event.is_failure ? "fail" : "arrive");
      line.set("slot", static_cast<int>(event.slot));
      if (event.is_failure) {
        line.set("charger", static_cast<int>(event.charger));
      } else {
        Json tasks = Json::array();
        for (const model::TaskIndex j : event.tasks) tasks.push_back(static_cast<int>(j));
        line.set("tasks", std::move(tasks));
      }
      lines.push_back(session.handle_line(line.dump()).line);
    }
    lines.push_back(session.handle_line(R"({"op":"finish"})").line);
    return lines;
  };
  const std::vector<std::string> expected = replies(plain);
  EXPECT_EQ(replies(legacy), expected);
  std::size_t deferred = 0;
  for (const std::string& line : expected) {
    const Json reply = Json::parse(line);
    EXPECT_TRUE(reply.bool_or("ok", false)) << line;
    if (reply.string_or("trigger", "") == "arrival" && !reply.bool_or("replanned", true)) {
      ++deferred;
    }
  }
  EXPECT_GT(deferred, 0u);
  EXPECT_EQ(Json::parse(expected.back()).string_or("op", ""), "result");
}

}  // namespace
}  // namespace haste::serve
