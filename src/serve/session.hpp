// One scheduling session of the haste_serve daemon: a protocol interpreter
// that turns request lines into replies by driving a dist::OnlineSession.
//
// Wire protocol (one JSON object per line; one reply line per request):
//
//   {"op":"open", "scenario": <network json>, "config": <online config>}
//     -> {"ok":true, "op":"opened", "chargers":N, "tasks":M, "horizon":H}
//   {"op":"arrive", "slot":K, "tasks":[j, ...], "deadlines":[d, ...]?}
//     -> {"ok":true, "op":"replanned", "slot":K, "trigger":"arrival",
//         "replanned":bool, "plan_start":P, "known_tasks":T,
//         "messages":"u64", "rounds":"u64", "row_evals":"u64"}
//     The optional "deadlines" array echoes each batch task's deadline_slot
//     (-1 = none) so driver and daemon provably agree on the objective. A
//     wrong or malformed echo draws {"ok":false, "op":"reject",
//     "message":"..."} WITHOUT applying the batch or closing the session
//     (counted in serve.deadline_rejects) — the caller is on a different
//     scenario, which is recoverable, unlike a protocol error.
//   {"op":"fail", "charger":i, "slot":K}
//     -> same reply shape with "trigger":"failure"
//   {"op":"finish"}
//     -> {"ok":true, "op":"result", "schedule": <schedule json>,
//         "weighted_utility":..., "relaxed_weighted_utility":...,
//         "switches":N, "messages":"u64", "deliveries":"u64",
//         "message_bytes":"u64", "rounds":"u64", "negotiations":"u64",
//         "row_evals":"u64"}  -- and the connection closes
//     Sessions whose config enables the predictor ("config":{"predictor":
//     {"enabled":true, ...}} — every src/predict/ knob is accepted) get an
//     extra "predictor":{"replans_skipped","hits","misses","batched"}
//     ledger object (u64 strings); reactive sessions keep the historical
//     reply bytes. A deferred arrive line replies "replanned":false, same
//     as a pre-horizon no-op re-plan.
//
// Any malformed or out-of-order request yields
//   {"ok":false, "op":"error", "message":"..."}
// and closes the connection — a session whose event stream went bad cannot
// silently diverge from the one-shot driver. 64-bit counters travel as
// decimal strings (the shard wire convention: JSON numbers are doubles and
// round above 2^53).
//
// The Session itself is pure computation — no sockets, no threads — so the
// daemon's driver loop can run handle_line on a thread pool and the tests
// can drive it directly.
#pragma once

#include <memory>
#include <optional>
#include <string>

#include "dist/online.hpp"
#include "util/json.hpp"

namespace haste::serve {

/// Exact JSON round-trip for the online driver configuration (strategy by
/// name, seed as a decimal-string u64; `failures` is not carried — a serving
/// session injects failures as events). Unknown strategy names throw. Keys
/// of options that no longer exist (the node pricing mode, node reuse and
/// predictor column warming) are accepted and ignored.
util::Json online_config_to_json(const dist::OnlineConfig& config);
dist::OnlineConfig online_config_from_json(const util::Json& json);

/// One reply line, plus whether the connection must close after sending it.
struct Reply {
  std::string line;
  bool close = false;
};

/// Protocol state machine for one connection. Not thread-safe; the server
/// guarantees at most one in-flight handle_line per session.
class Session {
 public:
  Session();
  ~Session();
  Session(const Session&) = delete;
  Session& operator=(const Session&) = delete;

  /// Serves one request line. Never throws: every failure (parse error,
  /// protocol violation, scheduler exception) becomes an error reply that
  /// closes the connection.
  Reply handle_line(const std::string& line);

  /// Drain path: finishes an opened, unfinished session as if the client
  /// had sent {"op":"finish"}, returning the unsolicited result reply.
  /// std::nullopt when there is nothing to finish.
  std::optional<Reply> drain_finish();

  /// True once "open" succeeded and "finish" has not yet consumed the run.
  bool opened() const { return online_ != nullptr; }

 private:
  Reply handle_request(const util::Json& request);
  Reply finish_reply();

  std::unique_ptr<model::Network> net_;
  std::unique_ptr<dist::OnlineSession> online_;
  /// Whether this session opted into predictive cadence: gates the
  /// predictor ledger in the result reply, so reactive sessions keep their
  /// historical reply bytes.
  bool predictor_enabled_ = false;
};

}  // namespace haste::serve
