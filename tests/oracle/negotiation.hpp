// Reference pricing for the distributed negotiation (Alg. 3), and a harness
// that checks production charger nodes against it.
//
// NodePricer is a node's stage choice written the slow, obvious way: every
// policy of the (slot, color) stage is priced with a fresh scalar marginal
// (oracle/pricing.hpp) against the plan ledger, and the best one is picked
// with the node's switch-avoiding tie rule (a policy that keeps the color's
// previous orientation wins a tie within a 1e-12 relative band). It keeps no
// term cache and no version stamps, so dist::ChargerNode's cached kernel
// pricing must reproduce it bit for bit.
//
// negotiate_checked drives production nodes through one plan (the HELLO
// round, then the election rounds or the ordered token protocol) and checks
// every VALUE marginal and every UPDATE against one NodePricer per node. It
// routes every message through the BroadcastBus (oracle/bus.hpp), whose
// receivers act on each delivery the way the paper's nodes do: a committer
// turns decided when its UPDATE is delivered, and each delivered UPDATE
// re-prices an undecided receiver. The library's dist/online.cpp counts
// deliveries instead and re-prices once per round, so the bus is an
// independent count of the Fig. 16 traffic. run_online_checked repeats that
// for each event of an online run with a freshly built fleet per plan: the
// reference that the session's persistent fleet must match.
#pragma once

#include <cstdint>
#include <optional>
#include <string>
#include <vector>

#include "core/objective.hpp"
#include "dist/node.hpp"
#include "dist/online.hpp"
#include "oracle/pricing.hpp"
#include "oracle/protocol.hpp"

namespace haste::oracle {

/// Fresh-marginal stage pricing of one charger.
class NodePricer {
 public:
  NodePricer(const model::Network& net, model::ChargerIndex id)
      : net_(&net), id_(id), pricing_(net) {}

  /// Starts a plan over `known` tasks: recomputes the dominant sets and
  /// forgets the previous orientation of each of the `colors` colors.
  void begin_plan(const std::vector<model::TaskIndex>& known, int colors);

  /// The choice a node must make at a (slot, color) stage.
  struct Choice {
    bool participates = false;  ///< the slot has at least one policy
    bool positive = false;      ///< some policy has a positive marginal
    double marginal = 0.0;      ///< the best marginal (0 when none is positive)
    PolicyAnnouncement policy;  ///< the best policy's rows
  };
  Choice choose(const core::MarginalEngine& ledger, model::SlotIndex slot, int color);

  /// The node committed `orientation` for `color`: the tie rule's new
  /// previous orientation.
  void committed(int color, double orientation);

 private:
  const model::Network* net_;
  model::ChargerIndex id_;
  ScalarPricing pricing_;
  std::vector<core::DominantTaskSet> dominant_;
  std::vector<std::optional<double>> previous_;  // [color]
};

/// Which negotiation protocol a plan runs.
enum class Protocol {
  kElection,  ///< OnlineStrategy::kHaste
  kToken,     ///< OnlineStrategy::kHasteSequential
};

/// What one checked plan produced.
struct PlanCheck {
  std::vector<Message> transcript;      ///< every broadcast, in send order
  std::uint64_t rounds = 0;             ///< election rounds or token turns
  std::uint64_t deliveries = 0;         ///< as the bus made them
  std::uint64_t bytes = 0;              ///< as the bus summed them
  std::vector<std::string> mismatches;  ///< disagreements with the pricers
                                        ///< and the bus
};

/// Runs one plan over `nodes` (the alive fleet, ascending ids) on `ledger`,
/// which holds the harvested energies, and writes the agreed plan into
/// `executed` from `plan_start` on. Neighborhoods are restricted to
/// `alive`. Every VALUE and UPDATE is checked against a NodePricer of its
/// sender, and the plan's dist::Board traffic against the bus's counts.
PlanCheck negotiate_checked(const model::Network& net, Protocol protocol, int colors,
                            const std::vector<dist::ChargerNode*>& nodes,
                            const std::vector<bool>& alive,
                            const std::vector<model::TaskIndex>& known,
                            core::MarginalEngine& ledger, model::SlotIndex plan_start,
                            model::Schedule& executed);

/// An online run of negotiate_checked plans, and every mismatch they found.
struct CheckedRun {
  dist::OnlineResult result;
  std::vector<std::string> mismatches;
};

/// Reference form of dist::run_online for the kHaste and kHasteSequential
/// strategies with the predictor off (anything else throws
/// std::invalid_argument). Events replay as OnlineSession::on_arrival and
/// on_failure take them from run_online: arrival batches by release slot
/// and the failures of chargers in range, arrivals first on slot ties; a
/// failure disables its charger from its slot on, and later plans run on the
/// alive fleet and bus. Each re-plan negotiates on a fresh ledger with a
/// freshly built fleet; the result carries the same schedule, evaluation,
/// Fig. 16 counters and log. Its row evaluations count the nodes' row
/// terms, which the ledger keeps; the pricers count their own.
CheckedRun run_online_checked(const model::Network& net, const dist::OnlineConfig& config);

/// True when two messages agree in every field, floating-point bits
/// included.
bool same_message(const Message& a, const Message& b);

}  // namespace haste::oracle
