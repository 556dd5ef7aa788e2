// The broadcast medium connecting neighboring chargers, as a test oracle.
//
// The paper assumes each charger's communication range covers all its
// neighbors (chargers sharing a coverable task), so one broadcast reaches
// every neighbor. The bus delivers queued broadcasts in deterministic FIFO
// order and keeps the counters behind the paper's Fig. 16 (messages and
// rounds per time slot). The library counts those deliveries on its
// dist::Board instead of making them; oracle::negotiate_checked routes every
// message of a plan through this bus as an independent count.
//
// Delivery is a direct call of `Node::receive(const Message&)` on the
// registered node object, resolved by index: no type-erased handler sits on
// the per-delivery path, and queued messages are moved, never copied.
#pragma once

#include <cstdint>
#include <stdexcept>
#include <utility>
#include <vector>

#include "oracle/protocol.hpp"

namespace haste::oracle {

/// Statistics accumulated by the bus.
struct BusStats {
  std::uint64_t broadcasts = 0;   ///< messages sent (one per broadcast)
  std::uint64_t deliveries = 0;   ///< per-neighbor receptions
  std::uint64_t bytes = 0;        ///< sum of wire sizes of broadcasts
  std::uint64_t rounds = 0;       ///< synchronous delivery rounds flushed
};

/// Deterministic neighbor-broadcast bus over nodes of type `Node`, which
/// must provide `void receive(const Message&)`.
template <class Node>
class BroadcastBus {
 public:
  /// Registers `node` as the receiver for id `id` (ids must be dense
  /// 0..n-1). The node must outlive the bus's deliveries.
  void register_node(model::ChargerIndex id, Node* node) {
    const auto index = static_cast<std::size_t>(id);
    if (nodes_.size() <= index) {
      nodes_.resize(index + 1, nullptr);
      neighbors_.resize(index + 1);
    }
    if (nodes_[index] != nullptr) {
      throw std::invalid_argument("BroadcastBus: node registered twice");
    }
    nodes_[index] = node;
  }

  /// Declares the neighbor list of `id` (directed: receivers of its
  /// broadcasts). Usually symmetric, taken from Network::neighbors.
  void set_neighbors(model::ChargerIndex id, std::vector<model::ChargerIndex> neighbors) {
    const auto index = static_cast<std::size_t>(id);
    if (index >= neighbors_.size()) {
      throw std::invalid_argument("BroadcastBus: unknown node");
    }
    neighbors_[index] = std::move(neighbors);
  }

  /// Queues a broadcast from `message.sender` to all its neighbors.
  void broadcast(Message message) {
    const auto sender = static_cast<std::size_t>(message.sender);
    if (sender >= nodes_.size() || nodes_[sender] == nullptr) {
      throw std::invalid_argument("BroadcastBus: broadcast from unregistered node");
    }
    ++stats_.broadcasts;
    stats_.bytes += message.wire_size();
    pending_.push_back(std::move(message));
  }

  /// Delivers every queued message (in send order) and bumps the round
  /// counter; messages broadcast *during* delivery are queued for the next
  /// round. Returns the number of messages delivered this round.
  std::size_t flush_round() {
    // Swap out the queue first: receivers may broadcast replies, which
    // belong to the *next* round. The two buffers trade places every round,
    // so neither reallocates once warm.
    delivering_.clear();
    delivering_.swap(pending_);
    if (delivering_.empty()) return 0;
    ++stats_.rounds;
    std::size_t delivered = 0;
    for (const Message& message : delivering_) {
      for (model::ChargerIndex neighbor :
           neighbors_[static_cast<std::size_t>(message.sender)]) {
        const auto index = static_cast<std::size_t>(neighbor);
        if (index < nodes_.size() && nodes_[index] != nullptr) {
          nodes_[index]->receive(message);
          ++delivered;
        }
      }
    }
    stats_.deliveries += delivered;
    return delivered;
  }

  /// True if no messages are waiting.
  bool idle() const { return pending_.empty(); }

  const BusStats& stats() const { return stats_; }
  void reset_stats() { stats_ = BusStats{}; }

 private:
  std::vector<Node*> nodes_;
  std::vector<std::vector<model::ChargerIndex>> neighbors_;
  std::vector<Message> pending_;     // broadcast since the last flush
  std::vector<Message> delivering_;  // the round being delivered
  BusStats stats_;
};

}  // namespace haste::oracle
