// Spawns a whole broker network in one process: one BrokerNode per overlay
// node on loopback ports, peer tables wired automatically. Also acts as
// the propagation controller, clocking Algorithm 2's iterations across the
// live TCP brokers.
//
// Fault tolerance: kill(b) stops a broker mid-run (its port is remembered)
// and restart(b) brings a fresh, empty broker back on the same port; the
// state-based summary sends re-heal its routing state over the following
// propagation periods. A propagation round skips unreachable brokers and
// reports them instead of aborting.
#pragma once

#include <functional>
#include <memory>
#include <span>
#include <vector>

#include "net/broker_node.h"
#include "net/client.h"

namespace subsum::net {

/// Outcome of one propagation period under churn.
struct PropagationReport {
  /// Brokers that failed to take (or ack) at least one trigger this
  /// period, in first-failure order; live brokers completed the round.
  std::vector<overlay::BrokerId> unreachable;

  [[nodiscard]] bool complete() const noexcept { return unreachable.empty(); }
};

/// The propagation controller's round over the brokers listening on
/// `ports` (indexed by broker id): for i = 1..max_degree, triggers
/// iteration i and waits for each ack (each broker's summary send is
/// synchronous, so the barrier gives exactly the paper's iteration
/// semantics). Iteration 1 goes to every broker, since it starts each
/// one's period; iteration i >= 2 only to the brokers of degree i, the
/// only ones it makes act. A broker that fails a trigger is skipped for the
/// rest of the period and reported; the round continues for live brokers.
/// Cluster and the subsum_broker CLI both clock their periods with it.
PropagationReport clock_propagation_period(const overlay::Graph& graph,
                                           std::span<const uint16_t> ports,
                                           const RpcPolicy& rpc);

class Cluster {
 public:
  /// Per-broker configuration hook, applied to the generated BrokerConfig
  /// before the node starts (both initial construction and restarts).
  using ConfigTweak = std::function<void(BrokerConfig&)>;

  /// `data_dir`, when non-empty, makes every broker durable: broker b
  /// stores its WAL/snapshot/epoch under <data_dir>/broker-<b>, and
  /// restart(b) recovers from it instead of coming back empty.
  /// `tweak`, when set, customizes every broker's config (lease defaults,
  /// governor budgets, ...) at construction and on every restart.
  Cluster(const model::Schema& schema, const overlay::Graph& graph,
          core::GeneralizePolicy policy = core::GeneralizePolicy::kSafe,
          RpcPolicy rpc = {}, std::string data_dir = {}, ConfigTweak tweak = {});
  ~Cluster() { stop(); }

  Cluster(const Cluster&) = delete;
  Cluster& operator=(const Cluster&) = delete;

  [[nodiscard]] size_t size() const noexcept { return nodes_.size(); }
  [[nodiscard]] uint16_t port_of(overlay::BrokerId b) const { return ports_.at(b); }
  [[nodiscard]] BrokerNode& node(overlay::BrokerId b) { return *nodes_.at(b); }

  /// New client connection to broker b.
  [[nodiscard]] std::unique_ptr<Client> connect(overlay::BrokerId b,
                                                ClientOptions opts = {}) const;

  /// Clocks one full propagation period over the cluster's brokers
  /// (clock_propagation_period).
  PropagationReport run_propagation_period();

  /// Simulates a crash: stops broker b (connections reset, state lost).
  void kill(overlay::BrokerId b);

  /// Brings a killed broker back on its original port and re-wires peers.
  /// Without a cluster data_dir the broker returns empty (clients must
  /// reconnect and re-subscribe); with one, it crash-recovers its
  /// subscription set and summaries from disk, and reconnecting clients
  /// re-attach their existing subscriptions.
  ///
  /// `tweak`, when set, becomes broker b's persistent config override: it
  /// is applied (after the cluster-wide tweak) to this restart and every
  /// later one — e.g. shrink lease windows or governor budgets on a single
  /// node without rebuilding the cluster.
  void restart(overlay::BrokerId b, ConfigTweak tweak = {});

  [[nodiscard]] bool alive(overlay::BrokerId b) const { return !nodes_.at(b)->stopped(); }

  void stop();

 private:
  const model::Schema* schema_;
  overlay::Graph graph_;
  core::GeneralizePolicy policy_;
  RpcPolicy rpc_;
  std::string data_dir_;  // empty = ephemeral brokers
  ConfigTweak tweak_;     // cluster-wide; applied before per-node overrides
  [[nodiscard]] BrokerConfig make_config(overlay::BrokerId b) const;
  std::vector<uint16_t> ports_;  // fixed for the cluster's lifetime
  std::vector<std::unique_ptr<BrokerNode>> nodes_;
  std::vector<ConfigTweak> overrides_;  // per node, set by restart(b, tweak)
};

}  // namespace subsum::net
