#include "net/cluster.h"

#include <algorithm>

namespace subsum::net {

Cluster::Cluster(const model::Schema& schema, const overlay::Graph& graph,
                 core::GeneralizePolicy policy, RpcPolicy rpc, std::string data_dir,
                 ConfigTweak tweak)
    : schema_(&schema), graph_(graph), policy_(policy), rpc_(rpc),
      data_dir_(std::move(data_dir)), tweak_(std::move(tweak)) {
  overrides_.resize(graph_.size());
  nodes_.reserve(graph_.size());
  for (overlay::BrokerId b = 0; b < graph_.size(); ++b) {
    nodes_.push_back(std::make_unique<BrokerNode>(make_config(b)));
  }
  ports_.reserve(nodes_.size());
  for (const auto& n : nodes_) ports_.push_back(n->port());
  for (const auto& n : nodes_) n->set_peer_ports(ports_);
}

std::unique_ptr<Client> Cluster::connect(overlay::BrokerId b, ClientOptions opts) const {
  return std::make_unique<Client>(ports_.at(b), *schema_, opts);
}

PropagationReport clock_propagation_period(const overlay::Graph& graph,
                                           std::span<const uint16_t> ports,
                                           const RpcPolicy& rpc) {
  PropagationReport report;
  std::vector<char> failed(ports.size(), 0);
  // A trigger ack can lag behind the broker's summary send plus its
  // redelivery flush, each paced by the backoff budget; size the wait
  // accordingly rather than one io_timeout.
  const auto ack_timeout = rpc.io_timeout * 10 + std::chrono::seconds(1);
  const auto max_degree = static_cast<uint32_t>(graph.max_degree());
  for (uint32_t it = 1; it <= max_degree; ++it) {
    for (overlay::BrokerId b = 0; b < ports.size(); ++b) {
      if (failed[b]) continue;  // already reported; skip for this period
      try {
        Socket s = connect_local(ports[b], rpc.connect_timeout);
        s.set_send_timeout(rpc.io_timeout);
        s.set_recv_timeout(ack_timeout);
        send_frame(s, MsgKind::kTrigger, encode(TriggerMsg{it}));
        const auto ack = recv_frame(s);
        if (!ack || ack->kind != MsgKind::kTriggerAck) {
          throw NetError("trigger not acknowledged");
        }
      } catch (const NetError&) {
        // Report which broker failed and continue the round: the paper's
        // iteration semantics degrade gracefully (the broker simply sends
        // nothing this period; state-based resends cover it later).
        failed[b] = 1;
        report.unreachable.push_back(b);
      }
    }
  }
  return report;
}

PropagationReport Cluster::run_propagation_period() {
  return clock_propagation_period(graph_, ports_, rpc_);
}

void Cluster::kill(overlay::BrokerId b) { nodes_.at(b)->stop(); }

BrokerConfig Cluster::make_config(overlay::BrokerId b) const {
  BrokerConfig cfg;
  cfg.id = b;
  cfg.schema = *schema_;
  cfg.graph = graph_;
  cfg.policy = policy_;
  cfg.rpc = rpc_;
  if (!data_dir_.empty()) cfg.data_dir = data_dir_ + "/broker-" + std::to_string(b);
  if (tweak_) tweak_(cfg);
  if (b < overrides_.size() && overrides_[b]) overrides_[b](cfg);
  return cfg;
}

void Cluster::restart(overlay::BrokerId b, ConfigTweak tweak) {
  if (tweak) overrides_.at(b) = std::move(tweak);
  if (alive(b)) return;
  nodes_.at(b).reset();  // release the old port before rebinding
  BrokerConfig cfg = make_config(b);
  cfg.port = ports_.at(b);
  nodes_.at(b) = std::make_unique<BrokerNode>(std::move(cfg));
  nodes_.at(b)->set_peer_ports(ports_);
}

void Cluster::stop() {
  for (const auto& n : nodes_) {
    if (n) n->stop();
  }
}

}  // namespace subsum::net
