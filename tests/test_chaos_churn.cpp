// Chaos suite (ctest label "chaos"; CI job chaos-churn runs -R Churn):
// soft-state convergence under churn. Poisson subscribe/unsubscribe load
// with leased subscriptions runs over the fig-7 tree while a broker is
// killed/restarted and a link is blackholed; once the faults clear and two
// quiet periods pass, every receiver's shadow digest must equal the
// sender's held digest link by link (anti-entropy convergence), with the
// delta path engaged, the repair path exercised and expired leases
// observed; and every live broker's converged summary must match
// generated events exactly as the reference matcher does.
#include <gtest/gtest.h>

#include <chrono>
#include <filesystem>
#include <map>
#include <memory>
#include <optional>
#include <thread>
#include <vector>

#include "core/matcher.h"
#include "net/cluster.h"
#include "net/fault_injector.h"
#include "overlay/topologies.h"
#include "util/rng.h"
#include "workload/churn.h"
#include "workload/event_gen.h"
#include "workload/stock_schema.h"

namespace subsum::net {
namespace {

namespace fs = std::filesystem;
using namespace std::chrono_literals;
using model::EventBuilder;
using model::Schema;
using model::SubId;
using overlay::BrokerId;

RpcPolicy tight_policy() {
  RpcPolicy p;
  p.connect_timeout = 200ms;
  p.io_timeout = 1000ms;
  p.backoff = {5ms, 40ms, 2};
  return p;
}

ClientOptions tight_client() {
  ClientOptions o;
  o.connect_timeout = 500ms;
  o.rpc_timeout = 30000ms;
  o.backoff = {5ms, 40ms, 4};
  return o;
}

std::string scratch_dir() {
  const auto* info = ::testing::UnitTest::GetInstance()->current_test_info();
  const std::string dir = ::testing::TempDir() + "subsum_chaos_churn/" +
                          info->test_suite_name() + "." + info->name();
  fs::remove_all(dir);
  fs::create_directories(dir);
  return dir;
}

TEST(ChurnChaos, ShadowDigestsConvergeAfterKillRestartAndBlackhole) {
  const Schema s = workload::stock_schema();
  const overlay::Graph g = overlay::fig7_tree();
  const size_t n = g.size();
  // Durable: kill/restart recovers subscriptions AND lease windows.
  Cluster cluster(s, g, core::GeneralizePolicy::kSafe, tight_policy(), scratch_dir());

  std::vector<std::unique_ptr<Client>> clients(n);
  for (BrokerId b = 0; b < n; ++b) clients[b] = cluster.connect(b, tight_client());

  workload::ChurnParams cp;
  cp.subscribe_rate = 8.0;
  cp.unsubscribe_rate = 5.0;
  cp.flash_crowd_prob = 0.15;
  workload::ChurnStream stream(s, {}, cp, 4242);
  util::Rng rng(99);

  struct Live {
    BrokerId owner;
    SubId id;
  };
  std::vector<Live> live;
  std::vector<model::Subscription> subscribed;  // every subscribe, for probe events

  // The victim must be an announcement RECEIVER for the repair path to be
  // reachable: pairing sends summaries up the degree gradient, so the hub
  // (broker 4, degree 5) takes deltas from brokers 1, 2, 3 and 5. Killing
  // it wipes its in-memory shadows while the senders keep their last-sent
  // bases — after restart the first delta hits an unknown base, is acked
  // kNeedFull, and its sender must push the full image.
  const BrokerId victim_broker = 4;
  const BrokerId hole_a = 0;
  const BrokerId hole_b = g.neighbors(0).front();
  std::unique_ptr<FaultInjector> inj;

  for (int period = 0; period < 8; ++period) {
    // Fault windows: the kill lands after period 2's churn, so the victim
    // is down for period 2's propagation AND period 3's churn (restart is
    // period 3's fault step). Same shape for the period-4 blackhole.
    const bool victim_dead = period == 3;   // during the churn/unsub phase
    const bool degraded = period == 2 || period == 4;  // during run_period

    // Churn: leased and permanent subscribes to random live brokers,
    // victim picks over the live list.
    workload::ChurnPeriod plan = stream.next_period();
    for (size_t i = 0; i < plan.subscribes.size(); ++i) {
      BrokerId b = static_cast<BrokerId>(rng.below(n));
      if (victim_dead && b == victim_broker) b = (b + 1) % static_cast<BrokerId>(n);
      // Every third subscription is leased and never renewed: some leases
      // MUST expire during the run (observable via the counter below).
      const uint32_t lease = i % 3 == 0 ? 2 + static_cast<uint32_t>(rng.below(3)) : 0;
      const SubId id = lease > 0 ? clients[b]->subscribe(plan.subscribes[i], lease)
                                 : clients[b]->subscribe(plan.subscribes[i]);
      live.push_back({b, id});
      subscribed.push_back(plan.subscribes[i]);
    }
    for (size_t u = 0; u < plan.unsubscribes && !live.empty(); ++u) {
      const size_t at = stream.pick_victim_index(live.size());
      if (victim_dead && live[at].owner == victim_broker) continue;  // owner down
      clients[live[at].owner]->unsubscribe(live[at].id);
      live[at] = live.back();
      live.pop_back();
    }

    // Faults.
    if (period == 2) {
      cluster.kill(victim_broker);
      clients[victim_broker].reset();
    }
    if (period == 3) {
      cluster.restart(victim_broker);
      std::this_thread::sleep_for(50ms);
      clients[victim_broker] = cluster.connect(victim_broker, tight_client());
    }
    if (period == 4) {
      // Blackhole hole_a -> hole_b: announcements and deliveries on that
      // direction vanish until healed.
      inj = std::make_unique<FaultInjector>(cluster.port_of(hole_b));
      inj->set_mode(FaultInjector::Mode::kBlackhole);
      std::vector<uint16_t> ports;
      for (BrokerId b = 0; b < n; ++b) ports.push_back(cluster.port_of(b));
      ports[hole_b] = inj->port();
      cluster.node(hole_a).set_peer_ports(ports);
    }
    if (period == 5) {
      std::vector<uint16_t> ports;
      for (BrokerId b = 0; b < n; ++b) ports.push_back(cluster.port_of(b));
      cluster.node(hole_a).set_peer_ports(ports);
      inj->set_mode(FaultInjector::Mode::kPass);
      inj->sever_connections();
    }

    // Walk traffic under churn (skip fault periods so bounded dead-peer
    // walks don't dominate the run time).
    if (!degraded) {
      const BrokerId origin = static_cast<BrokerId>(rng.below(n));
      if (clients[origin]) {
        clients[origin]->publish(EventBuilder(s)
                                     .set("symbol", "chrn-" + std::to_string(period))
                                     .set("volume", int64_t{period})
                                     .build());
      }
    }

    const auto report = cluster.run_propagation_period();
    if (!degraded) {
      EXPECT_TRUE(report.complete()) << "period " << period;
    }
  }

  // Faults are healed: two quiet periods (no churn) must converge every
  // link — that is the acceptance criterion for the anti-entropy design.
  ASSERT_TRUE(cluster.run_propagation_period().complete());
  ASSERT_TRUE(cluster.run_propagation_period().complete());

  for (BrokerId receiver = 0; receiver < n; ++receiver) {
    for (const auto& [sender, shadow_digest] : cluster.node(receiver).shadow_digests()) {
      EXPECT_EQ(shadow_digest, cluster.node(sender).held_digest())
          << "link " << sender << " -> " << receiver << " diverged";
    }
  }

  // The run exercised the machinery it claims to: deltas engaged, the
  // kill/restart forced at least one sender to answer kNeedFull with its
  // full image (subsum_summary_sync_total counts those repairs), and some
  // leases expired unrenewed.
  uint64_t delta_sends = 0, syncs = 0, lease_expired = 0;
  for (BrokerId b = 0; b < n; ++b) {
    const auto& m = cluster.node(b).metrics();
    delta_sends += m.counter_value("subsum_summary_delta_sends_total");
    syncs += m.counter_value("subsum_summary_sync_total");
    lease_expired += m.counter_value("subsum_lease_expired_total");
  }
#ifndef SUBSUM_NO_TELEMETRY
  EXPECT_GT(delta_sends, 0u);
  EXPECT_GE(syncs, 1u);
  EXPECT_GT(lease_expired, 0u);
#endif

  // The summaries that churn, restarts, deltas and repairs built must still
  // match exactly as the reference matcher does, on every live broker.
  // Every other event is built to match a subscription of the run.
  workload::EventGenerator events(s, stream.generator().pools(), {}, 4343);
  std::vector<model::Event> probe_events;
  for (int i = 0; i < 200; ++i) {
    std::optional<model::Event> built;
    if (i % 2 == 0) built = workload::matching_event(s, subscribed[rng.below(subscribed.size())]);
    probe_events.push_back(built ? std::move(*built) : events.next());
  }
  size_t matched_ids = 0;
  for (BrokerId b = 0; b < n; ++b) {
    if (!cluster.alive(b)) continue;
    const core::BrokerSummary held = cluster.node(b).held_summary();
    for (size_t i = 0; i < probe_events.size(); ++i) {
      const auto got = core::match(held, probe_events[i]);
      ASSERT_EQ(got, core::match_reference(held, probe_events[i]))
          << "broker " << b << " event " << i;
      matched_ids += got.size();
    }
  }
  EXPECT_GT(matched_ids, 0u);  // the events reach real rows
}

}  // namespace
}  // namespace subsum::net
