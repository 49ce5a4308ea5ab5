// subsum_broker — run one broker daemon of a deployment.
//
//   subsum_broker --config deploy.conf --id 3 --port 7003 ...
//                 --peers 7000,7001,...,7012 [--propagate-every 10]
//                 [--data-dir DIR]
//
// With --data-dir the broker is crash-durable: subscriptions are WAL-logged
// to DIR before being acked, the state is periodically snapshotted, and a
// restart with the same --data-dir recovers the subscription set and
// summaries (clients re-attach instead of re-subscribing). Each restart
// bumps the broker's epoch so peers discard its pre-crash routing state.
//
// Every broker of the deployment is started with the same --config and
// --peers list (ports in broker-id order; peers[id] must equal --port).
// One broker (any) may be given --propagate-every N to act as the
// propagation controller, clocking Algorithm 2's iterations across the
// deployment every N seconds.
#include <atomic>
#include <chrono>
#include <csignal>
#include <iostream>
#include <thread>

#include "config/config.h"
#include "net/broker_node.h"
#include "net/cluster.h"
#include "tool_args.h"

namespace {

constexpr char kUsage[] =
    "usage: subsum_broker --config FILE --id N --port P --peers P0,P1,...\n"
    "                     [--propagate-every SECONDS] [--data-dir DIR]\n"
    "overload governor (0 = unlimited unless noted):\n"
    "  [--publish-rate N]         publish admissions/sec (token bucket)\n"
    "  [--publish-burst N]        bucket burst (0 = one second of rate)\n"
    "  [--max-connections N]      concurrent connection cap\n"
    "  [--max-subscriptions N]    local subscription cap\n"
    "  [--retry-after-ms N]       hint stamped on capacity rejections\n"
    "  [--conn-queue-bytes N]     per-connection outbound queue cap\n"
    "  [--conn-queue-frames N]    per-connection outbound frame cap\n"
    "  [--write-stall-ms N]       slow-consumer disconnect deadline (0 clamps to default)\n"
    "  [--conn-sndbuf-bytes N]    SO_SNDBUF clamp on accepted connections\n"
    "  [--memory-budget-bytes N]  global budget driving the shed ladder (default 128 MiB)\n"
    "  [--breaker-open-after N]   terminal failures opening a peer breaker\n"
    "  [--breaker-cooldown-ms N]  breaker cooldown before a half-open probe\n"
    "observability (obs/):\n"
    "  [--log-level LVL]          structured JSONL logging: debug|info|warn|error\n"
    "                             (default off — the broker stays silent)\n"
    "  [--log-file FILE]          log sink (append; default stderr)\n"
    "  [--log-rate N]             max log lines/sec before rate limiting (default 200)\n"
    "  [--flight-capacity N]      flight-recorder ring size (default 1024)\n"
    "  [--flight-dump FILE]       dump path for stop/fatal-signal/kDump\n"
    "                             (default <data-dir>/flight.bin when durable)\n"
    "  [--profile-hz N]           arm the sampling CPU profiler at N Hz from\n"
    "                             startup (default off; kProfile can arm it later)\n"
    "  [--profile-ring N]         profiler sample-ring capacity (default 4096)\n";

/// Governor knobs, each defaulting to the GovernorConfig default.
subsum::net::GovernorConfig governor_from_args(const subsum::tools::Args& args) {
  subsum::net::GovernorConfig g;
  g.publish_rate_per_sec = args.flag_u64("publish-rate", g.publish_rate_per_sec);
  g.publish_burst = args.flag_u64("publish-burst", g.publish_burst);
  g.max_connections = args.flag_u64("max-connections", g.max_connections);
  g.max_subscriptions = args.flag_u64("max-subscriptions", g.max_subscriptions);
  g.retry_after = std::chrono::milliseconds(
      args.flag_u64("retry-after-ms", static_cast<uint64_t>(g.retry_after.count())));
  g.conn_queue_max_bytes = args.flag_u64("conn-queue-bytes", g.conn_queue_max_bytes);
  g.conn_queue_max_frames = args.flag_u64("conn-queue-frames", g.conn_queue_max_frames);
  g.write_stall_timeout = std::chrono::milliseconds(args.flag_u64(
      "write-stall-ms", static_cast<uint64_t>(g.write_stall_timeout.count())));
  g.conn_sndbuf_bytes = args.flag_u64("conn-sndbuf-bytes", g.conn_sndbuf_bytes);
  g.memory_budget_bytes = args.flag_u64("memory-budget-bytes", g.memory_budget_bytes);
  g.breaker_open_after = static_cast<uint32_t>(
      args.flag_u64("breaker-open-after", g.breaker_open_after));
  g.breaker_cooldown = std::chrono::milliseconds(args.flag_u64(
      "breaker-cooldown-ms", static_cast<uint64_t>(g.breaker_cooldown.count())));
  return g;
}

std::atomic<bool> g_stop{false};

void on_signal(int) { g_stop = true; }

}  // namespace

int main(int argc, char** argv) {
  using namespace subsum;
  const tools::Args args(argc, argv);

  config::SystemSpec spec;
  try {
    spec = config::load_system_spec(args.required("config", kUsage));
  } catch (const config::ConfigError& e) {
    std::cerr << "config error: " << e.what() << "\n";
    return 1;
  }

  const auto id = static_cast<overlay::BrokerId>(args.required_u64("id", kUsage));
  const auto port = static_cast<uint16_t>(args.required_u64("port", kUsage));
  auto peers = args.flag_ports("peers");
  if (id >= spec.graph.size() || peers.size() != spec.graph.size() || peers[id] != port) {
    std::cerr << "--id/--port/--peers inconsistent with the config's "
              << spec.graph.size() << "-broker overlay\n"
              << kUsage;
    return 2;
  }

  const net::RpcPolicy rpc;  // deadlines + backoff for peer RPCs
  net::BrokerConfig cfg;
  cfg.id = id;
  cfg.schema = spec.schema;
  cfg.graph = spec.graph;
  cfg.port = port;
  cfg.rpc = rpc;
  if (auto dir = args.flag("data-dir")) cfg.data_dir = *dir;
  cfg.governor = governor_from_args(args);
  cfg.flight_capacity = args.flag_u64("flight-capacity", cfg.flight_capacity);
  if (auto path = args.flag("flight-dump")) cfg.flight_dump_path = *path;
  std::FILE* log_file = nullptr;
  if (auto lvl = args.flag("log-level")) cfg.log_level = obs::parse_log_level(*lvl);
  if (auto path = args.flag("log-file")) {
    log_file = std::fopen(path->c_str(), "a");
    if (!log_file) {
      std::cerr << "cannot open log file " << *path << "\n";
      return 2;
    }
    cfg.log_sink = log_file;  // outlives the node: closed at process exit
  }
  cfg.log_max_lines_per_sec = args.flag_u64("log-rate", cfg.log_max_lines_per_sec);
  cfg.profile_hz = static_cast<uint32_t>(args.flag_u64("profile-hz", cfg.profile_hz));
  cfg.profile_ring_capacity = args.flag_u64("profile-ring", cfg.profile_ring_capacity);

  try {
    net::BrokerNode node(std::move(cfg));
    node.set_peer_ports(peers);
    // Crash black box: on SIGSEGV/SIGABRT/... the handler appends a
    // fatal-signal record and dumps the ring before re-raising, so a
    // post-mortem reads the transitions that preceded death.
    static std::string fatal_path;  // must outlive the handler
    fatal_path = node.flight_dump_path();
    if (!fatal_path.empty()) {
      obs::install_fatal_dump(&node.flight_recorder(), fatal_path.c_str());
    }
    std::cout << "broker " << id << " (degree " << spec.graph.degree(id)
              << ") listening on 127.0.0.1:" << node.port();
    if (node.epoch() > 0) {
      const auto rec = node.recovery();
      std::cout << ", epoch " << node.epoch();
      if (rec.recovered) {
        std::cout << " (recovered " << node.snapshot().local_subs << " subscriptions"
                  << (rec.wal_torn ? ", torn WAL tail discarded" : "")
                  << (rec.snapshot_fell_back ? ", snapshot corrupt: log-only replay" : "")
                  << ")";
      }
    }
    std::cout << std::endl;

    std::signal(SIGINT, on_signal);
    std::signal(SIGTERM, on_signal);

    const uint64_t period = args.flag_u64("propagate-every", 0);
    auto last = std::chrono::steady_clock::now();
    while (!g_stop) {
      std::this_thread::sleep_for(std::chrono::milliseconds(200));
      if (period == 0) continue;
      const auto now = std::chrono::steady_clock::now();
      if (now - last < std::chrono::seconds(period)) continue;
      last = now;
      // Act as the controller: clock the iterations across all brokers.
      // An unreachable broker is skipped for the rest of the period and
      // reported; live brokers still complete the round.
      for (const overlay::BrokerId b :
           net::clock_propagation_period(spec.graph, peers, rpc).unreachable) {
        std::cerr << "propagation: broker " << b << " unreachable; continuing without it\n";
      }
      std::cout << "propagation period completed" << std::endl;
    }
    std::cout << "broker " << id << " shutting down\n";
    node.stop();
  } catch (const std::exception& e) {
    std::cerr << "broker failed: " << e.what() << "\n";
    return 1;
  }
  return 0;
}
