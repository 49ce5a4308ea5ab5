// subsum_top — live fleet-wide summary-quality view.
//
//   subsum_top --ports 7000,7001,7002                # live table, 2s interval
//              [--interval-ms N]                     # scrape period (default 2000)
//              [--iterations N]                      # stop after N ticks (0 = forever)
//              [--jsonl FILE]                        # append one JSON line per tick
//              [--top K]                             # hot-broker list depth (default 3)
//              [--once]                              # single health probe (see below)
//
// --once scrapes each broker exactly once, prints one plain line per broker
// (no TTY table, no ANSI), and exits nonzero when any broker is down or the
// control-plane-shed alarm fires (subsum_shed_total{class="control"} > 0 —
// "control traffic is never shed" is a hard invariant). Built for CI health
// gates and cron probes.
//
// Every tick scrapes each broker's Prometheus exposition (the kStats RPC,
// via net::Client so reconnect/backoff come for free — it works through
// the fault-injector proxy too), parses it with obs::parse_prometheus_text,
// and renders:
//
//   * one row per broker: up/down, epoch, uptime, local subs, lease
//     population and expiries, publish and walk-efficiency counters,
//     summary precision counted at the owners, false-positive ids,
//     wire-vs-model drift, and the soft-state announcement mix (delta
//     sends, full sends, and repairs: refused deltas the broker answered
//     with its full image);
//   * fleet aggregates: totals across live brokers, fleet precision
//     (Σ exact / Σ candidates — NOT a mean of ratios), min/max drift, and
//     the top-K brokers by false-positive count and by walk visit load.
//
// A down broker shows as "down" and is skipped in aggregates; the exit
// code is nonzero only when the final tick reached no broker at all.
#include <unistd.h>

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <fstream>
#include <iostream>
#include <memory>
#include <optional>
#include <string>
#include <thread>
#include <vector>

#include "model/schema.h"
#include "net/client.h"
#include "obs/promtext.h"
#include "tool_args.h"

namespace {

constexpr char kUsage[] =
    "usage: subsum_top --ports P0,P1,... [--interval-ms N] [--iterations N]\n"
    "                  [--jsonl FILE] [--top K] [--once]\n";

using namespace subsum;

/// The metrics one broker row is built from (absent metrics read as 0).
struct BrokerRow {
  uint16_t port = 0;
  bool up = false;
  std::string version;
  double epoch = 0;
  double uptime_s = 0;
  double local_subs = 0;
  double held_wire_bytes = 0;
  double publishes = 0;
  double walk_visits = 0;
  double walk_forward = 0;
  double walk_deliver = 0;
  double walk_reselects = 0;
  // Soft-state health (PROTOCOL v4): lease population/expiries and the
  // delta-announcement machinery — a nonzero steady-state sync or mismatch
  // rate means links keep diverging and repairing instead of staying in
  // lockstep.
  double active_leases = 0;
  double lease_expired = 0;
  double delta_sends = 0;
  double full_sends = 0;
  double digest_mismatch = 0;
  double sync_pulls = 0;
  double candidate_ids = 0;
  double exact_ids = 0;
  double fp_ids = 0;
  double precision = 1.0;
  double drift = 0;
  // Overload health (net/governor.h): degradation-ladder rung, accounted
  // outbound bytes, shed totals (control sheds broken out — any nonzero
  // value there is a bug worth paging on), and slow-consumer disconnects.
  double health_rung = 0;
  double queue_bytes = 0;
  double sheds = 0;          // all classes summed
  double control_sheds = 0;  // must stay 0
  double slow_disconnects = 0;
  double rejected_publishes = 0;
  // Trace-ring overflow: spans silently overwritten (oldest-first) since
  // start. A climbing value means the ring is undersized for the publish
  // rate and trace chains are losing their tails.
  double trace_drops = 0;
  // Frozen matching core: shard balance from subsum_match_shard_visits_total
  // (see core/frozen_index.h). imbalance = hottest shard / mean shard, 1.0
  // meaning perfectly even counter-sweep load; 0 shards = index not engaged.
  size_t shard_count = 0;
  double shard_visits = 0;
  double shard_imbalance = 0;
  // Resource attribution (obs/memacct.h, obs/profiler.h): process RSS,
  // busy cores (sum of per-role duty cycles), the component ledger's total
  // and its largest line, and the governor's memory budget for the fleet
  // hog check.
  double rss_bytes = 0;
  double cpu_cores = 0;
  double mem_total = 0;
  std::string mem_top_component;
  double mem_top_bytes = 0;
  double mem_budget = 0;
};

double find_value(const std::vector<obs::PromSample>& samples, std::string_view name) {
  for (const auto& s : samples) {
    if (s.name == name) return s.value;
  }
  return 0;
}

BrokerRow parse_row(uint16_t port, const std::string& text) {
  BrokerRow r;
  r.port = port;
  r.up = true;
  const auto samples = obs::parse_prometheus_text(text);
  for (const auto& s : samples) {
    if (s.name == "subsum_build_info") {
      if (const auto* v = s.label("version")) r.version = *v;
    }
  }
  r.epoch = find_value(samples, "subsum_epoch");
  r.uptime_s = find_value(samples, "subsum_uptime_seconds");
  r.local_subs = find_value(samples, "subsum_local_subs");
  r.held_wire_bytes = find_value(samples, "subsum_held_wire_bytes");
  r.publishes = find_value(samples, "subsum_publishes_total");
  r.walk_visits = find_value(samples, "subsum_walk_visits_total");
  r.walk_forward = find_value(samples, "subsum_walk_forward_hops_total");
  r.walk_deliver = find_value(samples, "subsum_walk_delivery_hops_total");
  r.walk_reselects = find_value(samples, "subsum_walk_reselects_total");
  r.active_leases = find_value(samples, "subsum_active_leases");
  r.lease_expired = find_value(samples, "subsum_lease_expired_total");
  r.delta_sends = find_value(samples, "subsum_summary_delta_sends_total");
  r.full_sends = find_value(samples, "subsum_summary_full_sends_total");
  r.digest_mismatch = find_value(samples, "subsum_summary_digest_mismatch_total");
  r.sync_pulls = find_value(samples, "subsum_summary_sync_total");
  r.candidate_ids = find_value(samples, "subsum_quality_candidate_ids_total");
  r.exact_ids = find_value(samples, "subsum_quality_exact_ids_total");
  r.fp_ids = find_value(samples, "subsum_summary_false_positive_ids_total");
  r.precision = r.candidate_ids > 0 ? r.exact_ids / r.candidate_ids : 1.0;
  r.drift = find_value(samples, "subsum_summary_model_drift_ratio");
  r.health_rung = find_value(samples, "subsum_health_rung");
  r.queue_bytes = find_value(samples, "subsum_outbound_usage_bytes");
  r.slow_disconnects = find_value(samples, "subsum_slow_consumer_disconnects_total");
  r.rejected_publishes = find_value(samples, "subsum_governor_rejected_publishes_total");
  r.trace_drops = find_value(samples, "subsum_trace_spans_dropped_total");
  r.rss_bytes = find_value(samples, "subsum_process_rss_bytes");
  r.mem_budget = find_value(samples, "subsum_memory_budget_bytes");
  double hottest = 0;
  for (const auto& s : samples) {
    if (s.name == "subsum_thread_duty_cycle") r.cpu_cores += s.value;
    if (s.name == "subsum_mem_bytes") {
      r.mem_total += s.value;
      if (s.value > r.mem_top_bytes) {
        r.mem_top_bytes = s.value;
        if (const auto* c = s.label("component")) r.mem_top_component = *c;
      }
    }
    if (s.name == "subsum_shed_total") {
      r.sheds += s.value;
      if (const auto* cls = s.label("class"); cls && *cls == "control") {
        r.control_sheds += s.value;
      }
    }
    if (s.name != "subsum_match_shard_visits_total") continue;
    ++r.shard_count;
    r.shard_visits += s.value;
    hottest = std::max(hottest, s.value);
  }
  if (r.shard_count > 0 && r.shard_visits > 0) {
    r.shard_imbalance = hottest / (r.shard_visits / static_cast<double>(r.shard_count));
  }
  return r;
}

void render(const std::vector<BrokerRow>& rows, size_t top_k, size_t tick) {
  std::printf("subsum_top  tick %zu\n", tick);
  std::printf("%-6s %-5s %-8s %-6s %-7s %-6s %-6s %-9s %-9s %-7s %-7s %-8s %-7s %-9s %-6s %-6s %-6s %-6s %-6s %-5s %-4s %-8s %-6s %-6s %-6s %-5s %-6s %-12s\n",
              "port", "up", "version", "epoch", "subs", "leases", "expird", "publishes",
              "visits", "fwd", "deliver", "reselect", "fp_ids", "precision", "drift",
              "shards", "sh_imb", "dsend", "fsend", "sync", "rung", "qbytes", "shed",
              "slowdc", "trdrop", "cpu%", "rssMB", "memtop");
  for (const auto& r : rows) {
    if (!r.up) {
      std::printf("%-6u %-5s %s\n", r.port, "down", "-");
      continue;
    }
    // memtop names the ledger's largest component: "where did this broker's
    // memory go" without leaving the table.
    const std::string memtop =
        r.mem_top_component.empty()
            ? "-"
            : r.mem_top_component + "(" +
                  std::to_string(static_cast<long long>(r.mem_top_bytes / 1024.0)) + "K)";
    std::printf("%-6u %-5s %-8s %-6.0f %-7.0f %-6.0f %-6.0f %-9.0f %-9.0f %-7.0f %-7.0f %-8.0f %-7.0f %-9.4f %-6.3f %-6zu %-6.2f %-6.0f %-6.0f %-5.0f %-4.0f %-8.0f %-6.0f %-6.0f %-6.0f %-5.0f %-6.1f %-12s\n",
                r.port, "up", r.version.c_str(), r.epoch, r.local_subs, r.active_leases,
                r.lease_expired, r.publishes, r.walk_visits, r.walk_forward, r.walk_deliver,
                r.walk_reselects, r.fp_ids, r.precision, r.drift, r.shard_count,
                r.shard_imbalance, r.delta_sends, r.full_sends, r.sync_pulls, r.health_rung,
                r.queue_bytes, r.sheds, r.slow_disconnects, r.trace_drops,
                r.cpu_cores * 100.0, r.rss_bytes / (1024.0 * 1024.0), memtop.c_str());
  }

  std::vector<const BrokerRow*> live;
  for (const auto& r : rows) {
    if (r.up) live.push_back(&r);
  }
  if (live.empty()) {
    std::printf("fleet: no broker reachable\n");
    return;
  }
  double cand = 0, exact = 0, fp = 0, visits = 0, fwd = 0, del = 0, resel = 0, pubs = 0;
  double leases = 0, expired = 0, dsend = 0, fsend = 0, mism = 0, syncs = 0;
  double sheds = 0, ctl_sheds = 0, qbytes = 0, slowdc = 0, rej_pubs = 0, max_rung = 0;
  double dmin = live.front()->drift, dmax = live.front()->drift;
  for (const auto* r : live) {
    sheds += r->sheds;
    ctl_sheds += r->control_sheds;
    qbytes += r->queue_bytes;
    slowdc += r->slow_disconnects;
    rej_pubs += r->rejected_publishes;
    max_rung = std::max(max_rung, r->health_rung);
    cand += r->candidate_ids;
    exact += r->exact_ids;
    fp += r->fp_ids;
    visits += r->walk_visits;
    fwd += r->walk_forward;
    del += r->walk_deliver;
    resel += r->walk_reselects;
    pubs += r->publishes;
    leases += r->active_leases;
    expired += r->lease_expired;
    dsend += r->delta_sends;
    fsend += r->full_sends;
    mism += r->digest_mismatch;
    syncs += r->sync_pulls;
    dmin = std::min(dmin, r->drift);
    dmax = std::max(dmax, r->drift);
  }
  // Fleet precision weights brokers by delivered candidate ids, as eq (1)-(2)
  // would: a ratio-of-sums, not a mean of per-broker ratios.
  const double fleet_precision = cand > 0 ? exact / cand : 1.0;
  std::printf(
      "fleet: %zu/%zu up  publishes=%.0f visits=%.0f fwd=%.0f deliver=%.0f reselect=%.0f\n",
      live.size(), rows.size(), pubs, visits, fwd, del, resel);
  std::printf("fleet: fp_ids=%.0f precision=%.4f drift=[%.3f, %.3f]\n", fp, fleet_precision,
              dmin, dmax);
  std::printf(
      "fleet: leases=%.0f expired=%.0f delta_sends=%.0f full_sends=%.0f mismatches=%.0f "
      "syncs=%.0f\n",
      leases, expired, dsend, fsend, mism, syncs);
  std::printf(
      "fleet: rung<=%.0f queue_bytes=%.0f sheds=%.0f control_sheds=%.0f "
      "slow_disconnects=%.0f rejected_publishes=%.0f%s\n",
      max_rung, qbytes, sheds, ctl_sheds, slowdc, rej_pubs,
      ctl_sheds > 0 ? "  ** CONTROL-PLANE SHED: BUG **" : "");

  auto print_top = [&](const char* label, auto key) {
    auto sorted = live;
    std::stable_sort(sorted.begin(), sorted.end(),
                     [&](const BrokerRow* a, const BrokerRow* b) { return key(*a) > key(*b); });
    std::printf("top by %s:", label);
    for (size_t i = 0; i < std::min(top_k, sorted.size()); ++i) {
      std::printf(" %u(%.0f)", sorted[i]->port, key(*sorted[i]));
    }
    std::printf("\n");
  };
  print_top("fp_ids", [](const BrokerRow& r) { return r.fp_ids; });
  print_top("walk visits", [](const BrokerRow& r) { return r.walk_visits; });
  print_top("shard imbalance", [](const BrokerRow& r) { return r.shard_imbalance; });

  // Memory-budget watch: name every broker whose accounted components sit
  // above 80% of its governor budget — the ladder is one growth spurt away.
  bool header = false;
  for (const auto* r : live) {
    if (r->mem_budget <= 0 || r->mem_total < 0.8 * r->mem_budget) continue;
    if (!header) {
      std::printf("fleet: over 80%% of memory budget:");
      header = true;
    }
    std::printf(" %u(%.0f%%)", r->port, 100.0 * r->mem_total / r->mem_budget);
  }
  if (header) std::printf("\n");
}

void append_jsonl(std::ostream& os, const std::vector<BrokerRow>& rows, size_t tick) {
  const auto now = std::chrono::duration_cast<std::chrono::seconds>(
                       std::chrono::system_clock::now().time_since_epoch())
                       .count();
  os << "{\"tick\":" << tick << ",\"unix_s\":" << now << ",\"brokers\":[";
  for (size_t i = 0; i < rows.size(); ++i) {
    const auto& r = rows[i];
    if (i) os << ",";
    os << "{\"port\":" << r.port << ",\"up\":" << (r.up ? "true" : "false");
    if (r.up) {
      os << ",\"epoch\":" << r.epoch << ",\"uptime_s\":" << r.uptime_s
         << ",\"local_subs\":" << r.local_subs << ",\"publishes\":" << r.publishes
         << ",\"walk_visits\":" << r.walk_visits << ",\"walk_forward\":" << r.walk_forward
         << ",\"walk_deliver\":" << r.walk_deliver
         << ",\"walk_reselects\":" << r.walk_reselects
         << ",\"candidate_ids\":" << r.candidate_ids << ",\"exact_ids\":" << r.exact_ids
         << ",\"fp_ids\":" << r.fp_ids << ",\"precision\":" << r.precision
         << ",\"model_drift_ratio\":" << r.drift
         << ",\"held_wire_bytes\":" << r.held_wire_bytes
         << ",\"active_leases\":" << r.active_leases
         << ",\"lease_expired\":" << r.lease_expired
         << ",\"delta_sends\":" << r.delta_sends << ",\"full_sends\":" << r.full_sends
         << ",\"digest_mismatches\":" << r.digest_mismatch
         << ",\"sync_pulls\":" << r.sync_pulls
         << ",\"health_rung\":" << r.health_rung
         << ",\"queue_bytes\":" << r.queue_bytes << ",\"sheds\":" << r.sheds
         << ",\"control_sheds\":" << r.control_sheds
         << ",\"slow_disconnects\":" << r.slow_disconnects
         << ",\"rejected_publishes\":" << r.rejected_publishes
         << ",\"trace_spans_dropped\":" << r.trace_drops
         << ",\"match_shards\":" << r.shard_count
         << ",\"shard_visits\":" << r.shard_visits
         << ",\"shard_imbalance\":" << r.shard_imbalance
         << ",\"rss_bytes\":" << r.rss_bytes
         << ",\"cpu_cores\":" << r.cpu_cores
         << ",\"mem_total_bytes\":" << r.mem_total
         << ",\"mem_top_component\":\"" << r.mem_top_component << "\""
         << ",\"mem_top_bytes\":" << r.mem_top_bytes
         << ",\"mem_budget_bytes\":" << r.mem_budget;
    }
    os << "}";
  }
  os << "]}\n";
  os.flush();
}

}  // namespace

int main(int argc, char** argv) {
  const tools::Args args(argc, argv, {"once"});
  const std::vector<uint16_t> ports = args.flag_ports("ports");
  if (ports.empty()) {
    std::cerr << kUsage;
    return 2;
  }
  const bool once = args.flag_bool("once");
  const auto interval = std::chrono::milliseconds(args.flag_u64("interval-ms", 2000));
  const uint64_t iterations = once ? 1 : args.flag_u64("iterations", 0);
  const size_t top_k = args.flag_u64("top", 3);
  const auto jsonl_path = args.flag("jsonl");

  std::ofstream jsonl;
  if (jsonl_path) {
    jsonl.open(*jsonl_path, std::ios::app);
    if (!jsonl) {
      std::cerr << "cannot open " << *jsonl_path << " for append\n";
      return 2;
    }
  }

  // kStats is schema-free, so an empty schema works against any deployment.
  const model::Schema no_schema;
  net::ClientOptions copts;
  copts.connect_timeout = std::chrono::milliseconds(500);
  copts.rpc_timeout = std::chrono::milliseconds(5000);
  std::vector<std::unique_ptr<net::Client>> clients(ports.size());

  const bool ansi = isatty(STDOUT_FILENO) != 0 && iterations != 1 && !once;
  size_t last_live = 0;
  bool control_shed_alarm = false;
  for (uint64_t tick = 1; iterations == 0 || tick <= iterations; ++tick) {
    std::vector<BrokerRow> rows;
    rows.reserve(ports.size());
    for (size_t i = 0; i < ports.size(); ++i) {
      BrokerRow row;
      row.port = ports[i];
      try {
        if (!clients[i]) clients[i] = std::make_unique<net::Client>(ports[i], no_schema, copts);
        row = parse_row(ports[i], clients[i]->stats_text());
      } catch (const std::exception&) {
        clients[i].reset();  // rebuild the connection next tick
      }
      rows.push_back(std::move(row));
    }
    last_live = static_cast<size_t>(
        std::count_if(rows.begin(), rows.end(), [](const BrokerRow& r) { return r.up; }));
    control_shed_alarm = std::any_of(rows.begin(), rows.end(), [](const BrokerRow& r) {
      return r.control_sheds > 0;
    });

    if (once) {
      // Health-gate mode: one plain line per broker, machine-grepable.
      for (const auto& r : rows) {
        if (!r.up) {
          std::printf("broker port=%u down\n", r.port);
          continue;
        }
        std::printf(
            "broker port=%u up rung=%.0f sheds=%.0f control_sheds=%.0f "
            "slow_disconnects=%.0f trace_drops=%.0f\n",
            r.port, r.health_rung, r.sheds, r.control_sheds, r.slow_disconnects,
            r.trace_drops);
      }
      if (control_shed_alarm) std::printf("ALARM: control-plane shed (invariant violated)\n");
      if (jsonl_path) append_jsonl(jsonl, rows, tick);
      break;
    }

    if (ansi) std::printf("\x1b[H\x1b[2J");
    render(rows, top_k, tick);
    if (jsonl_path) append_jsonl(jsonl, rows, tick);

    if (iterations == 0 || tick < iterations) std::this_thread::sleep_for(interval);
  }
  if (once) return (last_live < ports.size() || control_shed_alarm) ? 1 : 0;
  return last_live == 0 ? 1 : 0;
}
