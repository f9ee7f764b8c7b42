// Correctness checks the run benchmark applies to every simulation it
// times, plus a self-test that feeds each check a corrupted input and
// confirms it trips.
//
// Every check compares the program's output against something the
// benchmark computes itself (payment totals, initial escrow, connected
// components, ν(C*)) or against a property the method must have (outcome
// partition, edge-disjointness, Prop. 1). A check appends one message per
// violation to an Errors list; an empty list means the check passed.
#pragma once

#include <cstdint>
#include <cstring>
#include <set>
#include <span>
#include <string>
#include <vector>

#include "graph/graph.hpp"
#include "sim/metrics.hpp"
#include "sim/network.hpp"
#include "sim/payment.hpp"
#include "sim/topology_event.hpp"
#include "workload/traffic.hpp"

namespace runbench {

using spider::Amount;
using spider::NodeId;
using Errors = std::vector<std::string>;

/// Relative slack allowed on Spider (LP)'s fluid throughput above ν(C*):
/// both come out of double-precision simplex solves of different LPs.
inline constexpr double kProp1RelTolerance = 1e-6;
inline constexpr double kProp1AbsTolerance = 1e-6;

struct PaymentTotals {
  std::int64_t count = 0;
  Amount volume = 0;
};

inline PaymentTotals totals_of(const std::vector<spider::PaymentSpec>& trace) {
  PaymentTotals t;
  for (const spider::PaymentSpec& p : trace) {
    ++t.count;
    t.volume += p.amount;
  }
  return t;
}

/// What a scheme's per-payment records add up to: how many records, how
/// many completed, and the value they delivered.
struct RecordTotals {
  std::int64_t records = 0;
  std::int64_t completed = 0;
  Amount delivered = 0;
};

inline RecordTotals totals_of(const std::vector<spider::Payment>& payments) {
  RecordTotals t;
  for (const spider::Payment& p : payments) {
    ++t.records;
    if (p.status == spider::PaymentStatus::kCompleted) ++t.completed;
    t.delivered += p.delivered;
  }
  return t;
}

/// attempted_count / attempted_volume equal what the benchmark generated.
inline void check_attempted(const spider::SimMetrics& m,
                            const PaymentTotals& generated, Errors& errors) {
  if (m.attempted_count != generated.count)
    errors.push_back("attempted_count " + std::to_string(m.attempted_count) +
                     " != generated " + std::to_string(generated.count));
  if (m.attempted_volume != generated.volume)
    errors.push_back("attempted_volume " +
                     std::to_string(m.attempted_volume) + " != generated " +
                     std::to_string(generated.volume));
}

/// After drain every payment has exactly one final outcome, and every
/// failure sits in exactly one cause bucket.
inline void check_outcomes(const spider::SimMetrics& m, Errors& errors) {
  const std::int64_t ended =
      m.completed_count + m.expired_count + m.rejected_count;
  if (ended != m.attempted_count)
    errors.push_back("completed+expired+rejected " + std::to_string(ended) +
                     " != attempted " + std::to_string(m.attempted_count));
  const std::int64_t buckets = m.failed_timeout + m.failed_churn +
                               m.failed_fault + m.failed_no_path +
                               m.admission_refused;
  if (buckets != m.expired_count + m.rejected_count)
    errors.push_back("failure buckets " + std::to_string(buckets) +
                     " != expired+rejected " +
                     std::to_string(m.expired_count + m.rejected_count));
}

/// The per-payment records agree with the aggregate metrics.
inline void check_records(const spider::SimMetrics& m, const RecordTotals& r,
                          Errors& errors) {
  if (r.records != m.attempted_count)
    errors.push_back("payment records " + std::to_string(r.records) +
                     " != attempted " + std::to_string(m.attempted_count));
  if (r.completed != m.completed_count)
    errors.push_back("completed records " + std::to_string(r.completed) +
                     " != completed_count " +
                     std::to_string(m.completed_count));
  if (r.delivered != m.delivered_volume)
    errors.push_back("delivered records " + std::to_string(r.delivered) +
                     " != delivered_volume " +
                     std::to_string(m.delivered_volume));
}

/// Σ over every channel of both balances plus anything still in flight,
/// summed here rather than through Network::total_funds.
inline Amount channel_funds(const spider::Network& network) {
  Amount sum = 0;
  for (std::size_t e = 0; e < network.num_channels(); ++e) {
    const spider::Channel& c =
        network.channel(static_cast<spider::EdgeId>(e));
    sum += c.balance(0) + c.balance(1) + c.inflight(0) + c.inflight(1);
  }
  return sum;
}

/// Initial escrow of `graph` plus the value the churn stream adds (opens
/// and deposits).
inline Amount expected_funds(const spider::Graph& graph,
                             const std::vector<spider::TopologyChange>& churn) {
  Amount sum = 0;
  for (spider::EdgeId e = 0; e < graph.num_edges(); ++e)
    sum += graph.edge(e).capacity;
  for (const spider::TopologyChange& c : churn)
    if (c.kind != spider::TopologyChange::Kind::kClose) sum += c.amount;
  return sum;
}

inline void check_conservation(Amount funds, Amount escrow_returned,
                               Amount expected, Errors& errors) {
  if (funds + escrow_returned != expected)
    errors.push_back("money not conserved: channels " + std::to_string(funds) +
                     " + escrow_returned " + std::to_string(escrow_returned) +
                     " != expected " + std::to_string(expected));
}

/// Connected-component label per node over the open edges of `graph`.
inline std::vector<int> components(const spider::Graph& graph) {
  const auto n = static_cast<std::size_t>(graph.num_nodes());
  std::vector<int> label(n, -1);
  std::vector<NodeId> stack;
  int next = 0;
  for (std::size_t s = 0; s < n; ++s) {
    if (label[s] >= 0) continue;
    label[s] = next;
    stack.push_back(static_cast<NodeId>(s));
    while (!stack.empty()) {
      const NodeId u = stack.back();
      stack.pop_back();
      for (const auto& adj : graph.neighbors(u)) {
        int& l = label[static_cast<std::size_t>(adj.peer)];
        if (l < 0) {
          l = next;
          stack.push_back(adj.peer);
        }
      }
    }
    ++next;
  }
  return label;
}

/// One pair's candidate paths: each a simple src→dst walk over existing
/// open edges, pairwise edge-disjoint, at most k of them, and non-empty
/// exactly when the two nodes are connected.
inline void check_pair_paths(const spider::Graph& graph, NodeId src,
                             NodeId dst, std::span<const spider::Path> paths,
                             int k, bool connected, Errors& errors) {
  const std::string pair =
      "pair " + std::to_string(src) + "->" + std::to_string(dst) + ": ";
  if (static_cast<int>(paths.size()) > k)
    errors.push_back(pair + std::to_string(paths.size()) + " paths > k=" +
                     std::to_string(k));
  if (paths.empty() == connected)
    errors.push_back(pair + (connected ? "no path but nodes are connected"
                                       : "path found but nodes are not "
                                         "connected"));
  std::set<spider::EdgeId> used;
  for (const spider::Path& p : paths) {
    if (p.nodes.size() != p.edges.size() + 1 || p.edges.empty() ||
        p.nodes.front() != src || p.nodes.back() != dst) {
      errors.push_back(pair + "path is not a src->dst walk");
      continue;
    }
    std::set<spider::EdgeId> own;
    for (std::size_t i = 0; i < p.edges.size(); ++i) {
      const spider::EdgeId e = p.edges[i];
      if (e < 0 || e >= graph.num_edges() || graph.edge_closed(e)) {
        errors.push_back(pair + "path uses a missing edge");
        continue;
      }
      const auto& edge = graph.edge(e);
      const NodeId a = p.nodes[i];
      const NodeId b = p.nodes[i + 1];
      if (!((edge.a == a && edge.b == b) || (edge.a == b && edge.b == a)))
        errors.push_back(pair + "edge " + std::to_string(e) +
                         " does not join consecutive nodes");
      if (!own.insert(e).second)
        errors.push_back(pair + "path repeats edge " + std::to_string(e));
      else if (!used.insert(e).second)
        errors.push_back(pair + "paths share edge " + std::to_string(e));
    }
    const std::set<NodeId> seen(p.nodes.begin(), p.nodes.end());
    if (seen.size() != p.nodes.size())
      errors.push_back(pair + "path repeats a node");
  }
}

/// Prop. 1: no balanced routing exceeds the maximum circulation ν(C*).
inline void check_prop1(double fluid_throughput, double nu, Errors& errors) {
  const double limit =
      nu * (1.0 + kProp1RelTolerance) + kProp1AbsTolerance;
  if (!(fluid_throughput <= limit))
    errors.push_back("Spider (LP) fluid throughput " +
                     std::to_string(fluid_throughput) + " exceeds nu(C*) " +
                     std::to_string(nu));
}

/// Schemes without the transport layer never mark or pace; with it, marks
/// are a subset of the chunks sent.
inline void check_transport(const spider::SimMetrics& m, bool has_transport,
                            Errors& errors) {
  if (!has_transport && (m.chunks_marked != 0 || m.pace_rounds != 0))
    errors.push_back("transport counters non-zero without transport: "
                     "chunks_marked " + std::to_string(m.chunks_marked) +
                     ", pace_rounds " + std::to_string(m.pace_rounds));
  if (m.chunks_marked > m.chunks_sent)
    errors.push_back("chunks_marked " + std::to_string(m.chunks_marked) +
                     " > chunks_sent " + std::to_string(m.chunks_sent));
}

/// Every submitted topology change and fault event was applied.
inline void check_events(const spider::SimMetrics& m, std::size_t topology,
                         std::size_t faults, Errors& errors) {
  if (m.topology_changes != static_cast<std::int64_t>(topology))
    errors.push_back("topology_changes " +
                     std::to_string(m.topology_changes) + " != submitted " +
                     std::to_string(topology));
  if (m.faults_injected != static_cast<std::int64_t>(faults))
    errors.push_back("faults_injected " + std::to_string(m.faults_injected) +
                     " != submitted " + std::to_string(faults));
}

/// FNV-1a digest of every SimMetrics field (doubles by bit pattern) — the
/// reference fingerprint each run prints per scheme.
inline std::uint64_t metrics_digest(const spider::SimMetrics& m) {
  std::uint64_t h = 1469598103934665603ULL;
  auto mix = [&h](auto value) {
    std::uint64_t bits = 0;
    static_assert(sizeof(value) == sizeof(bits));
    std::memcpy(&bits, &value, sizeof(bits));
    for (int i = 0; i < 8; ++i) {
      h ^= (bits >> (8 * i)) & 0xFFU;
      h *= 1099511628211ULL;
    }
  };
  auto mix_stats = [&mix](const spider::RunningStats& s) {
    mix(s.count());
    mix(s.mean());
    mix(s.variance());
    mix(s.sum());
    mix(s.min());
    mix(s.max());
  };
  mix(m.attempted_count);
  mix(m.attempted_volume);
  mix(m.completed_count);
  mix(m.completed_volume);
  mix(m.delivered_volume);
  mix(m.expired_count);
  mix(m.rejected_count);
  mix(m.admission_refused);
  mix(m.chunks_sent);
  mix(m.retry_rounds);
  mix(m.events_processed);
  mix(m.plans_requested);
  mix(m.chunks_queued);
  mix(m.queue_timeouts);
  mix_stats(m.queue_wait_s);
  mix(m.queue_delay_p99_s);
  mix(m.chunks_marked);
  mix(m.pace_rounds);
  mix(m.onchain_deposited);
  mix(m.topology_changes);
  mix(m.channels_opened);
  mix(m.channels_closed);
  mix(m.chunks_churned);
  mix(m.escrow_returned);
  mix(m.faults_injected);
  mix(m.messages_dropped);
  mix(m.chunks_faulted);
  mix(m.retries);
  mix(m.deadline_misses);
  mix(m.completion_after_retry);
  mix(m.failed_timeout);
  mix(m.failed_churn);
  mix(m.failed_fault);
  mix(m.failed_no_path);
  mix(m.fees_accrued);
  mix_stats(m.completion_latency_s);
  mix_stats(m.chunk_hops);
  mix(m.final_mean_imbalance_xrp);
  mix(m.sim_duration_s);
  return h;
}

}  // namespace runbench
