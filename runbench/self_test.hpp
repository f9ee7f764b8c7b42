// Self-test of the benchmark's checks: each check runs once on a clean
// output of a small real run, where it must pass, and once on a corrupted
// copy of that output, where it must trip. A check that cannot trip proves
// nothing, so every benchmark run ends with this test.
#pragma once

#include <ostream>
#include <utility>

#include "checks.hpp"
#include "core/scenario.hpp"
#include "core/spider.hpp"
#include "fluid/circulation.hpp"
#include "routing/lp_router.hpp"

namespace runbench {

/// Runs every check on clean and corrupted inputs; logs one line per check
/// and returns how many checks failed to behave (0 = all good).
inline int run_self_test(std::ostream& log) {
  using namespace spider;
  ScenarioParams params;
  params.payments = 300;
  params.topology_seed = 1;
  params.traffic_seed = 1;
  params.shards = 1;
  const ScenarioInstance inst = build_scenario("isp", params);
  const SpiderNetwork net(inst.graph, inst.config);
  net.warm_paths(inst.trace);
  SessionOptions options;
  options.demand_hint = &inst.trace;
  SimSession session = net.session(Scheme::kSpiderWaterfilling, 7, options);
  session.submit(inst.trace);
  const SimMetrics m = session.drain();
  const PaymentTotals generated = totals_of(inst.trace);

  int bad = 0;
  auto expect = [&](const char* name, auto&& on_clean, auto&& on_corrupt) {
    Errors clean;
    Errors corrupt;
    on_clean(clean);
    on_corrupt(corrupt);
    log << "self-test " << name << ": clean input "
        << (clean.empty() ? "passes" : "FAILS (" + clean.front() + ")")
        << ", corrupted input "
        << (corrupt.empty() ? "DOES NOT TRIP" : "trips (" + corrupt.front() + ")")
        << "\n";
    if (!clean.empty() || corrupt.empty()) ++bad;
  };

  // A metrics record with one payment missing.
  SimMetrics missing = m;
  missing.attempted_count -= 1;
  missing.attempted_volume -= inst.trace.back().amount;
  expect("attempted", [&](Errors& e) { check_attempted(m, generated, e); },
         [&](Errors& e) { check_attempted(missing, generated, e); });
  expect("outcomes", [&](Errors& e) { check_outcomes(m, e); },
         [&](Errors& e) { check_outcomes(missing, e); });

  std::vector<Payment> records = session.payments();
  const RecordTotals clean_records = totals_of(records);
  records.pop_back();
  expect("records", [&](Errors& e) { check_records(m, clean_records, e); },
         [&](Errors& e) { check_records(m, totals_of(records), e); });

  // One channel balance off by one milli-unit.
  const Network& live = std::as_const(session).network();
  Network skewed = live;
  skewed.channel(0).deposit(0, 1);
  const Amount expected = expected_funds(inst.graph, inst.churn);
  expect("conservation",
         [&](Errors& e) {
           check_conservation(channel_funds(live), m.escrow_returned,
                              expected, e);
         },
         [&](Errors& e) {
           check_conservation(channel_funds(skewed), m.escrow_returned,
                              expected, e);
         });

  // A candidate path with a repeated edge, and a connected pair with none.
  const PaymentSpec& first = inst.trace.front();
  const std::span<const Path> stored =
      net.path_store()->cached(first.src, first.dst);
  Path looped = stored.front();
  looped.nodes.insert(looped.nodes.begin() + 1,
                      {looped.nodes[1], looped.nodes[0]});
  looped.edges.insert(looped.edges.begin(),
                      {looped.edges[0], looped.edges[0]});
  const std::vector<Path> corrupted_paths{looped};
  const int k = inst.config.num_paths;
  expect("paths",
         [&](Errors& e) {
           check_pair_paths(inst.graph, first.src, first.dst, stored, k, true,
                            e);
         },
         [&](Errors& e) {
           check_pair_paths(inst.graph, first.src, first.dst, corrupted_paths,
                            k, true, e);
         });
  expect("connectivity",
         [&](Errors& e) {
           check_pair_paths(inst.graph, first.src, first.dst, stored, k, true,
                            e);
         },
         [&](Errors& e) {
           check_pair_paths(inst.graph, first.src, first.dst, {}, k, true, e);
         });

  // An LP throughput above ν(C*).
  const SimSession lp = net.session(Scheme::kSpiderLp, 7, options);
  const double fluid =
      dynamic_cast<const LpRouter&>(lp.router()).fluid_throughput();
  const double nu = max_circulation_value(
      estimate_demand_matrix(inst.graph.num_nodes(), inst.trace));
  expect("prop1", [&](Errors& e) { check_prop1(fluid, nu, e); },
         [&](Errors& e) { check_prop1(nu * 1.001 + 1e-3, nu, e); });

  SimMetrics marked = m;
  marked.chunks_marked = 1;
  expect("transport", [&](Errors& e) { check_transport(m, false, e); },
         [&](Errors& e) { check_transport(marked, false, e); });

  SimMetrics extra_event = m;
  extra_event.topology_changes += 1;
  expect("events", [&](Errors& e) { check_events(m, 0, 0, e); },
         [&](Errors& e) { check_events(extra_event, 0, 0, e); });

  expect("digest",
         [&](Errors& e) {
           if (metrics_digest(m) != metrics_digest(SimMetrics(m)))
             e.push_back("digest of a copy differs");
         },
         [&](Errors& e) {
           if (metrics_digest(missing) != metrics_digest(m))
             e.push_back("digest differs from the reference run");
         });
  return bad;
}

}  // namespace runbench
