// Run benchmark of the Spider library: whole simulation runs, from scenario
// build to each scheme's final metrics, timed end to end and per layer,
// with the program's outputs checked after every timed region.
//
//   spider_runbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//
// One run repeats whole rounds of its workload until --seconds have passed;
// a round builds the inputs from the seed and runs every scheme of the
// workload once, in this single thread (shards = 1, no runner pool). An
// operation is one (round, scheme) simulation. With --trace 0 the run
// reports end-to-end metrics: set-up time of the first (cold) round from
// process start, medians over rounds of whole-run and event-loop time, and
// peak RSS. With --trace 1 it alternates untraced and traced rounds and
// reports per-layer metrics from the traced ones, writing their spans to
// .bench_out/. The last line of standard output is a JSON result; the exit
// code is non-zero if any check failed.
#include <sys/resource.h>
#include <unistd.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <iomanip>
#include <iostream>
#include <map>
#include <optional>
#include <set>
#include <sstream>
#include <string>
#include <utility>
#include <vector>

#include "checks.hpp"
#include "core/fault_schedule.hpp"
#include "core/replay.hpp"
#include "core/scenario.hpp"
#include "fluid/circulation.hpp"
#include "routing/lp_router.hpp"
#include "self_test.hpp"
#include "tracer.hpp"
#include "workload/trace_binary.hpp"
#include "workload/trace_io.hpp"

namespace runbench {
namespace {

using namespace spider;

// Every scheme any workload runs, by the kebab-case key scheme_from_name
// accepts; per-layer metrics are reported for each key on every workload
// (0 where the workload does not run the scheme).
constexpr const char* kSchemeKeys[] = {
    "spider-waterfilling", "shortest-path",     "silentwhispers",
    "speedymurmurs",       "spider-dctcp",      "backpressure",
    "spider-lp",           "spider-primal-dual", "max-flow",
};

/// One workload: a registry scenario at a size the benchmark fixes, the
/// schemes it runs, and how the payments reach the simulator.
struct Workload {
  const char* name;
  const char* scenario;
  std::vector<std::string> schemes;
  int payments;
  double tx_per_second;
  int capacity_xrp;
  NodeId nodes;
  /// Payments written once (untimed) as a CSV trace and streamed through
  /// replay_trace, instead of submitted to a session from memory.
  bool streamed = false;
  /// Channel churn stream plus a crash-storm fault schedule, with sender
  /// retries on.
  bool churn_and_faults = false;
};

// Why these four: ripple-paper is dominated by the routing/graph path warm,
// isp-stream by the sim/transport event loop and the CSV parser,
// isp-offline by lp/fluid router init, and churn-faults by topology writes,
// PathCache repair and forced terminations inside the loop (README.md).
const std::vector<Workload>& workloads() {
  static const std::vector<Workload> all = {
      {"ripple-paper", "ripple-full",
       {"spider-waterfilling", "shortest-path", "silentwhispers",
        "speedymurmurs", "spider-dctcp"},
       20000, 1000.0, 3000, 3774},
      {"isp-stream", "isp",
       {"spider-waterfilling", "shortest-path", "spider-dctcp",
        "backpressure"},
       200000, 1000.0, 3000, 32, /*streamed=*/true},
      {"isp-offline", "isp",
       {"spider-lp", "spider-primal-dual", "max-flow"},
       6000, 400.0, 3000, 32},
      {"churn-faults", "lightning-churn",
       {"spider-waterfilling", "shortest-path", "spider-dctcp",
        "speedymurmurs"},
       40000, 250.0, 500, 120, /*streamed=*/false,
       /*churn_and_faults=*/true},
  };
  return all;
}

/// The scheme whose streamed replay is compared with a batch run() of the
/// same trace in traced isp-stream runs.
constexpr Scheme kIdentityScheme = Scheme::kSpiderWaterfilling;
/// Crash-storm fault rate (stalls per simulated second) of churn-faults.
constexpr double kStallsPerSecond = 0.5;
/// A metrics window longer than any run, so the only window roll is the
/// trailing one at drain — where the replay observer reads the final
/// channel state.
constexpr Duration kFinalWindow = seconds(1e6);

std::uint64_t splitmix(std::uint64_t x) {
  x += 0x9E3779B97F4A7C15ULL;
  x = (x ^ (x >> 30)) * 0xBF58476D1CE4E5B9ULL;
  x = (x ^ (x >> 27)) * 0x94D049BB133111EBULL;
  return x ^ (x >> 31);
}

/// The topology of every workload is fixed, as the paper's are (a fixed
/// ISP backbone, a fixed Ripple snapshot); the lightning-churn channel
/// stream is drawn from the same seed, so it is fixed too. --seed draws
/// everything else: the payments, the fault schedule and the simulation's
/// own random stream. Derived seeds are never 0, which the scenario
/// registry reads as "use the default".
constexpr std::uint64_t kTopologySeed = 1;

struct Seeds {
  std::uint64_t traffic, sim, fault;
  explicit Seeds(std::uint64_t seed)
      : traffic(splitmix(seed * 3 + 0) | 1),
        sim(splitmix(seed * 3 + 1) | 1),
        fault(splitmix(seed * 3 + 2) | 1) {}
};

/// The scenario parameters, built here so no SPIDER_* variable can change
/// a workload.
ScenarioParams params_for(const Workload& w, const Seeds& seeds) {
  ScenarioParams p;
  p.payments = w.payments;
  p.tx_per_second = w.tx_per_second;
  p.capacity_xrp = w.capacity_xrp;
  p.nodes = w.nodes;
  p.topology_seed = kTopologySeed;
  p.traffic_seed = seeds.traffic;
  p.shards = 1;
  if (w.churn_and_faults) {
    p.churn_rate = 2.0;
    p.churn_mode = "uniform";
    p.retry_limit = 3;
    p.retry_backoff_ms = 100;
  }
  return p;
}

double rss_mib() {
  std::ifstream statm("/proc/self/statm");
  long pages = 0;
  long resident = 0;
  statm >> pages >> resident;
  return static_cast<double>(resident) *
         static_cast<double>(sysconf(_SC_PAGESIZE)) / (1024.0 * 1024.0);
}

double peak_rss_mib() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // KiB on Linux
}

/// Wall clock of a whole round that can be paused around untimed work
/// (writing the trace file, checks).
class RunClock {
 public:
  RunClock() : since_(Clock::now()) {}
  void pause() { total_ += seconds_between(since_, Clock::now()); }
  void resume() { since_ = Clock::now(); }
  [[nodiscard]] double stop() {
    pause();
    return total_;
  }

 private:
  Clock::time_point since_;
  double total_ = 0.0;
};

/// Counts the traced run records at the observer boundary.
class CountingObserver final : public SimObserver {
 public:
  void on_chunk_locked(const Path&, Amount, TimePoint) override { ++locked; }
  void on_chunk_settled(const Path&, Amount, TimePoint) override {
    ++settled;
  }
  void on_poll_round(std::size_t, TimePoint) override { ++polls; }
  std::int64_t locked = 0;
  std::int64_t settled = 0;
  std::int64_t polls = 0;
};

/// Collects what a streamed replay hides behind replay_trace: how many
/// payments ended and how many completed, the value settled end to end
/// (a payment's chunks may still settle after it expired, so its delivered
/// value is final only in the settles), and the channel funds at drain.
class OutcomeObserver final : public SimObserver {
 public:
  void on_payment_complete(const Payment&, TimePoint) override {
    ++records.records;
    ++records.completed;
  }
  void on_payment_failed(const Payment&, TimePoint) override {
    ++records.records;
  }
  void on_chunk_settled(const Path&, Amount amount, TimePoint) override {
    records.delivered += amount;
  }
  void on_window_roll(const WindowInfo& window,
                      const Network& network) override {
    if (window.partial) final_funds = channel_funds(network);
  }
  RecordTotals records;
  std::optional<Amount> final_funds;
};

struct SchemeRun {
  std::string key;
  SimMetrics metrics;
  double init_s = 0.0;
  double loop_s = 0.0;
  std::size_t peak_buffered = 0;
  CountingObserver counts;
};

struct Round {
  Clock::time_point start;
  bool traced = false;
  double build_s = 0.0;
  double net_s = 0.0;
  double warm_s = 0.0;
  double setup_s = 0.0;  // build + network + warm + session inits
  double sim_s = 0.0;    // event loops (submit..drain, or replay_trace)
  double run_s = 0.0;
  double parse_s = 0.0;
  std::size_t parsed = 0;
  std::size_t warm_pairs = 0;
  std::size_t warm_paths = 0;
  std::size_t topology_events = 0;
  std::size_t fault_events = 0;
  double rss_build = 0.0;
  double rss_warm = 0.0;
  double rss_sim = 0.0;
  std::vector<SchemeRun> schemes;
  std::map<std::string, double> self_s;
  std::vector<Tracer::Span> spans;
  int failed = 0;
};

class Bench {
 public:
  Bench(const Workload& w, std::uint64_t seed, std::filesystem::path out_dir)
      : w_(w), seed_(seed), seeds_(seed), out_dir_(std::move(out_dir)) {}

  ~Bench() {
    if (!csv_path_.empty()) {
      std::error_code ignored;
      std::filesystem::remove(csv_path_, ignored);
    }
  }
  Bench(const Bench&) = delete;
  Bench& operator=(const Bench&) = delete;

  Round round(bool traced) {
    Round r;
    r.start = Clock::now();
    r.traced = traced;
    std::optional<Tracer> tracer;
    if (traced) tracer.emplace(r.start);
    Tracer* tr = tracer ? &*tracer : nullptr;
    try {
      run_round(r, tr);
    } catch (const std::exception& e) {
      fail("round: " + std::string(e.what()));
      r.failed = static_cast<int>(w_.schemes.size());
    }
    if (tracer) {
      r.self_s = tracer->self_seconds();
      r.spans = tracer->spans();
    }
    return r;
  }

  [[nodiscard]] const std::vector<std::string>& errors() const {
    return errors_;
  }

 private:
  void fail(const std::string& message) {
    if (errors_.size() < 50) errors_.push_back(message);
  }

  void run_round(Round& r, Tracer* tr) {
    RunClock clock;
    std::optional<SpanScope> root;
    root.emplace(tr, "workload", w_.name);
    Clock::time_point t = Clock::now();
    ScenarioInstance inst;
    {
      SpanScope span(tr, "build_scenario", w_.scenario);
      inst = build_scenario(w_.scenario, params_for(w_, seeds_));
      inst.config.shards = 1;
      if (w_.churn_and_faults) {
        FaultScheduleConfig faults;
        faults.mode = FaultMode::kCrashStorm;
        faults.events_per_second = kStallsPerSecond;
        faults.start = inst.trace.back().arrival / 10;
        faults.stop = inst.trace.back().arrival;
        faults.stall_mean = seconds(1.0);
        faults.seed = seeds_.fault;
        inst.faults = FaultSchedule(inst.graph, faults).generate();
      }
    }
    r.build_s = seconds_between(t, Clock::now());
    r.rss_build = rss_mib();
    r.topology_events = inst.churn.size();
    r.fault_events = inst.faults.size();

    clock.pause();
    const PaymentTotals generated = totals_of(inst.trace);
    if (w_.streamed && csv_path_.empty()) {
      std::filesystem::create_directories(out_dir_);
      csv_path_ = (out_dir_ / (std::string(w_.name) + "-seed" +
                               std::to_string(seed_) + "-pid" +
                               std::to_string(getpid()) + ".csv"))
                      .string();
      write_trace_csv(csv_path_, inst.trace);
    }
    clock.resume();

    t = Clock::now();
    std::optional<SpiderNetwork> net;
    {
      SpanScope span(tr, "spider_network");
      net.emplace(inst.graph, inst.config);
    }
    r.net_s = seconds_between(t, Clock::now());

    const bool any_store =
        std::any_of(w_.schemes.begin(), w_.schemes.end(),
                    [](const std::string& key) {
                      return scheme_uses_path_store(scheme_from_name(key));
                    });
    if (any_store) {
      t = Clock::now();
      {
        SpanScope span(tr, "warm_paths");
        net->warm_paths(inst.trace);
      }
      r.warm_s = seconds_between(t, Clock::now());
      clock.pause();
      check_store(*net, inst, r);
      clock.resume();
    }
    r.rss_warm = rss_mib();
    r.setup_s = r.build_s + r.net_s + r.warm_s;

    for (const std::string& key : w_.schemes) {
      SchemeRun run;
      run.key = key;
      Errors errs;
      try {
        if (w_.streamed)
          run_streamed(*net, inst, run, errs, clock, tr);
        else
          run_session(*net, inst, run, errs, clock, tr);
        check_common(run, generated, inst, errs);
      } catch (const std::exception& e) {
        errs.push_back(std::string("threw: ") + e.what());
      }
      clock.pause();
      if (!errs.empty()) {
        ++r.failed;
        for (const std::string& e : errs) fail(key + ": " + e);
      }
      clock.resume();
      r.setup_s += run.init_s;
      r.sim_s += run.loop_s;
      r.schemes.push_back(std::move(run));
    }
    r.run_s = clock.stop();
    r.rss_sim = rss_mib();

    if (tr != nullptr && w_.streamed) {
      parse_pass(inst, r, tr);
      root.reset();
      check_identity(*net, inst, r);
    }
  }

  void run_session(const SpiderNetwork& net, const ScenarioInstance& inst,
                   SchemeRun& run, Errors& errs, RunClock& clock,
                   Tracer* tr) {
    const Scheme scheme = scheme_from_name(run.key);
    SessionOptions options;
    options.demand_hint = &inst.trace;
    Clock::time_point t = Clock::now();
    std::optional<SimSession> session;
    {
      SpanScope span(tr, "session", run.key);
      session.emplace(net.session(scheme, seeds_.sim, options));
    }
    run.init_s = seconds_between(t, Clock::now());
    if (tr != nullptr) session->attach(run.counts);

    t = Clock::now();
    {
      SpanScope span(tr, "submit", run.key);
      session->submit_topology(inst.churn);
      session->submit_faults(inst.faults);
      session->submit(inst.trace);
    }
    {
      SpanScope span(tr, "drain", run.key);
      run.metrics = session->drain();
    }
    run.loop_s = seconds_between(t, Clock::now());

    clock.pause();
    const SimSession& done = *session;
    check_records(run.metrics, totals_of(done.payments()), errs);
    check_conservation(channel_funds(done.network()),
                       run.metrics.escrow_returned,
                       expected_funds(inst.graph, inst.churn), errs);
    if (scheme == Scheme::kSpiderLp) {
      const auto* lp = dynamic_cast<const LpRouter*>(&done.router());
      if (lp == nullptr)
        errs.push_back("Spider (LP) session has no LpRouter");
      else
        check_prop1(lp->fluid_throughput(), circulation_value(inst), errs);
    }
    clock.resume();
  }

  void run_streamed(const SpiderNetwork& net, const ScenarioInstance& inst,
                    SchemeRun& run, Errors& errs, RunClock& clock,
                    Tracer* tr) {
    const Scheme scheme = scheme_from_name(run.key);
    if (tr != nullptr) {
      // replay_trace opens its session internally; a traced run times one
      // extra, discarded session open to report the router init alone.
      clock.pause();
      SessionOptions options;
      options.demand_hint = &inst.trace;
      const Clock::time_point t = Clock::now();
      {
        SpanScope span(tr, "session", run.key);
        const SimSession probe = net.session(scheme, seeds_.sim, options);
      }
      run.init_s = seconds_between(t, Clock::now());
      clock.resume();
    }
    OutcomeObserver outcome;
    ReplayOptions options;
    options.demand_hint = &inst.trace;
    options.metrics_window = kFinalWindow;
    options.observers.push_back(&outcome);
    if (tr != nullptr) options.observers.push_back(&run.counts);
    const Clock::time_point t = Clock::now();
    ReplayResult result;
    {
      SpanScope span(tr, "replay_trace", run.key);
      const std::unique_ptr<TraceSource> reader = open_trace_source(csv_path_);
      result = replay_trace(net, scheme, seeds_.sim, *reader, options);
    }
    run.loop_s = seconds_between(t, Clock::now());
    run.metrics = result.metrics;
    run.peak_buffered = result.peak_buffered;

    clock.pause();
    if (result.payments != inst.trace.size())
      errs.push_back("replayed " + std::to_string(result.payments) +
                     " payments of " + std::to_string(inst.trace.size()));
    check_records(run.metrics, outcome.records, errs);
    if (!outcome.final_funds)
      errs.push_back("no drain-time window: channel funds unread");
    else
      check_conservation(*outcome.final_funds, run.metrics.escrow_returned,
                         expected_funds(inst.graph, inst.churn), errs);
    clock.resume();
  }

  /// Checks every scheme's metrics get, whatever drove the run.
  void check_common(const SchemeRun& run, const PaymentTotals& generated,
                    const ScenarioInstance& inst, Errors& errs) {
    const SimMetrics& m = run.metrics;
    check_attempted(m, generated, errs);
    check_outcomes(m, errs);
    const Scheme scheme = scheme_from_name(run.key);
    check_transport(m,
                    scheme_requires_transport(scheme) ||
                        inst.config.sim.transport.enabled,
                    errs);
    check_events(m, inst.churn.size(), inst.faults.size(), errs);
    const std::uint64_t digest = metrics_digest(m);
    const auto [it, first] = digests_.emplace(run.key, digest);
    if (!first && it->second != digest)
      errs.push_back("metrics differ from the first round's (digest)");
  }

  /// Every warmed candidate path against the benchmark's own graph walk.
  void check_store(const SpiderNetwork& net, const ScenarioInstance& inst,
                   Round& r) {
    const PathCache* store = net.path_store();
    if (store == nullptr) {
      fail("warm_paths left no path store");
      return;
    }
    r.warm_pairs = store->pair_count();
    r.warm_paths = store->path_count();
    const std::vector<int> comp = components(inst.graph);
    std::set<std::pair<NodeId, NodeId>> pairs;
    for (const PaymentSpec& p : inst.trace)
      if (p.src != p.dst) pairs.emplace(p.src, p.dst);
    Errors errs;
    for (const auto& [src, dst] : pairs) {
      if (!store->contains(src, dst)) {
        errs.push_back("pair " + std::to_string(src) + "->" +
                       std::to_string(dst) + " was not warmed");
        continue;
      }
      check_pair_paths(inst.graph, src, dst, store->cached(src, dst),
                       store->k(),
                       comp[static_cast<std::size_t>(src)] ==
                           comp[static_cast<std::size_t>(dst)],
                       errs);
      if (errs.size() > 10) break;
    }
    if (store->k() != inst.config.num_paths)
      errs.push_back("store k " + std::to_string(store->k()) +
                     " != configured " +
                     std::to_string(inst.config.num_paths));
    for (const std::string& e : errs) fail("paths: " + e);
    if (!errs.empty()) throw std::runtime_error("candidate paths invalid");
  }

  /// ν(C*) of the trace's estimated demand matrix, computed once per
  /// process (every round of a run has the same inputs).
  double circulation_value(const ScenarioInstance& inst) {
    if (!nu_)
      nu_ = max_circulation_value(
          estimate_demand_matrix(inst.graph.num_nodes(), inst.trace));
    return *nu_;
  }

  /// Pure parse pass of the trace file (traced runs, streamed workloads).
  void parse_pass(const ScenarioInstance& inst, Round& r, Tracer* tr) {
    const Clock::time_point t = Clock::now();
    {
      SpanScope span(tr, "parse");
      const std::unique_ptr<TraceSource> reader = open_trace_source(csv_path_);
      while (true) {
        const std::span<const PaymentSpec> chunk = reader->next();
        if (chunk.empty()) break;
        r.parsed += chunk.size();
      }
    }
    r.parse_s = seconds_between(t, Clock::now());
    if (r.parsed != inst.trace.size())
      fail("parse pass read " + std::to_string(r.parsed) + " payments of " +
           std::to_string(inst.trace.size()));
  }

  /// Streamed replay and batch run() are two paths to one answer.
  void check_identity(const SpiderNetwork& net, const ScenarioInstance& inst,
                      const Round& r) {
    for (const SchemeRun& run : r.schemes) {
      if (scheme_from_name(run.key) != kIdentityScheme) continue;
      const SimMetrics batch = net.run(kIdentityScheme, inst.trace, seeds_.sim);
      if (!(batch == run.metrics))
        fail(run.key + ": streamed replay_trace metrics differ from batch "
             "run() of the same trace");
      return;
    }
    fail("identity check: scheme not in workload");
  }

  const Workload& w_;
  std::uint64_t seed_;
  Seeds seeds_;
  std::filesystem::path out_dir_;
  std::string csv_path_;
  std::optional<double> nu_;
  std::map<std::string, std::uint64_t> digests_;
  std::vector<std::string> errors_;
};

double median(std::vector<double> v) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const std::size_t n = v.size();
  return n % 2 == 1 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

struct Metric {
  double value;
  std::string unit;
};
using Metrics = std::vector<std::pair<std::string, Metric>>;

/// The per-layer metrics of one traced round, in a fixed order and with a
/// fixed name set on every workload.
Metrics layer_metrics(const Round& r) {
  Metrics out;
  auto add = [&out](std::string name, double value, const char* unit) {
    out.emplace_back(std::move(name), Metric{value, unit});
  };
  std::int64_t churned = 0;
  std::int64_t faulted = 0;
  for (const SchemeRun& s : r.schemes) {
    churned += s.metrics.chunks_churned;
    faulted += s.metrics.chunks_faulted;
  }
  add("core.build_s", r.build_s, "s");
  add("workload.parse_s", r.parse_s, "s");
  add("workload.parse_payments_per_s",
      r.parse_s > 0 ? static_cast<double>(r.parsed) / r.parse_s : 0.0, "1/s");
  add("routing.warm_s", r.warm_s, "s");
  add("routing.warm_pairs", static_cast<double>(r.warm_pairs), "count");
  add("routing.warm_paths", static_cast<double>(r.warm_paths), "count");
  add("routing.warm_us_per_pair",
      r.warm_pairs > 0 ? r.warm_s * 1e6 / static_cast<double>(r.warm_pairs)
                       : 0.0,
      "us");
  add("sim.topology_changes", static_cast<double>(r.topology_events),
      "count");
  add("sim.faults_injected", static_cast<double>(r.fault_events), "count");
  add("sim.chunks_churned", static_cast<double>(churned), "count");
  add("sim.chunks_faulted", static_cast<double>(faulted), "count");
  add("mem.rss_after_build_mib", r.rss_build, "MiB");
  add("mem.rss_after_warm_mib", r.rss_warm, "MiB");
  add("mem.rss_after_sim_mib", r.rss_sim, "MiB");
  for (const char* span : {"workload", "build_scenario", "spider_network",
                           "warm_paths", "session", "submit", "drain",
                           "replay_trace", "parse"}) {
    const auto it = r.self_s.find(span);
    add(std::string("trace.self_s.") + span,
        it == r.self_s.end() ? 0.0 : it->second, "s");
  }
  for (const std::string key : kSchemeKeys) {
    const SchemeRun* s = nullptr;
    for (const SchemeRun& run : r.schemes)
      if (run.key == key) s = &run;
    const SimMetrics m = s != nullptr ? s->metrics : SimMetrics{};
    const double events = static_cast<double>(m.events_processed);
    const double plans = static_cast<double>(m.plans_requested);
    const double locked = s != nullptr ? static_cast<double>(s->counts.locked)
                                       : 0.0;
    add("routing.init_s." + key, s != nullptr ? s->init_s : 0.0, "s");
    add("sim.loop_s." + key, s != nullptr ? s->loop_s : 0.0, "s");
    add("sim.events." + key, events, "count");
    add("sim.ns_per_event." + key,
        events > 0 ? s->loop_s * 1e9 / events : 0.0, "ns");
    add("routing.plans." + key, plans, "count");
    add("routing.chunks_per_plan." + key,
        plans > 0 ? static_cast<double>(m.chunks_sent) / plans : 0.0,
        "ratio");
    add("sim.settled_per_locked." + key,
        locked > 0 ? static_cast<double>(s->counts.settled) / locked : 0.0,
        "ratio");
    add("sim.poll_rounds." + key,
        s != nullptr ? static_cast<double>(s->counts.polls) : 0.0, "count");
    if (key == "spider-dctcp") {
      add("transport.chunks_marked." + key,
          static_cast<double>(m.chunks_marked), "count");
      add("transport.pace_rounds." + key, static_cast<double>(m.pace_rounds),
          "count");
    }
  }
  for (const char* key : {"spider-waterfilling", "shortest-path",
                          "spider-dctcp", "speedymurmurs"}) {
    double retries = 0.0;
    for (const SchemeRun& run : r.schemes)
      if (run.key == key) retries = static_cast<double>(run.metrics.retries);
    add(std::string("sim.retries.") + key, retries, "count");
  }
  for (const char* key : {"spider-waterfilling", "shortest-path",
                          "spider-dctcp", "backpressure"}) {
    double buffered = 0.0;
    for (const SchemeRun& run : r.schemes)
      if (run.key == key) buffered = static_cast<double>(run.peak_buffered);
    add(std::string("core.replay_peak_buffered.") + key, buffered, "count");
  }
  return out;
}

std::string json_number(double v) {
  if (!std::isfinite(v)) return "0";
  char buf[64];
  std::snprintf(buf, sizeof buf, "%.17g", v);
  return buf;
}

void print_result(bool correct, std::int64_t attempted, std::int64_t failed,
                  const Metrics& metrics) {
  std::cout << "{\"correct\": " << (correct ? "true" : "false")
            << ", \"attempted\": " << attempted << ", \"failed\": " << failed
            << ", \"metrics\": {";
  for (std::size_t i = 0; i < metrics.size(); ++i) {
    const auto& [name, m] = metrics[i];
    std::cout << (i ? ", " : "") << "\"" << name << "\": {\"value\": "
              << json_number(m.value) << ", \"unit\": \"" << m.unit << "\"}";
  }
  std::cout << "}}" << std::endl;
}

struct Args {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
};

std::optional<Args> parse_args(int argc, char** argv) {
  Args a;
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    if (i + 1 >= argc) return std::nullopt;
    const std::string value = argv[++i];
    try {
      if (flag == "--workload")
        a.workload = value;
      else if (flag == "--seed")
        a.seed = std::stoull(value);
      else if (flag == "--seconds")
        a.seconds = std::stod(value);
      else if (flag == "--trace")
        a.trace = std::stoi(value) != 0;
      else
        return std::nullopt;
    } catch (const std::exception&) {
      return std::nullopt;
    }
  }
  if (a.workload.empty()) return std::nullopt;
  return a;
}

int run(const Args& args, Clock::time_point process_start) {
  const Workload* workload = nullptr;
  for (const Workload& w : workloads())
    if (args.workload == w.name) workload = &w;
  if (workload == nullptr) {
    std::cerr << "unknown workload '" << args.workload << "' (expected";
    for (const Workload& w : workloads()) std::cerr << " " << w.name;
    std::cerr << ")\n";
    return 2;
  }
  const std::filesystem::path out_dir = ".bench_out";
  Bench bench(*workload, args.seed, out_dir);

  std::vector<Round> rounds;
  const Clock::time_point measure_start = Clock::now();
  do {
    rounds.push_back(bench.round(false));
    if (args.trace) rounds.push_back(bench.round(true));
  } while (seconds_between(measure_start, Clock::now()) < args.seconds);
  const double peak_rss = peak_rss_mib();

  std::ostringstream self_log;
  const int self_test_bad = run_self_test(self_log);

  std::int64_t attempted = 0;
  std::int64_t failed = 0;
  std::vector<double> run_s;
  std::vector<double> sim_s;
  std::vector<double> traced_sim_s;
  for (const Round& r : rounds) {
    attempted += static_cast<std::int64_t>(workload->schemes.size());
    failed += r.failed;
    (r.traced ? traced_sim_s : sim_s).push_back(r.sim_s);
    if (!r.traced) run_s.push_back(r.run_s);
  }
  const bool correct =
      failed == 0 && bench.errors().empty() && self_test_bad == 0;

  std::cout << "workload " << workload->name << " seed " << args.seed
            << " rounds " << rounds.size() << " (" << workload->scenario
            << ", " << workload->payments << " payments)\n";
  const Round& first = rounds.front();
  for (const SchemeRun& s : first.schemes) {
    std::cout << "scheme " << s.key << " success_ratio "
              << s.metrics.success_ratio() << " success_volume "
              << s.metrics.success_volume() << " events "
              << s.metrics.events_processed << " digest " << std::hex
              << metrics_digest(s.metrics) << std::dec << "\n";
  }
  std::cout << self_log.str();
  for (const std::string& e : bench.errors())
    std::cout << "CHECK FAILED " << e << "\n";

  Metrics metrics;
  if (!args.trace) {
    // One cold set-up per process, deliberately not a median over rounds:
    // later set-ups run warm, so they hide work only the first one pays.
    const double setup =
        seconds_between(process_start, first.start) + first.setup_s;
    metrics = {{"run_s", {median(run_s), "s"}},
               {"setup_s", {setup, "s"}},
               {"sim_s", {median(sim_s), "s"}},
               {"peak_rss_mib", {peak_rss, "MiB"}}};
  } else {
    std::map<std::string, std::vector<double>> values;
    Metrics order;
    const Round* last_traced = nullptr;
    for (const Round& r : rounds) {
      if (!r.traced) continue;
      last_traced = &r;
      for (const auto& [name, m] : layer_metrics(r)) {
        if (values[name].empty()) order.emplace_back(name, m);
        values[name].push_back(m.value);
      }
    }
    for (auto& [name, m] : order) m.value = median(values[name]);
    order.emplace_back(
        "trace.overhead_s",
        Metric{median(traced_sim_s) - median(sim_s), "s"});
    metrics = std::move(order);

    std::filesystem::create_directories(out_dir);
    const std::filesystem::path trace_file =
        out_dir / (std::string("trace-") + workload->name + "-seed" +
                   std::to_string(args.seed) + ".json");
    std::ofstream os(trace_file);
    os << std::setprecision(9) << "{\"workload\": \"" << workload->name
       << "\", \"seed\": " << args.seed << ",\n\"spans\": ";
    write_spans_json(os, last_traced != nullptr ? last_traced->spans
                                                 : std::vector<Tracer::Span>{});
    os << ",\n\"metrics\": {";
    for (std::size_t i = 0; i < metrics.size(); ++i)
      os << (i ? ",\n  " : "\n  ") << "\"" << metrics[i].first
         << "\": " << json_number(metrics[i].second.value);
    os << "}}\n";
    std::cout << "trace written to " << trace_file.string() << "\n";
  }
  for (const auto& [name, m] : metrics)
    std::cout << "metric " << name << " " << json_number(m.value) << " "
              << m.unit << "\n";
  print_result(correct, attempted, failed, metrics);
  return correct ? 0 : 1;
}

}  // namespace
}  // namespace runbench

int main(int argc, char** argv) {
  const auto process_start = runbench::Clock::now();
  const std::optional<runbench::Args> args = runbench::parse_args(argc, argv);
  if (!args) {
    std::cerr << "usage: spider_runbench --workload <name> --seed <n> "
                 "--seconds <s> --trace <0|1>\n";
    return 2;
  }
  try {
    return runbench::run(*args, process_start);
  } catch (const std::exception& e) {
    std::cerr << "spider_runbench: " << e.what() << "\n";
    return 1;
  }
}
