// perfbench — the repository's benchmark driver.
//
//   perfbench run --workload NAME --seed N --seconds S --trace 0|1
//                 [--out DIR] [--commit ID] [--start-ns T]
//   perfbench selftest
//
// `run` makes whole rounds of one workload (round_seed(N, r) for round r; the
// round count follows from S, see Workload::seconds_per_round), checks every
// round, and prints as its last line one JSON object: flows attempted and
// failed, and with --trace 0 the end-to-end metrics (setup_s from the
// process's start, T in steady_clock nanoseconds when the caller passes it,
// to the end of the warm-up rounds; the rest over the rounds after them).
// The worker pool is sized to the workload's threads. --trace 1
// instead runs each round untraced and then traced, prints the per-layer
// metrics of the traced rounds and writes their spans to DIR. perfbench/run.py
// builds this binary and is the command to use; README.md describes the
// workloads and metrics.
#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <optional>
#include <string>
#include <utility>
#include <vector>

#include "exp/output.h"
#include "round.h"
#include "sim/worker_pool.h"
#include "topo/graph.h"
#include "topo/opera_topology.h"

namespace perfbench {

int selftest();

namespace {

using namespace opera;

struct Args {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  std::string out = ".bench_out";
  std::string commit = "unknown";
  std::optional<Clock::time_point> start;  // when the caller spawned the process
};

int usage() {
  std::fprintf(stderr,
               "usage: perfbench run --workload NAME --seed N --seconds S --trace 0|1 "
               "[--out DIR] [--commit ID] [--start-ns T]\n"
               "       perfbench selftest\nworkloads:");
  for (const auto& w : all_workloads()) std::fprintf(stderr, " %s", w.name);
  std::fputc('\n', stderr);
  return 2;
}

std::optional<Args> parse(int argc, char** argv) {
  Args a;
  for (int i = 2; i + 1 < argc; i += 2) {
    const std::string key = argv[i];
    const char* v = argv[i + 1];
    if (key == "--workload") a.workload = v;
    else if (key == "--seed") a.seed = std::strtoull(v, nullptr, 10);
    else if (key == "--seconds") a.seconds = std::atof(v);
    else if (key == "--trace") a.trace = std::strcmp(v, "0") != 0;
    else if (key == "--out") a.out = v;
    else if (key == "--commit") a.commit = v;
    else if (key == "--start-ns")
      a.start = Clock::time_point(std::chrono::nanoseconds(std::strtoll(v, nullptr, 10)));
    else return std::nullopt;
  }
  if (argc % 2 != 0 || a.workload.empty() || a.seconds <= 0.0) return std::nullopt;
  return a;
}

double median(std::vector<double> v) {
  std::sort(v.begin(), v.end());
  const std::size_t n = v.size();
  return n % 2 == 1 ? v[n / 2] : (v[n / 2 - 1] + v[n / 2]) / 2.0;
}

template <typename F>
double median_of(const std::vector<Round>& rounds, F f) {
  std::vector<double> v;
  for (const auto& r : rounds) v.push_back(f(r));
  return median(std::move(v));
}

// Mean over `rounds` of f: the run's total divided by its rounds. A shared
// host runs this process at two thirds of its speed for stretches of a few
// seconds; a median over rounds picks whichever speed held most of a run, a
// mean weighs both by how long they held.
template <typename F>
double mean_of(const std::vector<Round>& rounds, F f) {
  double sum = 0.0;
  for (const auto& r : rounds) sum += f(r);
  return sum / static_cast<double>(rounds.size());
}

// Host time of one round from generation to report, its fabric build
// included: a round on a shared fabric is charged the session's one build.
double wall_s(const std::vector<Round>& rounds, double shared_build_s) {
  return mean_of(rounds, [shared_build_s](const Round& r) {
    return r.gen_s + (r.build_s > 0.0 ? r.build_s : shared_build_s) + r.run_s + r.report_s;
  });
}

// Builds the "metrics" object: {"name": {"value": v, "unit": "u"}, ...}.
class Metrics {
 public:
  void add(const char* name, double value, const char* unit) {
    char buf[256];
    std::snprintf(buf, sizeof buf, "%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}",
                  json_.empty() ? "" : ", ", name, value, unit);
    json_ += buf;
  }
  [[nodiscard]] std::string json() const { return "{" + json_ + "}"; }

 private:
  std::string json_;
};

// Standalone topo costs with the workload's parameters: one factorization,
// and the median of a few per-slice ECMP table builds (packet engines).
struct TopoCosts {
  double factorize_s = 0.0;
  double slice_table_ms = 0.0;
};

TopoCosts measure_topo(const Workload& w, Tracer& tracer) {
  TopoCosts c;
  const auto t0 = Clock::now();
  std::optional<topo::OperaTopology> topology;
  {
    ScopedSpan span(&tracer, "topo.factorize");
    topology.emplace(w.fabric.opera);
  }
  c.factorize_s = seconds_between(t0, Clock::now());
  if (w.fabric.engine != core::EngineKind::kPacket) return c;
  std::vector<double> ms;
  for (int slice = 0; slice < 5; ++slice) {
    const auto t = Clock::now();
    ScopedSpan span(&tracer, "topo.slice_table");
    const auto table = topo::all_pairs_ecmp_next_hops(topology->slice_graph(slice));
    ms.push_back(seconds_between(t, Clock::now()) * 1e3);
  }
  c.slice_table_ms = median(std::move(ms));
  return c;
}

void add_layer_metrics(Metrics& m, const std::vector<Round>& traced,
                       const std::vector<Round>& untraced, const TopoCosts& topo) {
  const Layers& l = traced.back().layers;
  const auto med = [&](auto f) { return median_of(traced, f); };
  const double run_s = med([](const Round& r) { return r.run_s; });
  m.add("workload.gen_s", med([](const Round& r) { return r.gen_s; }), "s");
  m.add("workload.flows", static_cast<double>(l.flows), "count");
  m.add("workload.gbytes", l.gbytes, "GB");
  m.add("topo.factorize_s", topo.factorize_s, "s");
  m.add("topo.slice_table_ms", topo.slice_table_ms, "ms");
  m.add("topo.slice_table_builds", static_cast<double>(l.slice_table_builds), "count");
  m.add("topo.slice_table_evictions", static_cast<double>(l.slice_table_evictions), "count");
  m.add("topo.slice_table_peak_mb", l.slice_table_peak_mb, "MB");
  std::vector<double> builds;  // rounds that built (one on a shared fabric)
  for (const auto& r : traced) {
    if (r.build_s > 0.0) builds.push_back(r.build_s);
  }
  m.add("core.build_s", median(std::move(builds)), "s");
  m.add("core.submit_s", med([](const Round& r) { return r.submit_s; }), "s");
  m.add("core.run_s", run_s, "s");
  m.add("sim.events", static_cast<double>(l.events), "count");
  m.add("sim.events_per_s", static_cast<double>(l.events) / run_s, "1/s");
  m.add("sim.ns_per_event", run_s * 1e9 / static_cast<double>(std::max<std::uint64_t>(l.events, 1)),
        "ns");
  m.add("sim.shards", l.shards, "count");
  m.add("sim.sim_ms", l.sim_ms, "ms");
  m.add("sim.sim_ms_per_s", l.sim_ms / run_s, "ms/s");
  m.add("net.tor_trims", static_cast<double>(l.tor_trims), "count");
  m.add("net.tor_drops", static_cast<double>(l.tor_drops), "count");
  m.add("net.forward_drops", static_cast<double>(l.forward_drops), "count");
  m.add("net.host_trims", static_cast<double>(l.host_trims), "count");
  m.add("net.host_drops", static_cast<double>(l.host_drops), "count");
  m.add("transport.ndp_flows", static_cast<double>(l.ndp_flows), "count");
  m.add("transport.bulk_flows", static_cast<double>(l.bulk_flows), "count");
  m.add("transport.delivered_gb", l.delivered_gb, "GB");
  m.add("transport.ndp_fct_p50_us", l.ndp_fct_p50_us, "us");
  m.add("transport.ndp_fct_p99_us", l.ndp_fct_p99_us, "us");
  m.add("transport.bulk_fct_p50_us", l.bulk_fct_p50_us, "us");
  m.add("transport.makespan_ms", l.makespan_ms, "ms");
  m.add("transport.voq_mb", l.voq_mb, "MB");
  m.add("fluid.direct_gb", l.fluid_direct_gb, "GB");
  m.add("fluid.vlb_gb", l.fluid_vlb_gb, "GB");
  m.add("fluid.intra_gb", l.fluid_intra_gb, "GB");
  m.add("fluid.events", static_cast<double>(l.fluid_events), "count");
  m.add("exp.report_s", med([](const Round& r) { return r.report_s; }), "s");
  // Builds are left out: the untraced session's is the process's cold one.
  const auto round_work = [](const std::vector<Round>& rounds) {
    return median_of(rounds, [](const Round& r) { return r.gen_s + r.run_s + r.report_s; });
  };
  m.add("trace.overhead_pct", 100.0 * (round_work(traced) / round_work(untraced) - 1.0), "%");
}

int run(const Args& a, Clock::time_point origin) {
  const Workload* w = find_workload(a.workload);
  if (w == nullptr) {
    std::fprintf(stderr, "perfbench: unknown workload '%s'\n", a.workload.c_str());
    return usage();
  }
  // The process-wide pool reads OPERA_POOL_THREADS once, at its first use,
  // which is after this: slice-table builds then use as many cores as the
  // workload's shards, whatever the machine's core count.
  const std::string pool = std::to_string(w->fabric.threads);
  ::setenv("OPERA_POOL_THREADS", pool.c_str(), 1);  // NOLINT(concurrency-mt-unsafe)
  const auto start = a.start.value_or(origin);
  std::printf("# perfbench workload=%s seed=%llu seconds=%g trace=%d threads=%d pool=%u "
              "commit=%s\n",
              w->name, static_cast<unsigned long long>(a.seed), a.seconds, a.trace ? 1 : 0,
              w->fabric.threads, sim::WorkerPool::shared().size(), a.commit.c_str());
  std::printf("# fabric: %s, engine %s\n", w->fabric.describe().c_str(),
              core::engine_kind_name(w->fabric.engine));

  std::optional<Tracer> tracer;
  TopoCosts topo;
  if (a.trace) {
    tracer.emplace(origin);
    topo = measure_topo(*w, *tracer);
  }

  std::vector<Round> untraced;
  std::vector<Round> traced;
  std::vector<Round> warmup;
  bool correct = true;
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  const auto tally = [&](const Round& r, std::uint64_t seed, const char* mode) {
    attempted += r.check.attempted;
    failed += r.check.failed;
    correct = correct && r.check.correct();
    for (const auto& v : r.check.violations) {
      std::fprintf(stderr, "perfbench: %s seed %llu: %s\n", w->name,
                   static_cast<unsigned long long>(seed), v.c_str());
    }
    std::printf("# round %s seed=%llu flows=%llu failed=%llu gen_s=%.4f build_s=%.4f "
                "run_s=%.4f report_s=%.4f check_s=%.4f sim_ms=%.3f events=%llu "
                "digest=%016llx\n",
                mode, static_cast<unsigned long long>(seed),
                static_cast<unsigned long long>(r.check.attempted),
                static_cast<unsigned long long>(r.check.failed), r.gen_s, r.build_s, r.run_s,
                r.report_s, r.check_s, r.layers.sim_ms,
                static_cast<unsigned long long>(r.layers.events),
                static_cast<unsigned long long>(r.digest));
  };
  // The traced rounds run on a session of their own, so each traced round
  // repeats its untraced twin exactly and the digests must agree.
  Session plain(*w);
  Session traced_session(*w);
  // A traced run makes half as many untraced + traced pairs, so that it
  // takes about as long as an untraced one; an untraced run's first
  // warmup_rounds of them are its warm-up.
  const long rounds =
      std::max(2L + w->warmup_rounds, std::lround(a.seconds / w->seconds_per_round));
  const auto n = static_cast<std::uint64_t>(tracer ? std::max(1L, rounds / 2) : rounds);
  const auto warm = static_cast<std::uint64_t>(tracer ? 0 : w->warmup_rounds);
  double setup_s = 0.0;
  for (std::uint64_t i = 0; i < n; ++i) {
    const std::uint64_t seed = round_seed(a.seed, i);
    (i < warm ? warmup : untraced).push_back(plain.run_round(seed));
    const Round& r = i < warm ? warmup.back() : untraced.back();
    tally(r, seed, i < warm ? "warmup" : "untraced");
    if (i + 1 == warm) setup_s = seconds_between(start, Clock::now());
    if (tracer) {
      traced.push_back(traced_session.run_round(seed, {&*tracer, {}}));
      tally(traced.back(), seed, "traced");
      if (traced.back().digest != untraced.back().digest) {
        std::fprintf(stderr, "perfbench: tracing changed the simulation (seed %llu)\n",
                     static_cast<unsigned long long>(seed));
        correct = false;
      }
    }
  }

  Metrics m;
  if (tracer) {
    add_layer_metrics(m, traced, untraced, topo);
    const std::string path =
        a.out + "/spans-" + w->name + "-seed" + std::to_string(a.seed) + ".json";
    char meta[512];
    std::snprintf(meta, sizeof meta,
                  "{\"workload\": \"%s\", \"seed\": %llu, \"threads\": %d, "
                  "\"commit\": \"%s\", \"rounds\": %zu}",
                  w->name, static_cast<unsigned long long>(a.seed), w->fabric.threads,
                  a.commit.c_str(), traced.size());
    if (!tracer->write_json(path, meta)) {
      std::fprintf(stderr, "perfbench: cannot write %s\n", path.c_str());
      return 1;
    }
    std::printf("# spans: %s\n", path.c_str());
  } else {
    const double run_s = mean_of(untraced, [](const Round& r) { return r.run_s; });
    m.add("setup_s", setup_s, "s");
    m.add("run_s", run_s, "s");
    m.add("wall_s", wall_s(untraced, warmup.front().build_s), "s");
    m.add("goodput_gb_per_s", mean_of(untraced, [](const Round& r) {
            return static_cast<double>(r.completed_bytes) / 1e9;
          }) / run_s, "GB/s");
    m.add("peak_rss_mb", static_cast<double>(exp::peak_rss_bytes()) / 1e6, "MB");
  }
  std::printf("# rounds: %zu warm-up + %zu\n", warmup.size(), untraced.size());
  std::printf("{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, \"metrics\": %s}\n",
              correct ? "true" : "false", static_cast<unsigned long long>(attempted),
              static_cast<unsigned long long>(failed), m.json().c_str());
  std::fflush(stdout);
  return 0;
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) {
  const auto origin = perfbench::Clock::now();
  if (argc >= 2 && std::strcmp(argv[1], "selftest") == 0) return perfbench::selftest();
  if (argc < 2 || std::strcmp(argv[1], "run") != 0) return perfbench::usage();
  const auto args = perfbench::parse(argc, argv);
  if (!args) return perfbench::usage();
  return perfbench::run(*args, origin);
}
