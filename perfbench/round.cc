#include "round.h"

#include <algorithm>
#include <limits>
#include <memory>
#include <span>
#include <string>

#include "core/opera_network.h"
#include "exp/output.h"
#include "fluid/fluid_network.h"
#include "sim/stats.h"

namespace perfbench {

namespace {

using namespace opera;

// Same poll interval as Network::run_to_completion's default, so a traced
// run schedules exactly the events an untraced one does.
constexpr sim::Time kPollInterval = sim::Time::us(500);

// run_to_completion with one child span of `run_span` per rotation cycle;
// `sample` reads counters at each cycle boundary.
core::Network::RunStatus traced_run(core::Network& net, Tracer& tracer, int run_span,
                                    sim::Time horizon, sim::Time cycle,
                                    const std::function<void()>& sample) {
  int span = tracer.begin("core.run.cycle", run_span);
  const auto close = [&] {
    auto& s = tracer.at(span);
    s.events = net.events_executed();
    s.sim_ms = net.sim().now().to_ms();
    tracer.end(span);
  };
  sim::Time boundary = net.sim().now() + cycle;
  const auto status =
      net.run_with_progress(horizon, kPollInterval, [&](core::Network& n) {
        if (n.sim().now() >= boundary) {
          sample();
          close();
          span = tracer.begin("core.run.cycle", run_span);
          boundary = boundary + cycle;
        }
        const auto& t = n.tracker();
        return t.registered() > 0 && t.completed() >= t.registered();
      });
  sample();
  close();
  return status;
}

// The FCT table the figure benches print, rendered through exp::Report.
void render_report(const Workload& w, std::uint64_t seed, const core::Network& net,
                   const core::Network::RunStatus& status, std::size_t flows) {
  exp::Report report(std::string("perfbench ") + w.name, exp::OutputFormat::kCsv);
  report.table("round", {"workload", "seed", "flows", "completed", "sim_ms", "events"})
      .row({w.name, std::to_string(seed), flows, net.tracker().completed(),
            exp::Value(status.ended_at.to_ms(), 3), net.events_executed()});
  struct Bucket {
    const char* label;
    std::int64_t lo;
    std::int64_t hi;
  };
  constexpr Bucket kBuckets[] = {{"<10KB", 0, 10'000},
                                 {"10KB-100KB", 10'000, 100'000},
                                 {"100KB-1MB", 100'000, 1'000'000},
                                 {"1MB-15MB", 1'000'000, 15'000'000},
                                 {">=15MB", 15'000'000, std::numeric_limits<std::int64_t>::max()}};
  auto& fct = report.table("fct", {"bucket", "flows", "p50_us", "p99_us"});
  for (const auto& b : kBuckets) {
    const auto s = net.tracker().fct_us(b.lo, b.hi);
    if (s.empty()) {
      fct.row({b.label, 0, "-", "-"});
    } else {
      fct.row({b.label, s.count(), exp::Value(s.percentile(50), 1),
               exp::Value(s.percentile(99), 1)});
    }
  }
  report.finish();
}

// Cumulative packet-layer counters of `net`.
struct PacketCounters {
  std::uint64_t slice_table_builds = 0;
  std::uint64_t slice_table_evictions = 0;
  double slice_table_peak_mb = 0.0;
  std::uint64_t tor_trims = 0;
  std::uint64_t tor_drops = 0;
  std::uint64_t forward_drops = 0;
  std::uint64_t host_trims = 0;
  std::uint64_t host_drops = 0;
};

PacketCounters read_packet_counters(core::OperaNetwork& net) {
  PacketCounters c;
  const auto& st = net.slice_tables().stats();
  c.slice_table_builds = st.demand_builds + st.prefetch_builds;
  c.slice_table_evictions = st.evictions;
  c.slice_table_peak_mb = static_cast<double>(st.peak_resident_bytes) / 1e6;
  const auto tor = net.tor_stats();
  c.tor_trims = tor.trims;
  c.tor_drops = tor.drops;
  c.forward_drops = tor.forward_drops;
  for (std::int32_t h = 0; h < net.num_hosts(); ++h) {
    const auto& q = net.host(h).uplink().queue();
    c.host_trims += q.trims();
    c.host_drops += q.drops();
  }
  return c;
}

void read_completion_layers(std::span<const transport::FlowRecord> completions, Layers& l) {
  sim::PercentileSampler ndp;
  sim::PercentileSampler bulk;
  std::int64_t first = std::numeric_limits<std::int64_t>::max();
  std::int64_t last = 0;
  for (const auto& rec : completions) {
    (rec.flow.tclass == net::TrafficClass::kBulk ? bulk : ndp).add(rec.fct().to_us());
    first = std::min(first, rec.flow.start.picoseconds());
    last = std::max(last, rec.end.picoseconds());
  }
  l.ndp_flows = ndp.count();
  l.bulk_flows = bulk.count();
  if (!ndp.empty()) {
    l.ndp_fct_p50_us = ndp.percentile(50);
    l.ndp_fct_p99_us = ndp.percentile(99);
  }
  if (!bulk.empty()) l.bulk_fct_p50_us = bulk.percentile(50);
  if (!completions.empty()) l.makespan_ms = static_cast<double>(last - first) * 1e-9;
}

}  // namespace

Round Session::run_round(std::uint64_t seed, const RoundOptions& options) {
  Tracer* const tracer = options.tracer;
  Round r;
  if (!w_.share_fabric) {  // tear the last fabric down outside the timed steps
    net_.reset();
    delivered_.clear();
    totals_ = {};
  }
  fluid::register_fluid_engines();

  const auto t_gen = Clock::now();
  std::vector<workload::FlowSpec> flows;
  {
    ScopedSpan span(tracer, "workload.generate");
    flows = w_.generate(w_.fabric, seed);
  }
  const auto t_build = Clock::now();
  const bool build = net_ == nullptr;
  if (build) {
    ScopedSpan span(tracer, "core.build");
    net_ = core::NetworkFactory::build(w_.fabric);
  }
  const auto t_built = Clock::now();
  core::Network& net = *net_;

  auto* const packet = dynamic_cast<core::OperaNetwork*>(&net);
  auto* const fluid_net = dynamic_cast<fluid::FluidNetwork*>(&net);
  if (packet != nullptr && delivered_.empty()) {
    delivered_.assign(flows.size() + 1, 0);
    net.tracker().set_delivery_hook(
        [this](const transport::Flow& f, std::int64_t bytes, sim::Time) {
          if (f.id >= delivered_.size()) delivered_.resize(f.id + 1, 0);
          delivered_[f.id] += bytes;
        });
  }
  std::size_t voq_peak = 0;
  const auto sample = [&] {
    if (packet != nullptr) voq_peak = std::max(voq_peak, packet->voq_memory_bytes());
  };

  // A shared fabric carries on from where the previous round stopped.
  const sim::Time offset = net.sim().now();
  const std::size_t done_before = net.tracker().completed();
  std::vector<std::uint64_t> ids(flows.size());
  const auto t_submit = Clock::now();
  {
    ScopedSpan span(tracer, "core.submit");
    for (std::size_t i = 0; i < flows.size(); ++i) {
      const auto& f = flows[i];
      ids[i] = net.submit_flow(f.src_host, f.dst_host, f.size_bytes, offset + f.start,
                               w_.force);
    }
  }
  const auto t_run = Clock::now();
  core::Network::RunStatus status;
  {
    ScopedSpan span(tracer, "core.run");
    if (tracer == nullptr) {
      status = net.run_to_completion(offset + w_.horizon);
    } else {
      const sim::Time cycle = w_.fabric.slice.duration * w_.fabric.opera.num_racks;
      status = traced_run(net, *tracer, span.id(), offset + w_.horizon, cycle, sample);
    }
  }
  const auto t_report = Clock::now();
  {
    ScopedSpan span(tracer, "exp.report");
    render_report(w_, seed, net, status, flows.size());
  }
  const auto t_check = Clock::now();

  const auto& all = net.tracker().completions();
  RoundOutputs out;
  out.link_rate_bps = w_.fabric.link.rate_bps;
  out.specs = flows;
  out.ids = ids;
  out.completions = std::span(all).subspan(std::min(done_before, all.size()));
  out.delivered = packet != nullptr ? &delivered_ : nullptr;
  out.check_makespan = w_.check_makespan;
  if (fluid_net != nullptr) {
    const auto& fs = fluid_net->fluid_stats();
    out.fluid = FluidTotals{fs.direct_bytes, fs.vlb_bytes, fs.intra_bytes,
                            fs.circuit_bytes(),
                            static_cast<double>(w_.fabric.opera.num_racks) *
                                w_.fabric.opera.num_switches * w_.fabric.link.rate_bps / 8.0};
    out.fct_slack_ps = 1000;
  }
  {
    ScopedSpan span(tracer, "check");
    r.check = check_round(out);
  }
  r.check_s = seconds_between(t_check, Clock::now());
  if (options.inspect) options.inspect(out);

  r.gen_s = seconds_between(t_gen, t_build);
  r.build_s = build ? seconds_between(t_build, t_built) : 0.0;
  r.submit_s = seconds_between(t_submit, t_run);
  r.run_s = seconds_between(t_submit, t_report);
  r.report_s = seconds_between(t_report, t_check);
  for (const auto& rec : out.completions) r.completed_bytes += rec.flow.size_bytes;

  sim::Fingerprint fp;
  net.fingerprint(fp);
  r.digest = fp.digest();

  Layers& l = r.layers;
  l.flows = flows.size();
  for (const auto& f : flows) l.gbytes += static_cast<double>(f.size_bytes) / 1e9;
  l.events = net.events_executed() - totals_.events;
  totals_.events = net.events_executed();
  l.shards = net.num_shards();
  l.sim_ms = (status.ended_at - offset).to_ms();
  read_completion_layers(out.completions, l);
  if (packet != nullptr) {
    const PacketCounters c = read_packet_counters(*packet);
    const auto delta = [](std::uint64_t now, std::uint64_t& before) {
      const std::uint64_t d = now - before;
      before = now;
      return d;
    };
    l.slice_table_builds = delta(c.slice_table_builds, totals_.slice_table_builds);
    l.slice_table_evictions = delta(c.slice_table_evictions, totals_.slice_table_evictions);
    l.slice_table_peak_mb = c.slice_table_peak_mb;
    l.tor_trims = delta(c.tor_trims, totals_.tor_trims);
    l.tor_drops = delta(c.tor_drops, totals_.tor_drops);
    l.forward_drops = delta(c.forward_drops, totals_.forward_drops);
    l.host_trims = delta(c.host_trims, totals_.host_trims);
    l.host_drops = delta(c.host_drops, totals_.host_drops);
    sample();
    l.voq_mb = static_cast<double>(voq_peak) / 1e6;
    std::int64_t sum = 0;
    for (const auto id : ids) sum += id < delivered_.size() ? delivered_[id] : 0;
    l.delivered_gb = static_cast<double>(sum) / 1e9;
  }
  if (out.fluid) {
    l.fluid_direct_gb = out.fluid->direct_bytes / 1e9;
    l.fluid_vlb_gb = out.fluid->vlb_bytes / 1e9;
    l.fluid_intra_gb = out.fluid->intra_bytes / 1e9;
    l.fluid_events = l.events;
    l.delivered_gb = l.fluid_direct_gb + l.fluid_vlb_gb + l.fluid_intra_gb;
  }
  return r;
}

}  // namespace perfbench
