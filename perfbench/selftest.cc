// perfbench selftest — shows that the benchmark's checks and its
// determinism claims hold, at reduced scale (about a minute):
//   * one seed run twice gives the same Network::fingerprint digest, on the
//     packet and on the fluid engine;
//   * the shuffle at --threads=1 and --threads=4 gives an identical digest
//     and completion stream (the bit-identical sharding guarantee);
//   * unmodified outputs pass every check, and each planted fault (a
//     truncated flow, an extra delivery, a too-early completion, a lost
//     completion, a compressed shuffle makespan, a fluid byte shortfall, an
//     over-capacity circuit count) is reported as a failure.
// Exits 0 only if every case passes.
#include <algorithm>
#include <cstdio>
#include <string>
#include <vector>

#include "round.h"

namespace perfbench {

namespace {

using namespace opera;

// An owned copy of a round's outputs that faults can be planted in.
struct Outputs {
  double link_rate_bps = 0.0;
  std::vector<workload::FlowSpec> specs;
  std::vector<std::uint64_t> ids;
  std::vector<transport::FlowRecord> completions;
  std::vector<std::int64_t> delivered;
  bool has_delivered = false;
  bool check_makespan = false;
  std::optional<FluidTotals> fluid;
  std::int64_t fct_slack_ps = 0;

  explicit Outputs(const RoundOutputs& o)
      : link_rate_bps(o.link_rate_bps),
        specs(o.specs.begin(), o.specs.end()),
        ids(o.ids.begin(), o.ids.end()),
        completions(o.completions.begin(), o.completions.end()),
        has_delivered(o.delivered != nullptr),
        check_makespan(o.check_makespan),
        fluid(o.fluid),
        fct_slack_ps(o.fct_slack_ps) {
    if (has_delivered) delivered = *o.delivered;
  }
  [[nodiscard]] CheckReport check() const {
    RoundOutputs o;
    o.link_rate_bps = link_rate_bps;
    o.specs = specs;
    o.ids = ids;
    o.completions = completions;
    o.delivered = has_delivered ? &delivered : nullptr;
    o.check_makespan = check_makespan;
    o.fluid = fluid;
    o.fct_slack_ps = fct_slack_ps;
    return check_round(o);
  }
};

int g_failures = 0;

void expect(bool ok, const std::string& what) {
  std::printf("%s  %s\n", ok ? "PASS" : "FAIL", what.c_str());
  if (!ok) ++g_failures;
}

Workload scaled(const char* name, std::int32_t racks, std::int32_t hosts_per_rack,
                int threads) {
  Workload w = *find_workload(name);
  w.fabric.scale(racks, hosts_per_rack);
  w.fabric.threads = threads;
  return w;
}

Outputs capture(const Workload& w, std::uint64_t seed, Round* round = nullptr) {
  std::optional<Outputs> captured;
  RoundOptions opt;
  opt.inspect = [&captured](const RoundOutputs& o) { captured.emplace(o); };
  const Round r = Session(w).run_round(seed, opt);
  if (round != nullptr) *round = r;
  return std::move(*captured);
}

void expect_flagged(const Outputs& planted, const std::string& fault) {
  const CheckReport c = planted.check();
  expect(c.failed > 0 || !c.correct(), "planted " + fault + " is reported");
}

void determinism() {
  for (const auto& w : {scaled("k12_websearch", 24, 6, 1), scaled("fluid_ditl", 24, 6, 1)}) {
    const Round a = Session(w).run_round(7);
    const Round b = Session(w).run_round(7);
    expect(a.digest == b.digest && a.check.failed == 0,
           std::string(w.name) + " at 24x6: same seed, same digest");
  }
}

void sharding() {
  Round one;
  Round four;
  const Outputs a = capture(scaled("shuffle_bulk_t4", 12, 4, 1), 3, &one);
  const Outputs b = capture(scaled("shuffle_bulk_t4", 12, 4, 4), 3, &four);
  bool same_stream = a.completions.size() == b.completions.size();
  for (std::size_t i = 0; same_stream && i < a.completions.size(); ++i) {
    same_stream = a.completions[i].flow.id == b.completions[i].flow.id &&
                  a.completions[i].end == b.completions[i].end;
  }
  expect(four.layers.shards == 4 && one.digest == four.digest && same_stream &&
             one.check.failed == 0,
         "shuffle at 12x4: --threads=1 and --threads=4 give one digest and completion stream");
}

void planted_faults() {
  const Outputs packet = capture(scaled("k12_websearch", 24, 6, 1), 11);
  const CheckReport clean = packet.check();
  expect(clean.failed == 0 && clean.correct() && clean.attempted > 0,
         "unmodified packet outputs pass (" + std::to_string(clean.attempted) + " flows)");
  const std::uint64_t id = packet.ids.front();
  {
    Outputs o = packet;
    o.delivered[id] -= 1;
    expect_flagged(o, "truncated flow (one byte short)");
  }
  {
    Outputs o = packet;
    o.delivered[id] += net::kMaxPayloadBytes;
    expect_flagged(o, "extra delivery");
  }
  {
    Outputs o = packet;
    auto& rec = o.completions.front();
    rec.end = rec.flow.start +
              sim::Time::ps(serialization_floor_ps(rec.flow.size_bytes, o.link_rate_bps) - 2);
    expect_flagged(o, "too-early completion (2 ps under line rate)");
  }
  {
    Outputs o = packet;
    o.completions.pop_back();
    expect_flagged(o, "lost completion");
  }

  const Outputs shuffle = capture(scaled("shuffle_bulk_t4", 12, 4, 1), 5);
  expect(shuffle.check().failed == 0 && shuffle.check().correct(),
         "unmodified shuffle outputs pass");
  {
    // Every flow at exactly line rate from its own start: each FCT holds,
    // but the hosts could not have sent that much in so short a makespan.
    Outputs o = shuffle;
    for (auto& rec : o.completions) {
      rec.end = rec.flow.start +
                sim::Time::ps(serialization_floor_ps(rec.flow.size_bytes, o.link_rate_bps));
    }
    expect_flagged(o, "compressed shuffle makespan");
  }

  const Outputs fluid = capture(scaled("fluid_ditl", 24, 6, 1), 13);
  expect(fluid.check().failed == 0 && fluid.check().correct(), "unmodified fluid outputs pass");
  {
    Outputs o = fluid;
    auto& rec = o.completions.front();
    rec.end = rec.flow.start +
              sim::Time::ps(serialization_floor_ps(rec.flow.size_bytes, o.link_rate_bps) -
                            o.fct_slack_ps - 1);
    expect_flagged(o, "too-early fluid completion (1 ps beyond the rounding slack)");
  }
  {
    Outputs o = fluid;
    o.fluid->direct_bytes -= 1e-6 * o.fluid->direct_bytes;
    expect_flagged(o, "fluid byte shortfall (1 ppm of direct bytes)");
  }
  {
    Outputs o = fluid;
    // Uplinks running 1% above line rate from the first start to the last end.
    sim::Time first = sim::Time::infinity();
    sim::Time last = sim::Time::zero();
    for (const auto& rec : o.completions) {
      first = std::min(first, rec.flow.start);
      last = std::max(last, rec.end);
    }
    o.fluid->circuit_bytes = 1.01 * o.fluid->uplink_bytes_per_s * (last - first).to_seconds();
    expect_flagged(o, "circuit bytes above uplink capacity");
  }
}

}  // namespace

int selftest() {
  determinism();
  sharding();
  planted_faults();
  std::printf("%s: %d failure(s)\n", g_failures == 0 ? "selftest passed" : "selftest FAILED",
              g_failures);
  return g_failures == 0 ? 0 : 1;
}

}  // namespace perfbench
