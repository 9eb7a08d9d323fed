#include "workloads.h"

#include <algorithm>

#include "sim/rng.h"
#include "workload/day_in_the_life.h"
#include "workload/flow_size_dist.h"

namespace perfbench {

namespace {

using namespace opera;

// Websearch sizes are capped so that every seed runs about the same
// simulated span: uncapped, the 0.2% of draws above 10 MB decide alone when
// the last flow ends, and the k=24 run time moved by a quarter between
// seeds. At 5 MB about 3% of flows sit at the cap, so the last of them ends
// near the same instant in every round.
constexpr std::int64_t kWebsearchCapBytes = 5'000'000;

std::vector<workload::FlowSpec> websearch(const core::FabricConfig& fabric, double load,
                                          sim::Time window, std::uint64_t seed) {
  sim::Rng rng(seed);
  auto flows = workload::poisson_workload(workload::FlowSizeDistribution::websearch(),
                                          fabric.num_hosts(), load, fabric.link.rate_bps,
                                          window, rng);
  for (auto& f : flows) f.size_bytes = std::min(f.size_bytes, kWebsearchCapBytes);
  return flows;
}

// 5% load: at 30% the packet path was about nine tenths of the k=24 run time.
std::vector<workload::FlowSpec> k24_websearch(const core::FabricConfig& fabric,
                                              std::uint64_t seed) {
  return websearch(fabric, 0.05, sim::Time::ms(1), seed);
}

std::vector<workload::FlowSpec> k12_websearch(const core::FabricConfig& fabric,
                                              std::uint64_t seed) {
  return websearch(fabric, 0.3, sim::Time::ms(1), seed);
}

// Fig. 8's 100 KB all-to-all shuffle; the seed staggers starts over one slice.
std::vector<workload::FlowSpec> shuffle_bulk(const core::FabricConfig& fabric,
                                             std::uint64_t seed) {
  sim::Rng rng(seed);
  return workload::shuffle_workload(fabric.num_hosts(), fabric.opera.hosts_per_rack,
                                    100'000, sim::Time::us(100), rng);
}

std::vector<workload::FlowSpec> fluid_ditl(const core::FabricConfig& fabric,
                                           std::uint64_t seed) {
  const auto day =
      workload::DayInTheLifeSpec::standard_day(sim::Time::ms(2500), 0.27, seed);
  return workload::day_in_the_life_workload(day, fabric.num_hosts(),
                                            fabric.opera.hosts_per_rack,
                                            fabric.link.rate_bps);
}

core::FabricConfig opera(std::int32_t racks, std::int32_t hosts_per_rack, int threads) {
  auto cfg = core::FabricConfig::make(core::FabricKind::kOpera);
  cfg.scale(racks, hosts_per_rack);
  cfg.threads = threads;  // explicit: never $OPERA_TEST_THREADS
  return cfg;
}

std::vector<Workload> make_workloads() {
  // The automatic 101-slice table window (270 MB) made k=24 run-to-run
  // spreads two to three times wider than the 16-slice window (45 MB) the
  // repository's k=24 sweeps use.
  auto k24 = opera(432, 12, 1);
  k24.slice_table_window = 16;
  auto fluid = opera(108, 6, 1);
  fluid.engine = core::EngineKind::kFluid;
  return {
      {"k24_websearch", k24, std::nullopt, sim::Time::ms(500), false, true,
       2.5, 1, &k24_websearch},
      {"k12_websearch", opera(108, 6, 1), std::nullopt, sim::Time::ms(500), false, false,
       0.9, 3, &k12_websearch},
      {"shuffle_bulk_t4", opera(24, 6, 4), net::TrafficClass::kBulk, sim::Time::ms(1000),
       true, false, 3.75, 2, &shuffle_bulk},
      {"fluid_ditl", fluid, std::nullopt, sim::Time::sec(60), false, false, 2.5, 1,
       &fluid_ditl},
  };
}

}  // namespace

const std::vector<Workload>& all_workloads() {
  static const std::vector<Workload> workloads = make_workloads();
  return workloads;
}

const Workload* find_workload(std::string_view name) {
  for (const auto& w : all_workloads()) {
    if (name == w.name) return &w;
  }
  return nullptr;
}

std::uint64_t round_seed(std::uint64_t seed, std::uint64_t round) {
  // splitmix64 over (seed, round): distinct, well-mixed per-round seeds.
  std::uint64_t x = seed * 0x9E3779B97F4A7C15ULL + round + 1;
  x = (x ^ (x >> 30)) * 0xBF58476D1CE4E5B9ULL;
  x = (x ^ (x >> 27)) * 0x94D049BB133111EBULL;
  return x ^ (x >> 31);
}

}  // namespace perfbench
