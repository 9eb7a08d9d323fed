// The benchmark's four workloads. Each fixes a fabric (topology seed, scale,
// engine and worker-pool size are constants, never read from the
// environment) and a generator that turns a seed into the flows the program
// receives. README.md says why each exists and which layer it loads.
#pragma once

#include <cstdint>
#include <optional>
#include <string_view>
#include <vector>

#include "core/fabric.h"
#include "net/packet.h"
#include "sim/time.h"
#include "workload/synthetic.h"

namespace perfbench {

struct Workload {
  const char* name;
  opera::core::FabricConfig fabric;
  // Application-based tagging (paper §3.4); nullopt = classify by size.
  std::optional<opera::net::TrafficClass> force;
  // run_to_completion bound; a flow still open at the horizon fails.
  opera::sim::Time horizon;
  // Shuffle only: the makespan is checked against the busiest host.
  bool check_makespan = false;
  // Build the fabric once and run every round on it (see round.h).
  bool share_fabric = false;
  // A run of --seconds S makes round(S / seconds_per_round) rounds (at
  // least 2 after the warm-up), so every run of a workload does the same
  // work whatever the machine's speed. Calibrated so that a run, set-up included, takes about
  // S on a 4-core x86 VM; the shuffle's is larger (8 rounds in 30 s, ~13 s)
  // because each of its sharded rounds leaves ~95 MB of packets behind.
  double seconds_per_round = 1.0;
  // The first rounds of an untraced run are its warm-up: they are checked
  // and counted like the rest but timed only as part of setup_s. Chosen so
  // that set-up lasts about 2 s or more on a 4-core x86 VM, longer than the
  // stretches of a few seconds in which a shared host runs this process at
  // two thirds of its speed.
  int warmup_rounds = 1;
  std::vector<opera::workload::FlowSpec> (*generate)(
      const opera::core::FabricConfig& fabric, std::uint64_t seed);
};

[[nodiscard]] const std::vector<Workload>& all_workloads();
[[nodiscard]] const Workload* find_workload(std::string_view name);

// Derives the seed of round `round` of a run started with `seed`.
[[nodiscard]] std::uint64_t round_seed(std::uint64_t seed, std::uint64_t round);

}  // namespace perfbench
