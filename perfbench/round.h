// One round of a workload: generate the flows from a seed, build the fabric
// (once per session for workloads that share it), submit, run to
// completion, render the report, check the outputs. Every call into a layer
// is timed from outside; with a Tracer each also becomes a span, and
// core.run is cut into one child span per rotation cycle.
#pragma once

#include <cstdint>
#include <functional>
#include <memory>
#include <vector>

#include "checks.h"
#include "core/network.h"
#include "spans.h"
#include "workloads.h"

namespace perfbench {

// Counters read at layer boundaries once the round has ended, as this
// round's share when the fabric is shared (voq_mb is the peak sampled at
// every cycle boundary of a traced run). Layers a workload does not
// exercise read 0.
struct Layers {
  std::uint64_t flows = 0;
  double gbytes = 0.0;
  std::uint64_t events = 0;
  int shards = 0;
  double sim_ms = 0.0;
  std::uint64_t slice_table_builds = 0;
  std::uint64_t slice_table_evictions = 0;
  double slice_table_peak_mb = 0.0;
  std::uint64_t tor_trims = 0;
  std::uint64_t tor_drops = 0;
  std::uint64_t forward_drops = 0;
  std::uint64_t host_trims = 0;
  std::uint64_t host_drops = 0;
  std::uint64_t ndp_flows = 0;
  std::uint64_t bulk_flows = 0;
  double delivered_gb = 0.0;
  double ndp_fct_p50_us = 0.0;
  double ndp_fct_p99_us = 0.0;
  double bulk_fct_p50_us = 0.0;
  double makespan_ms = 0.0;
  double voq_mb = 0.0;
  double fluid_direct_gb = 0.0;
  double fluid_vlb_gb = 0.0;
  double fluid_intra_gb = 0.0;
  std::uint64_t fluid_events = 0;
};

struct Round {
  // Host time in seconds. build_s is 0 when the round reused the session's
  // fabric. run_s runs from the first submit_flow to the return of the run,
  // so it includes submit_s.
  double gen_s = 0.0;
  double build_s = 0.0;
  double submit_s = 0.0;
  double run_s = 0.0;
  double report_s = 0.0;
  double check_s = 0.0;
  std::int64_t completed_bytes = 0;
  CheckReport check;
  std::uint64_t digest = 0;  // Network::fingerprint after the run
  Layers layers;
};

struct RoundOptions {
  Tracer* tracer = nullptr;  // null: untraced
  // Called with the round's outputs after the checks, while they are alive.
  std::function<void(const RoundOutputs&)> inspect;
};

// Runs rounds of one workload. A workload with share_fabric builds its
// fabric in the first round and submits every later round's flows, shifted
// to the current simulated time, to the same network; the others build a
// fresh fabric every round, so each round's tracker holds only its own flows.
class Session {
 public:
  explicit Session(const Workload& workload) : w_(workload) {}
  [[nodiscard]] Round run_round(std::uint64_t seed, const RoundOptions& options = {});

 private:
  struct Totals {  // cumulative counters at the end of the previous round
    std::uint64_t events = 0;
    std::uint64_t slice_table_builds = 0;
    std::uint64_t slice_table_evictions = 0;
    std::uint64_t tor_trims = 0;
    std::uint64_t tor_drops = 0;
    std::uint64_t forward_drops = 0;
    std::uint64_t host_trims = 0;
    std::uint64_t host_drops = 0;
  };
  const Workload& w_;
  std::unique_ptr<opera::core::Network> net_;
  std::vector<std::int64_t> delivered_;  // payload bytes per flow id
  Totals totals_;
};

}  // namespace perfbench
