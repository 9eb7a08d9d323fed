// Checks every round runs on what the program returned, against properties
// the simulation must have whatever its speed or model details:
//   * every submitted flow completes, exactly once, with its own size;
//   * packet engines: the payload bytes delivered to each flow sum to its
//     size exactly;
//   * no flow completes faster than its bytes serialize on one host link;
//   * shuffle: the makespan is at least the busiest host's bytes at line rate;
//   * fluid: direct + VLB + intra-rack bytes equal the bytes offered, and the
//     circuits carried no more than the uplinks' capacity between the first
//     flow's start and the last completion.
// The checks only read; selftest.cc plants faults in copies of the outputs
// to show each one can fail.
#pragma once

#include <cstdint>
#include <optional>
#include <span>
#include <string>
#include <vector>

#include "sim/time.h"
#include "transport/flow.h"
#include "workload/synthetic.h"

namespace perfbench {

struct FluidTotals {
  double direct_bytes = 0.0;
  double vlb_bytes = 0.0;
  double intra_bytes = 0.0;
  double circuit_bytes = 0.0;         // direct + 2 x VLB
  double uplink_bytes_per_s = 0.0;    // racks x rotor uplinks x link rate / 8
};

struct RoundOutputs {
  double link_rate_bps = 10e9;
  std::span<const opera::workload::FlowSpec> specs;  // in submission order
  std::span<const std::uint64_t> ids;                // flow id of specs[i]
  std::span<const opera::transport::FlowRecord> completions;
  // Packet engines: payload bytes delivered per flow id (null = not kept).
  const std::vector<std::int64_t>* delivered = nullptr;
  bool check_makespan = false;
  std::optional<FluidTotals> fluid;
  // How far under its serialization time a completion may read. The packet
  // engine's event times are exact (0); the fluid engine rounds each
  // completion down to the 1 ps clock and carries that rounding into the
  // next completion of the same rack pair, so a flow can read a few ps
  // under (up to 2 ps over a 0.9M-flow day). 1 ns there is still 80x
  // below the shortest possible FCT.
  std::int64_t fct_slack_ps = 0;
};

struct CheckReport {
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;             // flows not completed or failing a check
  std::vector<std::string> violations;  // round-wide properties that do not hold
  [[nodiscard]] bool correct() const { return violations.empty(); }
};

[[nodiscard]] CheckReport check_round(const RoundOutputs& out);

// Shortest time `bytes` can take on a link of `rate_bps`, in whole
// picoseconds rounded down (exact for integral rates).
[[nodiscard]] std::int64_t serialization_floor_ps(std::int64_t bytes, double rate_bps);

}  // namespace perfbench
