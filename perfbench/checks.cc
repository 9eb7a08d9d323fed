#include "checks.h"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <limits>
#include <unordered_map>

namespace perfbench {

namespace {

// Relative tolerance of the fluid byte-accounting checks (double sums over
// up to a million flows).
constexpr double kFluidRelTol = 1e-9;

std::string format(const char* fmt, double a, double b) {
  char buf[160];
  std::snprintf(buf, sizeof buf, fmt, a, b);
  return buf;
}

}  // namespace

std::int64_t serialization_floor_ps(std::int64_t bytes, double rate_bps) {
  const auto rate = static_cast<__int128>(std::llround(rate_bps));
  const __int128 bits_ps = static_cast<__int128>(bytes) * 8 * 1'000'000'000'000LL;
  return static_cast<std::int64_t>(bits_ps / rate);
}

CheckReport check_round(const RoundOutputs& out) {
  CheckReport report;
  report.attempted = out.specs.size();

  // Dense per-flow-id state: ids are handed out sequentially from 1.
  std::uint64_t max_id = 0;
  for (const auto id : out.ids) max_id = std::max(max_id, id);
  std::vector<std::int64_t> spec_of_id(max_id + 1, -1);
  for (std::size_t i = 0; i < out.ids.size(); ++i) {
    spec_of_id[out.ids[i]] = static_cast<std::int64_t>(i);
  }
  std::vector<std::uint32_t> completions(max_id + 1, 0);
  std::vector<bool> bad(max_id + 1, false);

  std::int64_t first_start = std::numeric_limits<std::int64_t>::max();
  std::int64_t last_end = std::numeric_limits<std::int64_t>::min();
  std::uint64_t unknown = 0;
  for (const auto& rec : out.completions) {
    const std::uint64_t id = rec.flow.id;
    if (id > max_id || spec_of_id[id] < 0) {
      ++unknown;
      continue;
    }
    ++completions[id];
    const auto& spec = out.specs[static_cast<std::size_t>(spec_of_id[id])];
    const std::int64_t fct_ps = rec.fct().picoseconds();
    if (rec.flow.size_bytes != spec.size_bytes ||
        fct_ps + out.fct_slack_ps <
            serialization_floor_ps(spec.size_bytes, out.link_rate_bps)) {
      bad[id] = true;
    }
    first_start = std::min(first_start, rec.flow.start.picoseconds());
    last_end = std::max(last_end, rec.end.picoseconds());
  }
  if (unknown > 0) {
    report.violations.push_back(std::to_string(unknown) +
                                " completion(s) of flows never submitted");
  }

  for (std::size_t i = 0; i < out.specs.size(); ++i) {
    const std::uint64_t id = out.ids[i];
    bool ok = completions[id] == 1 && !bad[id];
    if (ok && out.delivered != nullptr) {
      ok = id < out.delivered->size() && (*out.delivered)[id] == out.specs[i].size_bytes;
    }
    if (!ok) ++report.failed;
  }

  if (out.check_makespan && !out.completions.empty()) {
    std::unordered_map<std::int32_t, std::int64_t> sent;
    std::unordered_map<std::int32_t, std::int64_t> received;
    std::int64_t busiest = 0;
    for (const auto& s : out.specs) {
      busiest = std::max(busiest, sent[s.src_host] += s.size_bytes);
      busiest = std::max(busiest, received[s.dst_host] += s.size_bytes);
    }
    const std::int64_t makespan = last_end - first_start;
    const std::int64_t floor_ps = serialization_floor_ps(busiest, out.link_rate_bps);
    if (makespan < floor_ps) {
      report.violations.push_back("makespan " + std::to_string(makespan) +
                                  " ps below the busiest host's " +
                                  std::to_string(floor_ps) + " ps");
    }
  }

  if (out.fluid) {
    const auto& f = *out.fluid;
    double offered = 0.0;
    for (const auto& s : out.specs) offered += static_cast<double>(s.size_bytes);
    const double carried = f.direct_bytes + f.vlb_bytes + f.intra_bytes;
    if (std::abs(carried - offered) > kFluidRelTol * offered) {
      report.violations.push_back(
          format("fluid carried %.17g bytes of %.17g offered", carried, offered));
    }
    const double capacity =
        out.completions.empty()
            ? 0.0
            : f.uplink_bytes_per_s * static_cast<double>(last_end - first_start) * 1e-12;
    if (f.circuit_bytes > capacity * (1.0 + kFluidRelTol)) {
      report.violations.push_back(format("circuit bytes %.17g exceed capacity %.17g",
                                         f.circuit_bytes, capacity));
    }
  }
  return report;
}

}  // namespace perfbench
