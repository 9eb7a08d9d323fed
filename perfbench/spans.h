// In-memory spans for the traced run: one per call the driver makes into a
// layer (name, start, end, parent), plus one child per rotation cycle under
// core.run carrying the events executed and the simulated time reached.
// Nothing is written until write_json() at exit, and untraced runs hold no
// Tracer at all.
#pragma once

#include <chrono>
#include <cstdint>
#include <string>
#include <vector>

namespace perfbench {

using Clock = std::chrono::steady_clock;

[[nodiscard]] inline double seconds_between(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration<double>(b - a).count();
}

class Tracer {
 public:
  struct Span {
    std::string name;
    double start_s = 0.0;  // since the tracer's origin
    double end_s = 0.0;
    int parent = -1;       // index into spans(), -1 = root
    std::uint64_t events = 0;  // core.run cycles: events executed so far
    double sim_ms = -1.0;      // core.run cycles: simulated time reached
  };

  explicit Tracer(Clock::time_point origin) : origin_(origin) {}

  int begin(std::string name, int parent = -1);
  void end(int span);
  Span& at(int span) { return spans_[static_cast<std::size_t>(span)]; }
  [[nodiscard]] const std::vector<Span>& spans() const { return spans_; }

  // Writes {"meta": {...}, "spans": [...]} to `path`; false on I/O error.
  [[nodiscard]] bool write_json(const std::string& path, const std::string& meta_json) const;

 private:
  [[nodiscard]] double now_s() const { return seconds_between(origin_, Clock::now()); }
  Clock::time_point origin_;
  std::vector<Span> spans_;
};

// Opens a span on construction and closes it on destruction; does nothing
// when `tracer` is null (the untraced runs).
class ScopedSpan {
 public:
  ScopedSpan(Tracer* tracer, const char* name, int parent = -1)
      : tracer_(tracer), id_(tracer != nullptr ? tracer->begin(name, parent) : -1) {}
  ~ScopedSpan() {
    if (tracer_ != nullptr) tracer_->end(id_);
  }
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;
  [[nodiscard]] int id() const { return id_; }

 private:
  Tracer* tracer_;
  int id_;
};

}  // namespace perfbench
