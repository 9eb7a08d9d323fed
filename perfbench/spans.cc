#include "spans.h"

#include <cstdio>

namespace perfbench {

int Tracer::begin(std::string name, int parent) {
  Span s;
  s.name = std::move(name);
  s.start_s = now_s();
  s.parent = parent;
  spans_.push_back(std::move(s));
  return static_cast<int>(spans_.size()) - 1;
}

void Tracer::end(int span) { at(span).end_s = now_s(); }

bool Tracer::write_json(const std::string& path, const std::string& meta_json) const {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) return false;
  std::fprintf(f, "{\"meta\": %s,\n \"spans\": [", meta_json.c_str());
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    const Span& s = spans_[i];
    std::fprintf(f, "%s\n  {\"id\": %zu, \"name\": \"%s\", \"start_s\": %.9f, \"end_s\": %.9f, "
                 "\"parent\": %d",
                 i == 0 ? "" : ",", i, s.name.c_str(), s.start_s, s.end_s, s.parent);
    if (s.sim_ms >= 0.0) {
      std::fprintf(f, ", \"events\": %llu, \"sim_ms\": %.6f",
                   static_cast<unsigned long long>(s.events), s.sim_ms);
    }
    std::fputc('}', f);
  }
  std::fputs("\n]}\n", f);
  return std::fclose(f) == 0;
}

}  // namespace perfbench
