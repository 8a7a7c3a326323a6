#include "trace.hpp"

#include <fstream>

#include "json.hpp"

namespace perfbench {

std::int64_t Tracer::open(const char* name, std::int64_t epoch) {
  if (!enabled_) return kNoSpan;
  Span s;
  s.name = name;
  s.parent = open_.empty() ? kNoSpan : open_.back();
  s.episode = episode_;
  s.epoch = epoch;
  s.start = Clock::now();
  spans_.push_back(std::move(s));
  const auto id = static_cast<std::int64_t>(spans_.size() - 1);
  open_.push_back(id);
  return id;
}

void Tracer::close(std::int64_t id, Attrs attrs) {
  if (id == kNoSpan) return;
  Span& s = spans_[static_cast<std::size_t>(id)];
  s.end = Clock::now();
  s.attrs = std::move(attrs);
  if (!open_.empty() && open_.back() == id) open_.pop_back();
}

bool Tracer::write(const std::string& path) const {
  std::ofstream out(path, std::ios::trunc);
  if (!out) return false;
  const auto ns = [this](Clock::time_point t) {
    return std::chrono::duration_cast<std::chrono::nanoseconds>(t - origin_)
        .count();
  };
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    const Span& s = spans_[i];
    JsonWriter w;
    w.begin_object();
    w.key("id").number(static_cast<double>(i));
    w.key("name").string(s.name);
    w.key("parent").number(static_cast<double>(s.parent));
    w.key("episode").number(s.episode);
    w.key("epoch").number(static_cast<double>(s.epoch));
    w.key("start_ns").number(static_cast<double>(ns(s.start)));
    w.key("end_ns").number(static_cast<double>(ns(s.end)));
    w.key("attrs").begin_object();
    for (const auto& [k, v] : s.attrs) w.key(k).number(v);
    w.end_object();
    w.end_object();
    out << w.str() << '\n';
  }
  out.flush();
  return static_cast<bool>(out);
}

}  // namespace perfbench
