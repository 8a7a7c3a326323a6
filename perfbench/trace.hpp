// In-memory span recorder for the benchmark's traced runs.
//
// Spans are recorded from the benchmark's own files, around the calls it
// makes into each layer's public API; nothing inside the library is
// instrumented.  Each span has a name, a start and end on the steady clock,
// the span that was open when it started (its parent), the episode and epoch
// it belongs to, and the counters read at its boundaries (`attrs`).  Spans
// stay in memory and are written out once, as JSON lines, when the run ends.
// A disabled recorder records nothing: open() returns kNoSpan and close()
// ignores it, so untraced runs pay one branch per boundary.
#pragma once

#include <chrono>
#include <cstdint>
#include <string>
#include <utility>
#include <vector>

namespace perfbench {

using Clock = std::chrono::steady_clock;

/// Seconds between two steady-clock points.
inline double seconds(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration<double>(b - a).count();
}

/// Counters recorded on a span, by name.
using Attrs = std::vector<std::pair<std::string, double>>;

class Tracer {
 public:
  static constexpr std::int64_t kNoSpan = -1;
  static constexpr std::int64_t kNoEpoch = -1;

  explicit Tracer(bool enabled) : enabled_(enabled) {}

  [[nodiscard]] bool enabled() const noexcept { return enabled_; }

  /// Starts a new episode: later spans carry its id.
  void set_episode(std::uint32_t episode) noexcept { episode_ = episode; }

  /// Opens a span under the innermost open one; returns its id.
  std::int64_t open(const char* name, std::int64_t epoch = kNoEpoch);

  /// Closes span `id` (must be the innermost open span) with its counters.
  void close(std::int64_t id, Attrs attrs = {});

  /// Writes every recorded span as one JSON object per line.  Returns false
  /// when the file cannot be written.
  [[nodiscard]] bool write(const std::string& path) const;

 private:
  struct Span {
    const char* name = "";
    std::int64_t parent = kNoSpan;
    std::uint32_t episode = 0;
    std::int64_t epoch = kNoEpoch;
    Clock::time_point start{};
    Clock::time_point end{};
    Attrs attrs;
  };

  bool enabled_;
  std::uint32_t episode_ = 0;
  Clock::time_point origin_ = Clock::now();
  std::vector<Span> spans_;
  std::vector<std::int64_t> open_;  ///< stack of open span ids
};

}  // namespace perfbench
