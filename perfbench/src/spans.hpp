// In-memory span recorder for the traced benchmark run.
//
// Every span has a name, a start and end on one steady clock, the span
// that was open when it began (its parent), and the id of the solve it
// belongs to. Nothing is written while a solve runs: the spans stay in
// memory and are rendered as Chrome trace-event JSON once the benchmark
// ends, so the recorder adds two clock reads and one vector append per
// span to the measured work.
#pragma once

#include <chrono>
#include <cstdint>
#include <map>
#include <string>
#include <vector>

namespace perfbench {

struct Span {
  std::string name;
  double start_s = 0.0;  // seconds since the recorder's origin
  double end_s = 0.0;
  int parent = -1;  // index into Recorder::spans(), -1 for a root
  std::uint64_t solve = 0;

  [[nodiscard]] double seconds() const { return end_s - start_s; }
};

class Recorder {
 public:
  Recorder();

  /// Start a new solve: spans opened from now on carry @p solve_id.
  void begin_solve(std::uint64_t solve_id) { solve_ = solve_id; }

  /// Opens a span; returns its index. Spans nest strictly (one thread).
  int open(std::string name);
  void close(int index);

  [[nodiscard]] const std::vector<Span>& spans() const { return spans_; }

  /// Duration of @p index minus the time its direct children cover.
  [[nodiscard]] double self_seconds(int index) const;

  /// Chrome trace-event document ("X" complete events, microseconds).
  [[nodiscard]] std::string chrome_json() const;

 private:
  [[nodiscard]] double now() const;

  std::chrono::steady_clock::time_point origin_;
  std::vector<Span> spans_;
  std::vector<int> open_;
  std::uint64_t solve_ = 0;
};

/// RAII span: open on construction, close on scope exit.
class Scope {
 public:
  Scope(Recorder& recorder, std::string name)
      : recorder_(recorder), index_(recorder.open(std::move(name))) {}
  ~Scope() { recorder_.close(index_); }
  Scope(const Scope&) = delete;
  Scope& operator=(const Scope&) = delete;

  [[nodiscard]] int index() const { return index_; }

 private:
  Recorder& recorder_;
  int index_;
};

/// Per-name totals over the spans of @p solve: summed duration, summed
/// self time and largest single duration.
struct LayerTotals {
  double seconds = 0.0;
  double self_seconds = 0.0;
  double max_seconds = 0.0;
};
[[nodiscard]] std::map<std::string, LayerTotals> layer_totals(
    const Recorder& recorder, std::uint64_t solve);

}  // namespace perfbench
