#include "spans.hpp"

#include <stdexcept>

#include "pclust/util/json.hpp"

namespace perfbench {

Recorder::Recorder() : origin_(std::chrono::steady_clock::now()) {}

double Recorder::now() const {
  return std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                       origin_)
      .count();
}

int Recorder::open(std::string name) {
  Span span;
  span.name = std::move(name);
  span.parent = open_.empty() ? -1 : open_.back();
  span.solve = solve_;
  span.start_s = now();
  spans_.push_back(std::move(span));
  const int index = static_cast<int>(spans_.size()) - 1;
  open_.push_back(index);
  return index;
}

void Recorder::close(int index) {
  if (open_.empty() || open_.back() != index) {
    throw std::logic_error("perfbench: spans closed out of order");
  }
  spans_[static_cast<std::size_t>(index)].end_s = now();
  open_.pop_back();
}

double Recorder::self_seconds(int index) const {
  // Children of one span run one after another on the same thread, so the
  // time they cover is the sum of their durations.
  double children = 0.0;
  for (std::size_t i = static_cast<std::size_t>(index) + 1; i < spans_.size();
       ++i) {
    if (spans_[i].parent == index) children += spans_[i].seconds();
  }
  return spans_[static_cast<std::size_t>(index)].seconds() - children;
}

std::string Recorder::chrome_json() const {
  pclust::util::JsonWriter w;
  w.begin_object().key("displayTimeUnit").value("ms");
  w.key("traceEvents").begin_array();
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    const Span& s = spans_[i];
    w.begin_object()
        .key("name").value(s.name)
        .key("cat").value("perfbench")
        .key("ph").value("X")
        .key("ts").value(s.start_s * 1e6)
        .key("dur").value(s.seconds() * 1e6)
        .key("pid").value(1)
        .key("tid").value(1)
        .key("args").begin_object()
        .key("span").value(static_cast<std::uint64_t>(i))
        .key("parent").value(s.parent)
        .key("solve").value(s.solve)
        .key("self_s").value(self_seconds(static_cast<int>(i)))
        .end_object()
        .end_object();
  }
  w.end_array().end_object();
  return w.str();
}

std::map<std::string, LayerTotals> layer_totals(const Recorder& recorder,
                                                std::uint64_t solve) {
  std::map<std::string, LayerTotals> out;
  const std::vector<Span>& spans = recorder.spans();
  for (std::size_t i = 0; i < spans.size(); ++i) {
    if (spans[i].solve != solve) continue;
    LayerTotals& t = out[spans[i].name];
    const double d = spans[i].seconds();
    t.seconds += d;
    t.self_seconds += recorder.self_seconds(static_cast<int>(i));
    if (d > t.max_seconds) t.max_seconds = d;
  }
  return out;
}

}  // namespace perfbench
