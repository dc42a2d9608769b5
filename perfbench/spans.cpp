#include "spans.hpp"

#include <algorithm>
#include <ostream>
#include <sstream>
#include <stdexcept>

namespace perfbench {

double median(std::vector<double> values) {
  if (values.empty()) throw std::logic_error("median of an empty sample");
  std::sort(values.begin(), values.end());
  const std::size_t mid = values.size() / 2;
  return values.size() % 2 == 1 ? values[mid]
                                 : 0.5 * (values[mid - 1] + values[mid]);
}

int SpanRecorder::begin(const char* name, std::int64_t run, const char* label) {
  Span span;
  span.name = name;
  span.label = label;
  span.parent = open_.empty() ? -1 : open_.back();
  span.run = run;
  const int id = static_cast<int>(spans_.size());
  spans_.push_back(span);
  open_.push_back(id);
  // Read the clock last so the bookkeeping above is charged to the parent.
  spans_.back().start_ns = now_ns();
  return id;
}

void SpanRecorder::end(int id) {
  const std::int64_t t = now_ns();
  if (open_.empty() || open_.back() != id) {
    throw std::logic_error("span closed out of order");
  }
  spans_[static_cast<std::size_t>(id)].end_ns = t;
  open_.pop_back();
}

void SpanRecorder::write_jsonl(std::ostream& out) const {
  for (const Span& s : spans_) {
    out << "{\"name\":\"" << s.name << "\",\"label\":\"" << s.label
        << "\",\"parent\":" << s.parent << ",\"run\":" << s.run
        << ",\"start_ns\":" << s.start_ns << ",\"end_ns\":" << s.end_ns
        << "}\n";
  }
}

std::vector<double> self_seconds(const std::vector<Span>& spans) {
  std::vector<double> self(spans.size());
  for (std::size_t i = 0; i < spans.size(); ++i) self[i] = spans[i].seconds();
  for (const Span& s : spans) {
    if (s.parent >= 0) self[static_cast<std::size_t>(s.parent)] -= s.seconds();
  }
  return self;
}

std::string check_well_formed(const std::vector<Span>& spans) {
  std::ostringstream problem;
  for (std::size_t i = 0; i < spans.size(); ++i) {
    const Span& s = spans[i];
    if (s.end_ns < s.start_ns) {
      problem << "span " << i << " (" << s.name << ") ends before it starts";
      return problem.str();
    }
    if (s.parent < 0) continue;
    if (static_cast<std::size_t>(s.parent) >= i) {
      problem << "span " << i << " (" << s.name << ") has parent "
              << s.parent << " that does not precede it";
      return problem.str();
    }
    const Span& p = spans[static_cast<std::size_t>(s.parent)];
    if (s.start_ns < p.start_ns || s.end_ns > p.end_ns) {
      problem << "span " << i << " (" << s.name << ") lies outside its parent "
              << s.parent << " (" << p.name << ")";
      return problem.str();
    }
  }
  const std::vector<double> self = self_seconds(spans);
  for (std::size_t i = 0; i < spans.size(); ++i) {
    if (self[i] < 0.0) {
      problem << "span " << i << " (" << spans[i].name
              << ") has negative self time " << self[i] << " s";
      return problem.str();
    }
  }
  return {};
}

std::vector<int> roots(const std::vector<Span>& spans) {
  std::vector<int> root(spans.size());
  for (std::size_t i = 0; i < spans.size(); ++i) {
    const int parent = spans[i].parent;
    root[i] = parent < 0 ? static_cast<int>(i)
                         : root[static_cast<std::size_t>(parent)];
  }
  return root;
}

}  // namespace perfbench
