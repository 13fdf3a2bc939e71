#include "spans.hpp"

#include <ostream>

namespace perfbench {

std::uint32_t SpanRecorder::open(const char* name, std::uint64_t request) {
    const auto index = static_cast<std::uint32_t>(spans_.size());
    const std::uint32_t parent = stack_.empty() ? kNoParent : stack_.back();
    const Clock::time_point now = Clock::now();
    spans_.push_back(Span{name, now, now, parent, request});
    stack_.push_back(index);
    return index;
}

void SpanRecorder::close(std::uint32_t index) {
    spans_[index].end = Clock::now();
    if (!stack_.empty() && stack_.back() == index) stack_.pop_back();
}

std::map<std::string, SpanRecorder::Totals> SpanRecorder::totals() const {
    // Children of one span never overlap (one thread, strict nesting), so
    // the time they cover is the sum of their durations.
    std::vector<double> child_ms(spans_.size(), 0.0);
    for (const Span& s : spans_) {
        if (s.parent != kNoParent) child_ms[s.parent] += ms_between(s.start, s.end);
    }
    std::map<std::string, Totals> out;
    for (std::size_t i = 0; i < spans_.size(); ++i) {
        const Span& s = spans_[i];
        const double dur = ms_between(s.start, s.end);
        Totals& t = out[s.name];
        ++t.count;
        t.total_ms += dur;
        t.self_ms += dur - child_ms[i];
    }
    return out;
}

void SpanRecorder::write_chrome(std::ostream& os) const {
    const Clock::time_point origin =
        spans_.empty() ? Clock::now() : spans_.front().start;
    os << "{\"traceEvents\":[\n";
    for (std::size_t i = 0; i < spans_.size(); ++i) {
        const Span& s = spans_[i];
        os << (i ? ",\n" : "") << "{\"name\":\"" << s.name
           << "\",\"ph\":\"X\",\"pid\":1,\"tid\":1,\"ts\":"
           << ms_between(origin, s.start) * 1000.0
           << ",\"dur\":" << ms_between(s.start, s.end) * 1000.0
           << ",\"args\":{\"span\":" << i << ",\"parent\":";
        if (s.parent == kNoParent) {
            os << "null";
        } else {
            os << s.parent;
        }
        os << ",\"request\":" << s.request << "}}";
    }
    os << "\n]}\n";
}

}  // namespace perfbench
