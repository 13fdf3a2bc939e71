/// \file spans.hpp
/// \brief In-memory span recorder for the traced run.
///
/// The benchmark opens a span around each call it makes into a layer:
/// name, start, end, the enclosing span and the operation (request) id.
/// Spans stay in memory and are written out once, at exit, as a Chrome
/// trace_event file. Self time of a span is its duration minus the part
/// of it that its child spans cover. Single-threaded: the recorder is
/// only touched by the thread that drives the workload.

#pragma once

#include <cstdint>
#include <iosfwd>
#include <map>
#include <string>
#include <vector>

#include "harness.hpp"

namespace perfbench {

class SpanRecorder {
public:
    static constexpr std::uint32_t kNoParent = UINT32_MAX;

    struct Span {
        const char* name;
        Clock::time_point start;
        Clock::time_point end;
        std::uint32_t parent;
        std::uint64_t request;
    };

    /// Opens a span under the innermost open span; returns its index.
    std::uint32_t open(const char* name, std::uint64_t request);
    void close(std::uint32_t index);

    [[nodiscard]] const std::vector<Span>& spans() const noexcept {
        return spans_;
    }

    struct Totals {
        std::uint64_t count = 0;
        double total_ms = 0.0;
        double self_ms = 0.0;
    };
    /// Per span name: count, summed duration and summed self time.
    [[nodiscard]] std::map<std::string, Totals> totals() const;

    /// Chrome trace_event JSON ("X" events, args carry parent and request).
    void write_chrome(std::ostream& os) const;

private:
    std::vector<Span> spans_;
    std::vector<std::uint32_t> stack_;
};

/// RAII span; a null recorder makes it a no-op.
class SpanScope {
public:
    SpanScope(SpanRecorder* rec, const char* name, std::uint64_t request)
        : rec_{rec}, index_{rec ? rec->open(name, request) : 0} {}
    ~SpanScope() {
        if (rec_) rec_->close(index_);
    }
    SpanScope(const SpanScope&) = delete;
    SpanScope& operator=(const SpanScope&) = delete;

private:
    SpanRecorder* rec_;
    std::uint32_t index_;
};

}  // namespace perfbench
