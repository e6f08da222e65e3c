#include "spans.h"

#include <cstdio>
#include <cstring>

#include "bench.h"

namespace perfbench {

std::int32_t
SpanLog::open(const char *name, std::uint64_t op)
{
    if (!enabled_)
        return -1;
    Span s;
    s.name = name;
    s.parent = stack_.empty() ? -1 : stack_.back();
    s.op = op;
    const auto idx = static_cast<std::int32_t>(spans_.size());
    stack_.push_back(idx);
    // Stamp last so the bookkeeping above stays outside the span.
    s.beginNs = wallNs();
    spans_.push_back(s);
    return idx;
}

void
SpanLog::close(std::int32_t idx)
{
    if (idx < 0)
        return;
    spans_[static_cast<std::size_t>(idx)].endNs = wallNs();
    stack_.pop_back();
}

std::vector<double>
SpanLog::durationsUs(const char *name) const
{
    std::vector<double> out;
    for (const Span &s : spans_)
        if (std::strcmp(s.name, name) == 0)
            out.push_back(s.us());
    return out;
}

double
SpanLog::totalUs(const char *name) const
{
    double total = 0.0;
    for (const Span &s : spans_)
        if (std::strcmp(s.name, name) == 0)
            total += s.us();
    return total;
}

double
SpanLog::opCoverage() const
{
    double op_us = 0.0;
    double covered_us = 0.0;
    for (const Span &s : spans_) {
        if (std::strcmp(s.name, kOpSpan) == 0 && s.parent < 0)
            op_us += s.us();
        else if (s.parent >= 0 &&
                 std::strcmp(spans_[static_cast<std::size_t>(s.parent)]
                                 .name,
                             kOpSpan) == 0)
            covered_us += s.us();
    }
    return op_us > 0.0 ? covered_us / op_us : 0.0;
}

bool
SpanLog::writeChromeTrace(const std::string &path) const
{
    std::FILE *f = std::fopen(path.c_str(), "w");
    if (f == nullptr)
        return false;
    const std::int64_t t0 = spans_.empty() ? 0 : spans_.front().beginNs;
    std::fputs("{\"traceEvents\":[\n", f);
    for (std::size_t i = 0; i < spans_.size(); ++i) {
        const Span &s = spans_[i];
        std::fprintf(f,
                     "%s{\"name\":\"%s\",\"ph\":\"X\",\"pid\":1,"
                     "\"tid\":1,\"ts\":%.3f,\"dur\":%.3f,\"args\":"
                     "{\"id\":%zu,\"parent\":%d,\"op\":%llu}}\n",
                     i == 0 ? "" : ",", s.name,
                     static_cast<double>(s.beginNs - t0) / 1e3, s.us(),
                     i, s.parent,
                     static_cast<unsigned long long>(s.op));
    }
    std::fputs("]}\n", f);
    return std::fclose(f) == 0;
}

} // namespace perfbench
