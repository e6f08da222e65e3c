#include "sim/trace.h"

#include <cstdarg>
#include <cstdlib>

#include "common/logging.h"
#include "common/strings.h"
#include "sim/component.h"

namespace harmonia {

thread_local TraceContext Trace::current_;

void
Trace::applyEnvCapacity()
{
    const char *cap = std::getenv("HARMONIA_TRACE_CAP");
    if (cap == nullptr || *cap == '\0')
        return;
    char *end = nullptr;
    const unsigned long long v = std::strtoull(cap, &end, 10);
    if (end == cap || *end != '\0' || v == 0) {
        warn("ignoring malformed HARMONIA_TRACE_CAP='%s'", cap);
        return;
    }
    setCapacity(static_cast<std::size_t>(v));
    setMaxOpenSpans(static_cast<std::size_t>(v));
}

void
Trace::pushEntry(Tick tick, std::string_view who, std::string_view what)
{
    entries_.push({tick, std::string(who), std::string(what)});
}

SpanId
Trace::openSpan(Tick begin, std::string_view who, std::string_view what,
                std::string_view cat, const TraceContext &ctx)
{
    if (open_.size() >= maxOpen_) {
        ++droppedOpens_;
        return 0;
    }
    const SpanId id = nextSpanId_++;
    open_[id] = {id, ctx.parent, ctx.corr, begin, begin,
                 std::string(who), std::string(what), std::string(cat)};
    return id;
}

Tick
Trace::endSpan(SpanId id, Tick end)
{
    if (id == 0)
        return 0;
    auto it = open_.find(id);
    if (it == open_.end()) {
        // Unbalanced end (double close, or begun while disabled):
        // count it; the completed-span ring stays consistent.
        ++unmatchedEnds_;
        return 0;
    }
    Span span = std::move(it->second);
    open_.erase(it);
    span.end = end < span.begin ? span.begin : end;
    const Tick duration = span.end - span.begin;
    spans_.push(std::move(span));
    return duration;
}

Tick
Trace::openSpanBegin(SpanId id) const
{
    const auto it = open_.find(id);
    return it == open_.end() ? 0 : it->second.begin;
}

void
Trace::pushSpan(Tick begin, Tick end, std::string_view who,
                std::string_view what, std::string_view cat,
                const TraceContext &ctx)
{
    if (end < begin)
        end = begin;
    spans_.push({nextSpanId_++, ctx.parent, ctx.corr, begin, end,
                 std::string(who), std::string(what), std::string(cat)});
}

std::uint16_t
Trace::armTag(const TraceContext &ctx)
{
    if (!enabled_ || tags_.size() >= 0xfffe)
        return 0;
    // Rotating allocation, skipping 0 ("no tag") and live tags so a
    // stale tag in a delayed packet never aliases a newer request.
    while (nextTag_ == 0 || tags_.count(nextTag_) != 0)
        ++nextTag_;
    const std::uint16_t tag = nextTag_++;
    tags_[tag] = ctx;
    return tag;
}

TraceContext
Trace::taggedContext(std::uint16_t tag) const
{
    if (tag == 0)
        return {};
    const auto it = tags_.find(tag);
    return it == tags_.end() ? TraceContext{} : it->second;
}

void
Trace::disarmTag(std::uint16_t tag)
{
    tags_.erase(tag);
}

void
Trace::clear()
{
    entries_.clear();
    spans_.clear();
    open_.clear();
    tags_.clear();
    current_ = TraceContext{};
    unmatchedEnds_ = 0;
    droppedOpens_ = 0;
}

void
Trace::setCapacity(std::size_t capacity)
{
    if (capacity == 0)
        capacity = 1;
    entries_.setCapacity(capacity);
    spans_.setCapacity(capacity);
}

void
Trace::setMaxOpenSpans(std::size_t n)
{
    maxOpen_ = n == 0 ? 1 : n;
}

std::string
Trace::dump(std::size_t last_n) const
{
    std::string out;
    const std::size_t start =
        entries_.size() > last_n ? entries_.size() - last_n : 0;
    for (std::size_t i = start; i < entries_.size(); ++i) {
        const Entry &e = entries_.at(i);
        out += format("%12s  %-24s %s\n",
                      humanTime(e.tick).c_str(), e.who.c_str(),
                      e.what.c_str());
    }
    return out;
}

void
trace(const Component &component, const char *fmt, ...)
{
    Trace &t = Trace::instance();
    if (!t.enabled())
        return;
    va_list ap;
    va_start(ap, fmt);
    std::string what = vformat(fmt, ap);
    va_end(ap);
    t.record(component.now(), component.name(), what);
}

} // namespace harmonia
