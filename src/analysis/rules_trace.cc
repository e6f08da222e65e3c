/**
 * @file
 * TRACE / TEL rules: observability hygiene.
 *
 * - TRACE-001 (Error): a beginSpan() call whose SpanId is discarded —
 *   the span can never be ended, so it leaks an open-span slot and
 *   skews every occupancy metric derived from the trace.
 * - TRACE-002 (Warning): a file with beginSpan() call sites but no
 *   endSpan() anywhere — pairing probably crosses files; worth a
 *   human look.
 * - TEL-001 (Error): metric-name literals passed to counter() /
 *   gauge() / histogram(), or named in a CounterHandle declaration,
 *   must match [a-z][a-z0-9_.]* — exporters key on the convention
 *   (Prometheus sanitization, dotted JSON paths).
 */

#include <string>

#include "analysis/analyzer.h"
#include "common/logging.h"

namespace harmonia {
namespace analysis {

namespace {

bool
isWordChar(char c)
{
    return (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') ||
           (c >= '0' && c <= '9') || c == '_';
}

/** Position of a .beginSpan( / ->beginSpan( call site, else npos. */
std::size_t
findSpanCall(const std::string &line, const std::string &method)
{
    std::size_t at = 0;
    while ((at = line.find(method + "(", at)) != std::string::npos) {
        const char before = at == 0 ? '\0' : line[at - 1];
        if (before == '.' ||
            (before == '>' && at >= 2 && line[at - 2] == '-'))
            return at;
        at += method.size();
    }
    return std::string::npos;
}

/**
 * The name literal of a `CounterHandle member{group, "name"}`
 * declaration starting on line @p i; "" when the line declares no
 * handle or names it with a non-literal. The initializer may wrap
 * onto the next lines.
 */
std::string
handleNameLiteral(const SourceFile &f, std::size_t i)
{
    const std::string kType = "CounterHandle";
    const std::string &code = f.code[i];
    std::size_t at = code.find(kType);
    if (at == std::string::npos ||
        (at > 0 && isWordChar(code[at - 1])))
        return "";
    // A declarator is an identifier followed by '{' or '(' (not the
    // class itself, a reference return type or a special member).
    std::size_t c = at + kType.size();
    while (c < code.size() && code[c] == ' ')
        ++c;
    const std::size_t ident = c;
    while (c < code.size() && isWordChar(code[c]))
        ++c;
    if (c == ident || c >= code.size() ||
        (code[c] != '{' && code[c] != '('))
        return "";
    for (std::size_t l = i; l < f.code.size() && l < i + 3; ++l) {
        const std::string &lit = f.noComment[l];
        const std::size_t from = l == i ? c : 0;
        const std::size_t end = f.code[l].find(';', from);
        const std::size_t open = lit.find('"', from);
        if (open != std::string::npos &&
            (end == std::string::npos || open < end)) {
            const std::size_t close = lit.find('"', open + 1);
            if (close != std::string::npos)
                return lit.substr(open + 1, close - open - 1);
        }
        if (end != std::string::npos)
            break;
    }
    return "";
}

/** Is the metric name within convention? */
bool
conventionalMetricName(const std::string &name)
{
    if (name.empty() || !(name[0] >= 'a' && name[0] <= 'z'))
        return false;
    for (char c : name)
        if (!((c >= 'a' && c <= 'z') || (c >= '0' && c <= '9') ||
              c == '_' || c == '.'))
            return false;
    return true;
}

} // namespace

void
checkTraceTelemetryRules(const Corpus &corpus, Reporter &out)
{
    static const char *kMetricCtors[] = {"counter", "gauge",
                                         "histogram"};

    for (const SourceFile &f : corpus.files()) {
        bool has_begin_call = false;
        bool has_end_call = false;
        int first_begin_line = 0;

        for (std::size_t i = 0; i < f.code.size(); ++i) {
            const std::string &line = f.code[i];

            const std::size_t begin_at =
                findSpanCall(line, "beginSpan");
            if (begin_at != std::string::npos) {
                has_begin_call = true;
                if (first_begin_line == 0)
                    first_begin_line = static_cast<int>(i) + 1;

                // The result is used when the call sits inside a
                // larger expression: an assignment, an argument
                // list, an initializer or a return on this line —
                // or a continuation of the previous line.
                const std::string prefix =
                    line.substr(0, begin_at);
                int open = 0;
                for (char c : prefix) {
                    if (c == '(')
                        ++open;
                    else if (c == ')')
                        --open;
                }
                bool used =
                    open > 0 ||
                    prefix.find('=') != std::string::npos ||
                    prefix.find(',') != std::string::npos ||
                    prefix.find('{') != std::string::npos ||
                    prefix.find("return") != std::string::npos;
                if (!used && i > 0) {
                    // Continuation: the previous code line left the
                    // expression open.
                    const std::string &prev = f.code[i - 1];
                    const std::size_t last =
                        prev.find_last_not_of(" \t");
                    if (last != std::string::npos &&
                        (prev[last] == '=' || prev[last] == '(' ||
                         prev[last] == ',' || prev[last] == '{'))
                        used = true;
                }
                if (!used)
                    out.emit(f, static_cast<int>(i) + 1, "TRACE-001",
                             drc::Severity::Error,
                             "beginSpan() result discarded — the "
                             "span can never be ended",
                             "keep the SpanId and endSpan() it on "
                             "every exit path");
            }

            if (findSpanCall(line, "endSpan") != std::string::npos)
                has_end_call = true;

            // TEL-001 needs the string literal: use the
            // comment-stripped (string-preserving) view.
            const std::string &lit = f.noComment[i];
            for (const char *ctor : kMetricCtors) {
                std::size_t at = 0;
                const std::string needle =
                    std::string(ctor) + "(\"";
                while ((at = lit.find(needle, at)) !=
                       std::string::npos) {
                    const char before =
                        at == 0 ? '\0' : lit[at - 1];
                    const std::size_t open =
                        at + needle.size();
                    const std::size_t close =
                        lit.find('"', open);
                    at = open;
                    if (isWordChar(before) ||
                        close == std::string::npos)
                        continue;
                    const std::string name =
                        lit.substr(open, close - open);
                    if (!conventionalMetricName(name))
                        out.emit(
                            f, static_cast<int>(i) + 1, "TEL-001",
                            drc::Severity::Error,
                            format("metric name \"%s\" violates "
                                   "the [a-z][a-z0-9_.]* "
                                   "convention",
                                   name.c_str()),
                            "snake_case segments, dots for "
                            "hierarchy; exporters key on this");
                }
            }
        }

        // TEL-001 also covers names declared through handles.
        for (std::size_t i = 0; i < f.code.size(); ++i) {
            const std::string name = handleNameLiteral(f, i);
            if (!name.empty() && !conventionalMetricName(name))
                out.emit(f, static_cast<int>(i) + 1, "TEL-001",
                         drc::Severity::Error,
                         format("counter handle name \"%s\" violates "
                                "the [a-z][a-z0-9_.]* convention",
                                name.c_str()),
                         "snake_case segments, dots for hierarchy; "
                         "exporters key on this");
        }

        if (has_begin_call && !has_end_call)
            out.emit(f, first_begin_line, "TRACE-002",
                     drc::Severity::Warning,
                     "file opens trace spans but never ends one",
                     "confirm the matching endSpan() lives in a "
                     "clearly-paired file, or end the span here");
    }
}

} // namespace analysis
} // namespace harmonia
