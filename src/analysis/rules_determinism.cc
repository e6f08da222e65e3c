/**
 * @file
 * DET / HOT rules: the source-level invariants behind the engine's
 * byte-identical determinism contract and the zero-allocation hot
 * path.
 *
 * - DET-001 (Error): no RNG or wall-clock calls anywhere in src/.
 *   Simulated time is the only clock; seeded streams (FaultPlan) are
 *   the only randomness.
 * - DET-002 (Error): no iteration over std::unordered_* containers in
 *   tick()-reachable or command-path code — bucket order is not part
 *   of the determinism contract.
 * - DET-003 (Warning): an unordered container member declared in
 *   ticked code at all (lookups are fine, but the member invites
 *   iteration; annotate the justification).
 * - HOT-001 (Error): heap-allocation markers in the designated hot
 *   files, which the ROADMAP's zero-allocation wire path builds on.
 * - HOT-002 (Error): string work on the per-tick / per-command path —
 *   a string-keyed counter("...") lookup, or a format() call inside a
 *   beginSpan / completeSpan argument list — in ticked code and the
 *   host driver files. Counters there are CounterHandle members; span
 *   arguments are views the trace copies only when enabled.
 */

#include <map>
#include <set>
#include <vector>

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

/**
 * Find @p token in @p line starting at a word boundary. When
 * @p reject_member is set, a match directly after '.', '>' or ':'
 * does not count (method calls and qualified names are someone
 * else's `time()`, not libc's).
 */
std::size_t
findToken(const std::string &line, const std::string &token,
          bool reject_member = false)
{
    std::size_t at = 0;
    while ((at = line.find(token, at)) != std::string::npos) {
        const char before = at == 0 ? '\0' : line[at - 1];
        if (!isWordChar(before) &&
            !(reject_member &&
              (before == '.' || before == '>' || before == ':')))
            return at;
        at += token.size();
    }
    return std::string::npos;
}

struct BannedToken {
    const char *token;
    bool reject_member;  ///< bare-call only (see findToken)
    const char *why;
};

const BannedToken kBannedCalls[] = {
    {"rand(", false, "libc rand() is process-global state"},
    {"srand(", false, "libc srand() is process-global state"},
    {"rand_r(", false, "rand_r() is wall-entropy seeded in practice"},
    {"drand48(", false, "drand48() is process-global state"},
    {"lrand48(", false, "lrand48() is process-global state"},
    {"random_device", false,
     "std::random_device is hardware entropy"},
    {"arc4random", false, "arc4random is kernel entropy"},
    {"getrandom(", false, "getrandom() is kernel entropy"},
    {"time(", true, "wall-clock time() breaks replayability"},
    {"gettimeofday", false, "wall-clock read"},
    {"clock_gettime", false, "wall-clock read"},
    {"localtime", false, "wall-clock derived"},
    {"gmtime", false, "wall-clock derived"},
    {"system_clock", false, "std::chrono wall clock"},
    {"steady_clock", false,
     "host-monotonic clock; use simulated Tick time"},
    {"high_resolution_clock", false,
     "host clock; use simulated Tick time"},
};

/** Marker that usually means a heap allocation on the hot path. */
struct HotMarker {
    const char *token;
    bool reject_member;
};

const HotMarker kHotMarkers[] = {
    {"new", false},         {"make_unique", false},
    {"make_shared", false}, {"malloc(", true},
    {"calloc(", true},      {"push_back", false},
    {"emplace_back", false},{"resize", false},
    {"reserve", false},
};

/** Files the zero-allocation contract currently covers. */
const char *kHotFiles[] = {
    "src/common/checksum.cc", "src/common/bits.h",
    "src/common/packet.h",    "src/rtl/crc.cc",
    "src/sim/clock.cc",       "src/sim/clock.h",
    "src/cmd/command.h",
};

bool
isHotFile(const std::string &path)
{
    for (const char *f : kHotFiles)
        if (path == f)
            return true;
    return false;
}

/** Host files whose per-command path HOT-002 treats like ticked code. */
const char *kHotHostFiles[] = {
    "src/host/cmd_driver.cc",
    "src/host/dma_engine.cc",
};

/**
 * Does the span call's argument list opening at @p line / @p at call
 * format()? The list is followed across lines until its parentheses
 * balance (string literals are blanked in the code view).
 */
bool
spanArgsFormat(const SourceFile &f, std::size_t line, std::size_t at)
{
    std::string args;
    int depth = 0;
    for (std::size_t i = line; i < f.code.size() && i < line + 8; ++i) {
        const std::string &text = f.code[i];
        for (std::size_t c = i == line ? at : 0; c < text.size(); ++c) {
            args += text[c];
            if (text[c] == '(')
                ++depth;
            else if (text[c] == ')' && --depth == 0)
                return findToken(args, "format(") != std::string::npos;
        }
        args += ' ';
    }
    return findToken(args, "format(") != std::string::npos;
}

/** HOT-002 over one hot file. */
void
checkHotStrings(const SourceFile &f, Reporter &out)
{
    for (std::size_t i = 0; i < f.code.size(); ++i) {
        const int line = static_cast<int>(i) + 1;
        // The literal survives only in the comment-stripped view.
        if (findToken(f.noComment[i], "counter(\"") != std::string::npos)
            out.emit(f, line, "HOT-002", drc::Severity::Error,
                     "string-keyed counter(\"...\") lookup on the hot "
                     "path",
                     "hold a CounterHandle member (common/stats.h) "
                     "declared after its StatGroup");
        for (const std::string call : {"beginSpan", "completeSpan"}) {
            const std::size_t at = findToken(f.code[i], call + "(");
            if (at != std::string::npos &&
                spanArgsFormat(f, i, at + call.size()))
                out.emit(f, line, "HOT-002", drc::Severity::Error,
                         format("format() in a %s() argument list",
                                call.c_str()),
                         "span arguments are views the trace copies "
                         "only when enabled; build a label behind "
                         "Trace::enabled() or pass a stored name");
        }
    }
}

/** Does this file (alone) define ticked or command-path code? */
bool
definesTickedCode(const SourceFile &f)
{
    for (const std::string &line : f.code) {
        if (line.find("tick() override") != std::string::npos)
            return true;
        if (line.find("void tick()") != std::string::npos)
            return true;
        if (line.find("::tick()") != std::string::npos)
            return true;
        if (line.find("executeCommand(") != std::string::npos)
            return true;
    }
    return false;
}

/** Unordered-container members declared in @p f: name -> decl line. */
std::map<std::string, int>
unorderedMembers(const SourceFile &f)
{
    static const char *kKinds[] = {
        "unordered_map<", "unordered_set<", "unordered_multimap<",
        "unordered_multiset<"};
    std::map<std::string, int> members;
    for (std::size_t i = 0; i < f.code.size(); ++i) {
        const std::string &line = f.code[i];
        bool has_kind = false;
        for (const char *k : kKinds)
            if (line.find(k) != std::string::npos)
                has_kind = true;
        if (!has_kind)
            continue;
        // Take the identifier that ends the declarator: the last
        // word before ';', '{' or '=' on this line.
        std::size_t end = line.find_last_of(";{=");
        if (end == std::string::npos)
            continue;
        std::size_t e = end;
        while (e > 0 && !isWordChar(line[e - 1]))
            --e;
        std::size_t b = e;
        while (b > 0 && isWordChar(line[b - 1]))
            --b;
        if (e > b && !(line[b] >= '0' && line[b] <= '9'))
            members[line.substr(b, e - b)] =
                static_cast<int>(i) + 1;
    }
    return members;
}

} // namespace

void
checkDeterminismRules(const Corpus &corpus, Reporter &out)
{
    // Ticked-ness is a property of the component, which spans the
    // .h/.cc pair: a tick() declared in the header makes the
    // implementation file ticked code too.
    std::set<std::string> ticked;
    for (const SourceFile &f : corpus.files())
        if (definesTickedCode(f)) {
            ticked.insert(f.path);
            const std::string companion = f.companionPath();
            if (!companion.empty())
                ticked.insert(companion);
        }

    for (const SourceFile &f : corpus.files()) {
        // HOT-002 over ticked code and the host driver files.
        bool hot_path = ticked.count(f.path) != 0;
        for (const char *host : kHotHostFiles)
            hot_path = hot_path || f.path == host;
        if (hot_path)
            checkHotStrings(f, out);

        // DET-001 over every src file.
        for (std::size_t i = 0; i < f.code.size(); ++i) {
            for (const BannedToken &t : kBannedCalls) {
                if (findToken(f.code[i], t.token,
                              t.reject_member) == std::string::npos)
                    continue;
                out.emit(f, static_cast<int>(i) + 1, "DET-001",
                         drc::Severity::Error,
                         format("nondeterministic call '%s': %s",
                                t.token, t.why),
                         "derive randomness from a seeded stream "
                         "(fault/fault_plan.h) and time from the "
                         "simulated clock");
            }
        }

        // HOT-001 in the designated hot files.
        if (isHotFile(f.path)) {
            for (std::size_t i = 0; i < f.code.size(); ++i)
                for (const HotMarker &m : kHotMarkers)
                    if (findToken(f.code[i], m.token,
                                  m.reject_member) !=
                        std::string::npos)
                        out.emit(
                            f, static_cast<int>(i) + 1, "HOT-001",
                            drc::Severity::Error,
                            format("allocation marker '%s' in "
                                   "designated hot file",
                                   m.token),
                            "hot files are allocation-free by "
                            "contract; use fixed-size storage or "
                            "move the code out of the hot set");
        }

        // DET-002 / DET-003 in ticked code.
        if (ticked.count(f.path) == 0)
            continue;
        std::map<std::string, int> members = unorderedMembers(f);
        const SourceFile *companion =
            corpus.find(f.companionPath());
        if (companion != nullptr)
            for (const auto &m : unorderedMembers(*companion))
                members.emplace(m.first, 0);  // declared elsewhere

        for (const auto &m : members) {
            if (m.second > 0)
                out.emit(f, m.second, "DET-003",
                         drc::Severity::Warning,
                         format("unordered container member '%s' in "
                                "ticked code",
                                m.first.c_str()),
                         "lookups are fine; if iteration is never "
                         "needed, annotate with "
                         "harmonia-lint: allow(DET-003) and say why");

            for (std::size_t i = 0; i < f.code.size(); ++i) {
                const std::string &line = f.code[i];
                const bool iterates =
                    line.find(m.first + ".begin()") !=
                        std::string::npos ||
                    line.find(m.first + ".cbegin()") !=
                        std::string::npos ||
                    line.find(m.first + ".rbegin()") !=
                        std::string::npos ||
                    (line.find("for") != std::string::npos &&
                     line.find(": " + m.first) != std::string::npos);
                if (iterates)
                    out.emit(f, static_cast<int>(i) + 1, "DET-002",
                             drc::Severity::Error,
                             format("iteration over unordered "
                                    "container '%s' in ticked code",
                                    m.first.c_str()),
                             "bucket order is outside the "
                             "determinism contract; keep a sorted "
                             "or insertion-ordered structure for "
                             "traversal");
            }
        }
    }
}

} // namespace analysis
} // namespace harmonia
