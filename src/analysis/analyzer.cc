#include "analysis/analyzer.h"

#include "common/logging.h"

namespace harmonia {
namespace analysis {

bool
Reporter::emit(const SourceFile &file, int line,
               const std::string &rule, drc::Severity severity,
               const std::string &message, const std::string &hint)
{
    if (file.suppressed(line, rule)) {
        ++suppressed_;
        return false;
    }
    report_->add({rule, severity, format("%s:%d", file.path.c_str(), line),
                  message, hint});
    return true;
}

void
Reporter::emitGlobal(const std::string &rule, drc::Severity severity,
                     const std::string &path,
                     const std::string &message,
                     const std::string &hint)
{
    report_->add({rule, severity, path, message, hint});
}

std::vector<RuleFamilyInfo>
ruleFamilies()
{
    return {
        {"LAYER", "layer DAG: include-graph cycles, upward includes "
                  "against the declared layer manifest, unknown "
                  "layers"},
        {"DET", "determinism: no RNG/wall-clock calls anywhere in "
                "src/; no unordered-container iteration in ticked or "
                "command-path code"},
        {"HOT", "hot-path purity: no heap-allocation markers in the "
                "designated hot files; no string-keyed counter "
                "lookups or format() span arguments in ticked code"},
        {"CMD-W", "wire-protocol completeness: every kCmd* code has "
                  "toString coverage, a handler, fuzz-corpus coverage "
                  "and a DESIGN.md mention"},
        {"TRACE", "trace hygiene: beginSpan results must be kept so "
                  "the span can be ended; begin/end call sites must "
                  "pair up per file"},
        {"TEL", "telemetry hygiene: metric-name literals follow the "
                "snake_case/dotted convention"},
    };
}

drc::DrcReport
analyze(const Corpus &corpus)
{
    drc::DrcReport report;
    Reporter out(&report);
    checkLayerRules(corpus, out);
    checkDeterminismRules(corpus, out);
    checkWireProtocolRules(corpus, out);
    checkTraceTelemetryRules(corpus, out);
    return report;
}

drc::DrcReport
analyzeTree(const std::string &root)
{
    Corpus corpus;
    if (!corpus.load(root)) {
        drc::DrcReport report;
        report.add({"ANALYZE-000", drc::Severity::Error, root,
                    "no src/ directory under analysis root",
                    "pass --root pointing at a harmonia tree"});
        return report;
    }
    return analyze(corpus);
}

} // namespace analysis
} // namespace harmonia
