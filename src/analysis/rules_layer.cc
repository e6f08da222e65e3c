/**
 * @file
 * LAYER rules: the declared layer manifest and the include graph.
 *
 * - LAYER-001 (Error): the file-level include graph must be acyclic.
 * - LAYER-002 (Error): an include must never point to a layer ranked
 *   above the including file's layer. The handful of historical
 *   back-edges in the tree carry inline allow() annotations, so any
 *   *new* upward edge fails the lint.
 * - LAYER-003 (Warning): includes into a directory the manifest does
 *   not rank (usually a new subsystem that must be added here).
 */

#include <algorithm>
#include <map>
#include <vector>

#include "analysis/analyzer.h"
#include "common/logging.h"

namespace harmonia {
namespace analysis {

namespace {

/**
 * The layer manifest, lowest first. A file in src/<dir>/ may include
 * headers of its own layer or of any layer listed before it. This is
 * the architecture contract; changing it is a design decision, not a
 * lint tweak.
 */
const std::vector<std::string> &
layerOrder()
{
    static const std::vector<std::string> kOrder = {
        "common",    // leaf utilities, depends on nothing
        "sim",       // clocks, components, engine, trace
        "rtl",       // FIFOs, arbiters, CRC primitives
        "protocol",  // AXI/Avalon models
        "device",    // chips, resources, device DB
        "telemetry", // metrics registry, exporters, profiler
        "cmd",       // command packets + unified control kernel
        "ip",        // vendor IP models
        "fault",     // fault plan + recovery
        "wrapper",   // protocol wrappers
        "shell",     // RBBs, CDC, the unified shell
        "adapter",   // vendor adapters + toolchain
        "drc",       // design-rule checker
        "roles",     // application roles
        "workload",  // workload generators
        "obs",       // sampler, time-series store, SLO, flight recorder
        "host",      // host-side drivers and DMA
        "ha",        // watchdog + failover orchestration over drivers
        "fleet",     // rack-scale scheduler over the HA + obs planes
        "frameworks",// comparison frameworks
        "analysis",  // this subsystem: nothing may depend on it
    };
    return kOrder;
}

int
layerRank(const std::string &dir)
{
    const auto &order = layerOrder();
    for (std::size_t i = 0; i < order.size(); ++i)
        if (order[i] == dir)
            return static_cast<int>(i);
    return -1;
}

/** Directory of an include target like "common/json.h". */
std::string
includeDir(const std::string &target)
{
    const std::size_t slash = target.find('/');
    return slash == std::string::npos ? "" : target.substr(0, slash);
}

// --- Cycle detection over the file-level include graph. -------------

struct Graph {
    const Corpus *corpus = nullptr;
    // adjacency: file index -> (include line, target file index)
    std::vector<std::vector<std::pair<int, std::size_t>>> edges;
};

Graph
buildGraph(const Corpus &corpus)
{
    Graph g;
    g.corpus = &corpus;
    std::map<std::string, std::size_t> index;
    for (std::size_t i = 0; i < corpus.files().size(); ++i)
        index[corpus.files()[i].path] = i;
    g.edges.resize(corpus.files().size());
    for (std::size_t i = 0; i < corpus.files().size(); ++i) {
        for (const IncludeDirective &inc :
             corpus.files()[i].includes) {
            auto it = index.find("src/" + inc.target);
            if (it != index.end())
                g.edges[i].push_back({inc.line, it->second});
        }
    }
    return g;
}

/** DFS colors. */
enum class Mark { White, Grey, Black };

bool
findCycle(const Graph &g, std::size_t at, std::vector<Mark> &marks,
          std::vector<std::size_t> &stack,
          std::vector<std::size_t> *cycle, int *report_line)
{
    marks[at] = Mark::Grey;
    stack.push_back(at);
    for (const auto &e : g.edges[at]) {
        if (marks[e.second] == Mark::Grey) {
            // Found: slice the stack from the first occurrence.
            auto begin = std::find(stack.begin(), stack.end(),
                                   e.second);
            cycle->assign(begin, stack.end());
            *report_line = e.first;
            return true;
        }
        if (marks[e.second] == Mark::White &&
            findCycle(g, e.second, marks, stack, cycle, report_line))
            return true;
    }
    stack.pop_back();
    marks[at] = Mark::Black;
    return false;
}

} // namespace

void
checkLayerRules(const Corpus &corpus, Reporter &out)
{
    // LAYER-002 / LAYER-003: manifest-ranked includes.
    for (const SourceFile &f : corpus.files()) {
        const std::string from_dir = f.layerDir();
        const int from_rank = layerRank(from_dir);
        if (from_rank < 0) {
            out.emit(f, 1, "LAYER-003", drc::Severity::Warning,
                     format("directory 'src/%s' is not in the layer "
                            "manifest",
                            from_dir.c_str()),
                     "rank the new subsystem in "
                     "src/analysis/rules_layer.cc");
            continue;
        }
        for (const IncludeDirective &inc : f.includes) {
            const std::string to_dir = includeDir(inc.target);
            if (to_dir.empty() || to_dir == from_dir)
                continue;
            const int to_rank = layerRank(to_dir);
            if (to_rank < 0) {
                out.emit(f, inc.line, "LAYER-003",
                         drc::Severity::Warning,
                         format("include of unranked layer '%s'",
                                to_dir.c_str()),
                         "rank the directory in the layer manifest");
                continue;
            }
            if (to_rank > from_rank)
                out.emit(f, inc.line, "LAYER-002",
                         drc::Severity::Error,
                         format("upward include: layer '%s' (rank %d) "
                                "must not depend on '%s' (rank %d)",
                                from_dir.c_str(), from_rank,
                                to_dir.c_str(), to_rank),
                         "invert the dependency, or annotate a known "
                         "historical back-edge with "
                         "harmonia-lint: allow(LAYER-002)");
        }
    }

    // LAYER-001: include cycles.
    const Graph g = buildGraph(corpus);
    std::vector<Mark> marks(corpus.files().size(), Mark::White);
    for (std::size_t i = 0; i < corpus.files().size(); ++i) {
        if (marks[i] != Mark::White)
            continue;
        std::vector<std::size_t> stack, cycle;
        int line = 0;
        if (findCycle(g, i, marks, stack, &cycle, &line)) {
            std::string chain;
            for (std::size_t n : cycle)
                chain += corpus.files()[n].path + " -> ";
            chain += corpus.files()[cycle.front()].path;
            out.emit(corpus.files()[cycle.back()], line, "LAYER-001",
                     drc::Severity::Error,
                     "include cycle: " + chain,
                     "break the cycle with a forward declaration or "
                     "an interface split");
            // One cycle per component is enough signal; finish the
            // coloring so other components still get checked.
            for (auto &m : marks)
                if (m == Mark::Grey)
                    m = Mark::Black;
        }
    }
}

} // namespace analysis
} // namespace harmonia
