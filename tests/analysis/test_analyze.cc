/**
 * @file
 * Self-test for harmonia-analyze: the committed fixture repo trips
 * every rule family, suppression annotations silence exactly the
 * annotated line, and — the CI-blocking acceptance criterion — the
 * real source tree is Error-free.
 */

#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "analysis/analyzer.h"

#ifndef HARMONIA_SOURCE_ROOT
#error "HARMONIA_SOURCE_ROOT must point at the repository root"
#endif

namespace harmonia {
namespace {

const std::string kRoot = HARMONIA_SOURCE_ROOT;
const std::string kBadRepo =
    kRoot + "/tests/analysis/fixtures/badrepo";

TEST(Analyze, CleanTreeHasZeroErrors)
{
    const drc::DrcReport report = analysis::analyzeTree(kRoot);
    for (const drc::Diagnostic &d : report.diagnostics())
        if (d.severity == drc::Severity::Error)
            ADD_FAILURE() << d.toString();
    EXPECT_TRUE(report.clean());
}

TEST(Analyze, FixtureTripsEveryRuleFamily)
{
    const drc::DrcReport report = analysis::analyzeTree(kBadRepo);
    EXPECT_FALSE(report.clean());
    for (const char *rule :
         {"LAYER-001", "LAYER-002", "LAYER-003", "DET-001", "DET-002",
          "DET-003", "HOT-002", "CMD-W1", "CMD-W2", "TRACE-001",
          "TRACE-002", "TEL-001"})
        EXPECT_TRUE(report.hasRule(rule)) << rule;
}

TEST(Analyze, Hot002FlagsCounterLookupAndSpanFormat)
{
    // ticker.cc is ticked code with one string-keyed counter() and
    // one format() inside a wrapped beginSpan argument list.
    const drc::DrcReport report = analysis::analyzeTree(kBadRepo);
    const auto found = report.byRule("HOT-002");
    ASSERT_EQ(found.size(), 2u);
    EXPECT_EQ(found[0].path, "src/sim/ticker.cc:14");
    EXPECT_NE(found[0].message.find("counter"), std::string::npos);
    EXPECT_EQ(found[1].path, "src/sim/ticker.cc:15");
    EXPECT_NE(found[1].message.find("beginSpan"), std::string::npos);
}

TEST(Analyze, Tel001SeesCounterHandleNames)
{
    // handles.h declares one conventional handle name and two that
    // break the convention: a wrapped initializer, and a group named
    // through a call. Only the two trip.
    const drc::DrcReport report = analysis::analyzeTree(kBadRepo);
    std::vector<std::string> in_handles;
    for (const drc::Diagnostic &d : report.byRule("TEL-001"))
        if (d.path.find("handles.h") != std::string::npos)
            in_handles.push_back(d.path + " " + d.message);
    ASSERT_EQ(in_handles.size(), 2u);
    EXPECT_NE(in_handles[0].find("handles.h:12 "), std::string::npos)
        << in_handles[0];
    EXPECT_NE(in_handles[0].find("Bad-Handle"), std::string::npos);
    EXPECT_NE(in_handles[1].find("handles.h:14 "), std::string::npos)
        << in_handles[1];
    EXPECT_NE(in_handles[1].find("badCall"), std::string::npos);
}

TEST(Analyze, SuppressionSilencesAnnotatedLine)
{
    const drc::DrcReport report = analysis::analyzeTree(kBadRepo);
    // suppressed.h carries a rand() under an allow(DET-001): the rule
    // still fires elsewhere in the fixture, never in that file.
    EXPECT_TRUE(report.hasRule("DET-001"));
    for (const drc::Diagnostic &d : report.byRule("DET-001"))
        EXPECT_EQ(d.path.find("suppressed"), std::string::npos)
            << d.toString();
}

TEST(Analyze, MissingRootReportsAnalyze000)
{
    const drc::DrcReport report =
        analysis::analyzeTree("/nonexistent/harmonia-tree");
    EXPECT_TRUE(report.hasRule("ANALYZE-000"));
    EXPECT_FALSE(report.clean());
}

TEST(Analyze, RuleFamiliesAreListed)
{
    EXPECT_GE(analysis::ruleFamilies().size(), 4u);
}

} // namespace
} // namespace harmonia
