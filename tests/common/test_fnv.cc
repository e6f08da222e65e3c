#include <gtest/gtest.h>

#include "common/fnv.h"

namespace harmonia {
namespace {

TEST(Fnv1a64, StandardVectors)
{
    EXPECT_EQ(Fnv1a64().bytes("").value(), 0xcbf29ce484222325ULL);
    EXPECT_EQ(Fnv1a64().bytes("a").value(), 0xaf63dc4c8601ec8cULL);
    EXPECT_EQ(Fnv1a64().bytes("foobar").value(), 0x85944171f73967e8ULL);
}

TEST(Fnv1a64, WordsFoldLeastSignificantByteFirst)
{
    EXPECT_EQ(Fnv1a64().u32(0x64636261).value(),
              Fnv1a64().bytes("abcd").value());
    EXPECT_EQ(Fnv1a64().u64(0x6867666564636261ULL).value(),
              Fnv1a64().bytes("abcdefgh").value());
    EXPECT_EQ(Fnv1a64().str("ab").value(),
              Fnv1a64().bytes(std::string_view("ab\0", 3)).value());
}

} // namespace
} // namespace harmonia
