/**
 * @file
 * Unit tests for --mem-backend spec parsing and canonicalization.
 * canonical() joins the result-store fingerprint, so the invariants
 * here (defaults canonicalize away, spellings collapse, errors are
 * rejected early) protect fingerprint stability across releases.
 */

#include <gtest/gtest.h>

#include "sim/mem_backend.hh"
#include "sim/mem_dram.hh"

namespace stms
{
namespace
{

MemBackendSpec
parseOk(const std::string &text)
{
    MemBackendSpec spec;
    std::string error;
    const bool ok = parseMemBackendSpec(text, spec, error);
    EXPECT_TRUE(ok) << text << ": " << error;
    return spec;
}

std::string
parseFail(const std::string &text)
{
    MemBackendSpec spec;
    std::string error;
    EXPECT_FALSE(parseMemBackendSpec(text, spec, error)) << text;
    EXPECT_FALSE(error.empty());
    return error;
}

TEST(MemBackendSpec, DefaultSpecIsCanonicalFixed)
{
    MemBackendSpec spec;
    EXPECT_TRUE(spec.isDefault());
    EXPECT_EQ(spec.canonical(), "fixed");
    EXPECT_EQ(parseOk("fixed").canonical(), "fixed");
}

TEST(MemBackendSpec, KindsParse)
{
    EXPECT_EQ(parseOk("fixed").kind, MemBackendKind::Fixed);
    EXPECT_EQ(parseOk("queued").kind, MemBackendKind::Queued);
    EXPECT_EQ(parseOk("dram").kind, MemBackendKind::Dram);
    EXPECT_FALSE(parseOk("queued").isDefault());
    EXPECT_FALSE(parseOk("dram").isDefault());
}

TEST(MemBackendSpec, ExplicitDefaultsCanonicalizeAway)
{
    // Spelling out a default value must fingerprint identically to
    // omitting it.
    EXPECT_EQ(parseOk("queued,channels=2").canonical(), "queued");
    EXPECT_EQ(parseOk("dram,ranks=1,banks=8,row-bytes=8192").canonical(),
              "dram");
    EXPECT_EQ(parseOk("dram,trcd=60,tcas=60,trp=60,tras=160,policy=open")
                  .canonical(),
              "dram");
    EXPECT_EQ(parseOk("fixed,latency=180,transfer=9").canonical(),
              "fixed");
    EXPECT_TRUE(parseOk("fixed,latency=180").isDefault());
}

TEST(MemBackendSpec, NonDefaultsSurviveInFixedKeyOrder)
{
    EXPECT_EQ(parseOk("queued,channels=4").canonical(),
              "queued,channels=4");
    EXPECT_EQ(parseOk("dram,policy=closed,banks=16").canonical(),
              "dram,banks=16,policy=closed");
    // Key order in the input must not matter.
    EXPECT_EQ(parseOk("dram,banks=16,policy=closed").canonical(),
              parseOk("dram,policy=closed,banks=16").canonical());
    EXPECT_EQ(parseOk("fixed,latency=90").canonical(),
              "fixed,latency=90");
    EXPECT_EQ(parseOk("dram,channels=2,tras=200").canonical(),
              "dram,channels=2,tras=200");
}

TEST(MemBackendSpec, ParsedFieldsReachTheBackendConfig)
{
    const MemBackendSpec spec =
        parseOk("dram,channels=2,banks=16,row-bytes=4096,trcd=45,"
                "policy=closed");
    EXPECT_EQ(spec.kind, MemBackendKind::Dram);
    EXPECT_EQ(spec.channels, 2u);
    EXPECT_EQ(spec.banksPerRank, 16u);
    EXPECT_EQ(spec.rowBytes, 4096u);
    EXPECT_EQ(spec.tRcd, 45u);
    EXPECT_EQ(spec.policy, PagePolicy::Closed);

    EventQueue events;
    auto mem = makeMemBackend(events, spec, MemCtrlConfig{});
    EXPECT_NE(dynamic_cast<DramBackend *>(mem.get()), nullptr);
    EXPECT_EQ(mem->channels(), 2u);
}

TEST(MemBackendSpec, RejectsBadInput)
{
    parseFail("");
    parseFail("sram");
    parseFail("fixed,channels=2");      // Fixed has one channel.
    parseFail("fixed,trcd=60");         // DRAM-only key.
    parseFail("queued,policy=open");    // DRAM-only key.
    parseFail("dram,latency=100");      // Use trcd/tcas/trp instead.
    parseFail("queued,channels=0");     // Zero is not a count.
    parseFail("queued,channels=two");   // Junk value.
    parseFail("dram,row-bytes=100");    // Not a multiple of 64.
    parseFail("dram,policy=sideways");
    parseFail("dram,frobnicate=1");     // Unknown key.
    parseFail("queued,channels");       // Missing '='.
    parseFail("queued,=2");             // Missing key.
}

TEST(MemBackendSpec, RejectsOutOfRangeNumbers)
{
    // A sign or whitespace is junk, never a wrapped or skipped value.
    EXPECT_EQ(parseFail("queued,channels=-1"),
              "backend parameter channels needs an integer in 1..64, "
              "got '-1'");
    parseFail("fixed,latency=-1");
    parseFail("fixed,latency=+180");
    parseFail("fixed,latency= 180");
    parseFail("queued,channels=4 ");
    // Values past a field's range are rejected, not truncated:
    // channels=4294967296 once became the default two channels.
    parseFail("queued,channels=4294967296");
    parseFail("fixed,latency=4294967296");
    parseFail("fixed,transfer=18446744073709551616");
    parseFail("dram,row-bytes=4294967360");
    // Structure counts stop at kMaxMemStructureCount.
    EXPECT_EQ(parseOk("queued,channels=64").channels, 64u);
    EXPECT_EQ(parseOk("dram,ranks=64,banks=64").banksPerRank, 64u);
    parseFail("queued,channels=65");
    parseFail("dram,ranks=65");
    EXPECT_EQ(parseFail("dram,banks=1000"),
              "backend parameter banks needs an integer in 1..64, "
              "got '1000'");
    // The largest timing value still parses.
    EXPECT_EQ(parseOk("fixed,latency=4294967295").accessLatency,
              4294967295u);
}

TEST(MemBackendSpec, FailedParseLeavesSpecUntouched)
{
    MemBackendSpec spec;
    spec.kind = MemBackendKind::Queued;
    spec.channels = 8;
    std::string error;
    ASSERT_FALSE(parseMemBackendSpec("dram,banks=zero", spec, error));
    EXPECT_EQ(spec.kind, MemBackendKind::Queued);
    EXPECT_EQ(spec.channels, 8u);
}

} // namespace
} // namespace stms
