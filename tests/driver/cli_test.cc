/** @file Tests of the driver command-line parser, including the
 *  GNU-style --flag=value spellings and key=value passthrough. */

#include <gtest/gtest.h>

#include <array>
#include <filesystem>
#include <string>
#include <unistd.h>

#include "driver/cli.hh"

namespace stms::driver
{
namespace
{

DriverArgs
parse(std::vector<const char *> tokens, bool expect_ok = true)
{
    tokens.insert(tokens.begin(), "driver");
    DriverArgs args;
    std::string error;
    const bool ok = parseDriverArgs(
        static_cast<int>(tokens.size()),
        const_cast<char **>(tokens.data()), args, error);
    EXPECT_EQ(ok, expect_ok) << error;
    return args;
}

/** The error parseDriverArgs reports for @p tokens ("" on success). */
std::string
parseError(std::vector<const char *> tokens)
{
    tokens.insert(tokens.begin(), "driver");
    DriverArgs args;
    std::string error;
    if (parseDriverArgs(static_cast<int>(tokens.size()),
                        const_cast<char **>(tokens.data()), args,
                        error))
        return "";
    return error;
}

/** Every parsed field, rendered so two DriverArgs can be compared. */
std::string
describe(const DriverArgs &a)
{
    std::string out;
    for (const std::string &name : a.experiments)
        out += "experiment=" + name + ";";
    for (const auto &[key, value] : a.options.items())
        out += "option." + key + "=" + value + ";";
    for (const std::string &operand : a.resultsArgs)
        out += "operand=" + operand + ";";
    const std::uint64_t numbers[] = {
        a.threads,      a.pipelineChunk, a.traceCacheMb,
        a.sampleEvery,  a.shardIndex,    a.shardCount,
        a.pipeline,     a.timing,        a.csv,
        a.list,         a.help,          a.verbose,
        a.rerun,        static_cast<std::uint64_t>(a.logLevel),
        static_cast<std::uint64_t>(a.progress)};
    for (const std::uint64_t number : numbers)
        out += std::to_string(number) + ";";
    return out + a.jsonPath + ";" + a.traceOutPath + ";" +
           a.storePath + ";" + a.baselinePath + ";" + a.resultsCmd;
}

/** What driverMain printed, and its exit status. */
struct DriverRun
{
    int status = 0;
    std::string out;
    std::string err;
};

DriverRun
runDriver(std::vector<const char *> tokens)
{
    tokens.insert(tokens.begin(), "driver");
    DriverRun run;
    testing::internal::CaptureStdout();
    testing::internal::CaptureStderr();
    run.status = driverMain(static_cast<int>(tokens.size()),
                            const_cast<char **>(tokens.data()));
    run.err = testing::internal::GetCapturedStderr();
    run.out = testing::internal::GetCapturedStdout();
    return run;
}

TEST(DriverCli, SpaceSeparatedFlags)
{
    const DriverArgs args = parse(
        {"--experiment", "fig7", "--threads", "8", "--json", "o.json"});
    ASSERT_EQ(args.experiments.size(), 1u);
    EXPECT_EQ(args.experiments[0], "fig7");
    EXPECT_EQ(args.threads, 8u);
    EXPECT_EQ(args.jsonPath, "o.json");
}

TEST(DriverCli, EqualsSpelledFlagsAreHonored)
{
    // Regression: these used to fall through into the experiment
    // options, silently running serial with no JSON output.
    const DriverArgs args =
        parse({"--experiment=fig9", "--threads=4", "--json=out.json"});
    ASSERT_EQ(args.experiments.size(), 1u);
    EXPECT_EQ(args.experiments[0], "fig9");
    EXPECT_EQ(args.threads, 4u);
    EXPECT_EQ(args.jsonPath, "out.json");
    EXPECT_FALSE(args.options.has("threads"));
    EXPECT_FALSE(args.options.has("json"));
    EXPECT_FALSE(args.options.has("experiment"));
}

TEST(DriverCli, KeyValuePassthroughReachesOptions)
{
    const DriverArgs args =
        parse({"--experiment", "fig7", "records=65536", "--sampling=0.5"});
    EXPECT_EQ(args.options.getUint("records", 0), 65536u);
    EXPECT_EQ(args.options.getDouble("sampling", 0.0), 0.5);
}

TEST(DriverCli, RepeatedExperimentsAccumulate)
{
    const DriverArgs args =
        parse({"-e", "fig7", "--experiment=table2"});
    ASSERT_EQ(args.experiments.size(), 2u);
    EXPECT_EQ(args.experiments[0], "fig7");
    EXPECT_EQ(args.experiments[1], "table2");
}

TEST(DriverCli, TraceFlagsJoinIntoOneOption)
{
    // Repeated --trace flags (either spelling) accumulate into the
    // ';'-joined "trace" option trace_io::parseIngestSpec consumes —
    // one lane file per flag for ChampSim ingestion.
    const DriverArgs args = parse(
        {"--experiment", "ingest_replay", "--trace", "a.stms",
         "--trace=b.core1.champsim,format=champsim"});
    EXPECT_EQ(args.options.get("trace", ""),
              "a.stms;b.core1.champsim,format=champsim");
}

TEST(DriverCli, TraceNeedsAValue)
{
    parse({"--trace"}, /*expect_ok=*/false);
}

TEST(DriverCli, EqualsOnBooleanFlagsRejected)
{
    // "--csv=1" must not silently become the experiment option csv=1.
    parse({"--csv=1"}, /*expect_ok=*/false);
    parse({"--list=yes"}, /*expect_ok=*/false);
    parse({"--verbose=true"}, /*expect_ok=*/false);
}

TEST(DriverCli, ThreadsZeroMeansAutoDetect)
{
    // 0 is the auto spelling (hardware_concurrency at run time).
    EXPECT_EQ(parse({"--threads", "0"}).threads, 0u);
    EXPECT_EQ(parse({"--threads=0"}).threads, 0u);
}

TEST(DriverCli, BadThreadsRejected)
{
    parse({"--threads"}, /*expect_ok=*/false);
    parse({"--threads", "abc"}, /*expect_ok=*/false);
    parse({"--threads", "8x"}, /*expect_ok=*/false);
    parse({"--threads", "-2"}, /*expect_ok=*/false);
    parse({"--threads", "5000"}, /*expect_ok=*/false);
}

TEST(DriverCli, PipelineAndCacheFlags)
{
    const DriverArgs args = parse(
        {"--pipeline", "--trace-cache-mb", "256", "--no-timing"});
    EXPECT_TRUE(args.pipeline);
    EXPECT_EQ(args.traceCacheMb, 256u);
    EXPECT_FALSE(args.timing);

    const DriverArgs defaults = parse({});
    EXPECT_FALSE(defaults.pipeline);
    EXPECT_EQ(defaults.traceCacheMb, DriverArgs::kCacheUnset);
    EXPECT_TRUE(defaults.timing);

    EXPECT_EQ(parse({"--trace-cache-mb=0"}).traceCacheMb, 0u);
    parse({"--trace-cache-mb", "junk"}, /*expect_ok=*/false);
    // Boolean flags take no value (the =value spelling must not
    // fall through to the option store).
    parse({"--pipeline=1"}, /*expect_ok=*/false);
    parse({"--no-timing=1"}, /*expect_ok=*/false);
}

TEST(DriverCli, PipelineChunkFlagParses)
{
    // Both spellings reach the runner knob; the value never leaks
    // into the experiment options (it must not join fingerprints —
    // chunk size is a residency knob, not a model parameter).
    const DriverArgs space =
        parse({"--pipeline", "--pipeline-chunk", "4096"});
    EXPECT_EQ(space.pipelineChunk, 4096u);
    EXPECT_FALSE(space.options.has("pipeline-chunk"));
    const DriverArgs equals = parse({"--pipeline-chunk=7"});
    EXPECT_EQ(equals.pipelineChunk, 7u);
    EXPECT_FALSE(equals.options.has("pipeline-chunk"));

    // Default: 0 = engine default (kDefaultPipelineChunkRecords).
    EXPECT_EQ(parse({}).pipelineChunk, 0u);

    // Strictly positive, strictly numeric, sanity-bounded.
    parse({"--pipeline-chunk", "0"}, /*expect_ok=*/false);
    parse({"--pipeline-chunk=0"}, /*expect_ok=*/false);
    parse({"--pipeline-chunk", "junk"}, /*expect_ok=*/false);
    parse({"--pipeline-chunk", "64k"}, /*expect_ok=*/false);
    parse({"--pipeline-chunk"}, /*expect_ok=*/false);
    parse({"--pipeline-chunk", "1073741825"}, /*expect_ok=*/false);
}

TEST(DriverCli, UnknownTokensRejected)
{
    parse({"bogus"}, /*expect_ok=*/false);
    parse({"--unknown-flag"}, /*expect_ok=*/false);
}

TEST(DriverCli, ModeFlags)
{
    EXPECT_TRUE(parse({"--list"}).list);
    EXPECT_TRUE(parse({"--help"}).help);
    EXPECT_TRUE(parse({"--csv", "--verbose"}).csv);
    EXPECT_TRUE(parse({"--csv", "--verbose"}).verbose);
}

TEST(DriverCli, StoreFlagsParse)
{
    const DriverArgs args = parse({"--experiment", "fig7", "--store",
                                   "results", "--rerun"});
    EXPECT_EQ(args.storePath, "results");
    EXPECT_TRUE(args.rerun);
    EXPECT_FALSE(args.options.has("store"));

    const DriverArgs eq = parse(
        {"--experiment=fig7", "--store=results", "--baseline=b.jsonl"});
    EXPECT_EQ(eq.storePath, "results");
    EXPECT_EQ(eq.baselinePath, "b.jsonl");
    // --rerun is boolean; the =value spelling must not leak into the
    // experiment options.
    parse({"--rerun=1"}, /*expect_ok=*/false);
}

TEST(DriverCli, ShardParses)
{
    const DriverArgs args = parse(
        {"--experiment", "fig7", "--store", "s", "--shard", "2/4"});
    EXPECT_EQ(args.shardIndex, 2u);
    EXPECT_EQ(args.shardCount, 4u);
    EXPECT_EQ(parse({"-e", "fig7", "--store=s", "--shard=1/1"})
                  .shardCount,
              1u);

    parse({"-e", "fig7", "--store", "s", "--shard", "0/4"},
          /*expect_ok=*/false);
    parse({"-e", "fig7", "--store", "s", "--shard", "5/4"},
          /*expect_ok=*/false);
    parse({"-e", "fig7", "--store", "s", "--shard", "nope"},
          /*expect_ok=*/false);
    // Digits only, and each number must fit the 32-bit fields
    // (2^32 + 1 used to truncate to 1).
    for (const char *bad : {"+1/4", " 1/4", "1/ 4", "1/4 ", "1/4/4",
                            "0x1/4", "/4", "1/", "4294967297/4294967298"})
        parse({"-e", "fig7", "--store", "s", "--shard", bad},
              /*expect_ok=*/false);
    EXPECT_EQ(parse({"-e", "fig7", "--store", "s", "--shard",
                     "4294967295/4294967295"})
                  .shardIndex,
              4294967295u);
    // Sharded runs exist only as store records: --store is required.
    parse({"-e", "fig7", "--shard", "1/4"}, /*expect_ok=*/false);
}

TEST(DriverCli, ResultsModeCollectsOperands)
{
    const DriverArgs diff = parse({"--results", "diff", "before.jsonl",
                                   "after_store", "rel_tol=0.05"});
    EXPECT_EQ(diff.resultsCmd, "diff");
    ASSERT_EQ(diff.resultsArgs.size(), 2u);
    EXPECT_EQ(diff.resultsArgs[0], "before.jsonl");
    EXPECT_EQ(diff.resultsArgs[1], "after_store");
    EXPECT_EQ(diff.options.getDouble("rel_tol", 0.0), 0.05);

    const DriverArgs show =
        parse({"--results=show", "8dd8", "--store", "results"});
    EXPECT_EQ(show.resultsCmd, "show");
    ASSERT_EQ(show.resultsArgs.size(), 1u);
    EXPECT_EQ(show.resultsArgs[0], "8dd8");

    // Bare operands stay rejected outside results mode.
    parse({"--experiment", "fig7", "bogus"}, /*expect_ok=*/false);
}

TEST(DriverCli, EveryValueFlagParsesAlikeInEverySpelling)
{
    struct Flag
    {
        const char *name;
        const char *alias;  // nullptr: none.
        const char *value;
    };
    const Flag flags[] = {
        {"experiment", "e", "fig7"},
        {"threads", "j", "3"},
        {"pipeline-chunk", nullptr, "512"},
        {"trace-cache-mb", nullptr, "64"},
        {"sample-every", nullptr, "1024"},
        {"log-level", nullptr, "debug"},
        {"mem-backend", nullptr, "queued,channels=4"},
        {"trace", nullptr, "a.stms"},
        {"json", nullptr, "out.json"},
        {"store", nullptr, "results"},
        {"baseline", nullptr, "b.jsonl"},
        {"shard", nullptr, "2/4"},
        {"results", nullptr, "list"},
        {"trace-out", nullptr, "t.json"},
    };
    const std::string defaults = describe(parse({"--store", "s"}));
    for (const Flag &flag : flags) {
        std::vector<std::string> spellings = {"--" + std::string(flag.name),
                                              "-" + std::string(flag.name)};
        if (flag.alias) {
            spellings.push_back("-" + std::string(flag.alias));
            spellings.push_back("--" + std::string(flag.alias));
        }
        // --store keeps --shard valid; it is the same in every case.
        const std::string expected = describe(
            parse({"--store", "s", spellings[0].c_str(), flag.value}));
        EXPECT_NE(expected, defaults) << flag.name;
        for (const std::string &spelling : spellings) {
            const std::string joined = spelling + "=" + flag.value;
            EXPECT_EQ(describe(parse({"--store", "s", spelling.c_str(),
                                      flag.value})),
                      expected)
                << spelling;
            EXPECT_EQ(describe(parse({"--store", "s", joined.c_str()})),
                      expected)
                << joined;
            EXPECT_EQ(parseError({spelling.c_str()}),
                      "--" + std::string(flag.name) + " needs a value")
                << spelling;
        }
    }
}

TEST(DriverCli, EverySwitchRejectsAValueWithOneMessage)
{
    for (const char *key :
         {"help", "h", "list", "csv", "verbose", "v", "rerun",
          "pipeline", "no-timing", "progress", "no-progress"}) {
        for (const char *dashes : {"--", "-"}) {
            const std::string token = dashes + std::string(key) + "=1";
            EXPECT_EQ(parseError({token.c_str()}),
                      "--" + std::string(key) + " does not take a value")
                << token;
            // Without the value the switch is accepted.
            const std::string bare = dashes + std::string(key);
            EXPECT_EQ(parseError({bare.c_str()}), "") << bare;
        }
    }
}

TEST(DriverCli, NumberFlagsTakeDecimalDigitsOnly)
{
    struct Case
    {
        const char *flag;
        const char *value;
        bool ok;
    };
    const Case cases[] = {
        {"--threads", "010", true},  // Ten, not octal eight.
        {"--threads", "0x10", false},
        {"--threads", "+5", false},
        {"--threads", " 5", false},
        {"--threads", "5 ", false},
        {"--threads", "-1", false},
        {"--threads", "", false},
        {"--threads", "4096", true},
        {"--threads", "4097", false},
        {"--pipeline-chunk", "0", false},
        {"--pipeline-chunk", "1", true},
        {"--pipeline-chunk", "0x10", false},
        {"--pipeline-chunk", "1073741824", true},
        {"--pipeline-chunk", "1073741825", false},
        {"--sample-every", "0", true},
        {"--sample-every", "+5", false},
        {"--sample-every", "1e3", false},
        {"--sample-every", "1099511627776", true},
        {"--sample-every", "1099511627777", false},
        {"--trace-cache-mb", "0", true},
        {"--trace-cache-mb", "010", true},
        {"--trace-cache-mb", "-0", false},
        {"--trace-cache-mb", "16777216", true},
        {"--trace-cache-mb", "16777217", false},
        {"--trace-cache-mb", "18446744073709551617", false},
    };
    for (const Case &c : cases)
        EXPECT_EQ(parseError({c.flag, c.value}).empty(), c.ok)
            << c.flag << " '" << c.value << "'";
    EXPECT_EQ(parse({"--threads", "010"}).threads, 10u);
    EXPECT_EQ(parse({"--trace-cache-mb=010"}).traceCacheMb, 10u);
    EXPECT_EQ(parseError({"--threads", "0x10"}),
              "--threads needs an integer in [0, 4096] (0 = auto-detect)");
}

TEST(DriverCliOptions, UnreadOptionRejectedInEitherSpelling)
{
    // Neither key is read by table2's plan: running it anyway would
    // archive an identical experiment under a new fingerprint.
    const std::filesystem::path store =
        std::filesystem::temp_directory_path() /
        ("stms_cli_unread." + std::to_string(getpid()));
    std::filesystem::remove_all(store);
    for (const char *token : {"--index-shards=4", "index-shards=4"}) {
        const DriverRun run =
            runDriver({"--experiment", "table2", token, "records=1024",
                       "--store", store.c_str()});
        EXPECT_EQ(run.status, 1) << token;
        EXPECT_NE(run.err.find("unknown option 'index-shards' (no "
                               "selected experiment reads it)"),
                  std::string::npos)
            << run.err;
        EXPECT_TRUE(run.out.empty()) << run.out;
        // Rejected before the store is even opened.
        EXPECT_FALSE(std::filesystem::exists(store));
    }
}

TEST(DriverCliOptions, ReadOptionRuns)
{
    const DriverRun run = runDriver(
        {"--experiment", "table2", "records=1024", "--no-timing"});
    EXPECT_EQ(run.status, 0) << run.err;
    EXPECT_EQ(run.err.find("unknown option"), std::string::npos);
    EXPECT_FALSE(run.out.empty());
}

TEST(DriverCliOptions, KeyReadOnlyBySecondExperimentRuns)
{
    // table2 ignores workload=; ingest_replay, selected second, reads
    // it, so the key is in use.
    const DriverRun alone =
        runDriver({"--experiment", "table2", "workload=oltp-db2",
                   "records=1024"});
    EXPECT_EQ(alone.status, 1);
    EXPECT_NE(alone.err.find("unknown option 'workload'"),
              std::string::npos)
        << alone.err;

    const DriverRun both = runDriver(
        {"--experiment", "table2", "--experiment", "ingest_replay",
         "workload=oltp-db2", "records=1024", "--no-timing"});
    EXPECT_EQ(both.status, 0) << both.err;
    EXPECT_EQ(both.err.find("unknown option"), std::string::npos);
}

} // namespace
} // namespace stms::driver
