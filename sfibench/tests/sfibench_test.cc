/**
 * @file
 * Tests of the benchmark's own logic: tail percentiles with refused
 * requests as misses, the knee bisection, span self time, the Chrome
 * trace writer, and that the seed alone determines the inputs.
 */
#include <cmath>
#include <set>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "faas/loadgen.h"
#include "images.h"
#include "jit/codecache.h"
#include "measure.h"
#include "perflab/json.h"
#include "trace.h"

namespace sfibench {
namespace {

sfi::LogHistogram
constant(uint64_t value, int n)
{
    sfi::LogHistogram h;
    for (int i = 0; i < n; i++)
        h.add(value);
    return h;
}

TEST(PercentileWithMisses, MissesRankAboveEveryServedSample)
{
    sfi::LogHistogram h = constant(10, 1000);
    EXPECT_EQ(percentileWithMisses(h, 0, 99), 10);
    // 5 misses in 1005: rank 994 is still a served sample.
    EXPECT_EQ(percentileWithMisses(h, 5, 99), 10);
    // 20 misses in 1020: rank 1009 falls among the misses.
    EXPECT_TRUE(std::isinf(percentileWithMisses(h, 20, 99)));
    // The median flips exactly when misses reach half the requests.
    EXPECT_EQ(percentileWithMisses(h, 999, 50), 10);
    EXPECT_TRUE(std::isinf(percentileWithMisses(h, 1000, 50)));
}

TEST(PercentileWithMisses, RanksServedSamplesInOrder)
{
    sfi::LogHistogram h;
    for (uint64_t v = 1; v <= 50; v++)  // exact below 64
        h.add(v);
    EXPECT_EQ(percentileWithMisses(h, 0, 0), 1);
    EXPECT_EQ(percentileWithMisses(h, 0, 100), 50);
    // 50 served + 50 missed: the 25th-percentile rank (25) is served
    // sample 26.
    EXPECT_EQ(percentileWithMisses(h, 50, 25), 26);
    EXPECT_EQ(percentileWithMisses(sfi::LogHistogram(), 0, 99), 0);
    EXPECT_TRUE(std::isinf(percentileWithMisses(sfi::LogHistogram(), 3, 99)));
}

Probe
curve(double rate, double knee)
{
    Probe p;
    p.offeredRps = rate;
    p.pass = rate <= knee;
    return p;
}

TEST(FindKnee, ConvergesOnAMonotoneCurve)
{
    Knee k = findKnee(1000, 100000, 10,
                      [](double r) { return curve(r, 10000); });
    EXPECT_LE(k.rps, 10000);
    EXPECT_GT(k.rps, 10000 / 1.005);
    EXPECT_FALSE(k.censoredLow);
    EXPECT_FALSE(k.censoredHigh);
    // Every failing probe above the knee was confirmed once.
    size_t fails = 0;
    for (const Probe& p : k.probes)
        fails += !p.pass;
    EXPECT_EQ(k.probes.size(), 10 + fails / 2);
}

TEST(FindKnee, OneNoisyProbeDoesNotMoveTheKnee)
{
    int calls = 0;
    Knee k = findKnee(1000, 100000, 10, [&](double r) {
        // The very first probe (10 krps, below the knee) stalls once.
        Probe p = curve(r, 20000);
        if (calls++ == 0)
            p.pass = false;
        return p;
    });
    Knee clean = findKnee(1000, 100000, 10,
                          [](double r) { return curve(r, 20000); });
    EXPECT_DOUBLE_EQ(k.rps, clean.rps);
    EXPECT_EQ(k.probes.size(), clean.probes.size() + 1);
}

TEST(FindKnee, ReportsCensoringAtTheBracketEnds)
{
    Knee all = findKnee(1000, 8000, 4, [](double r) { return curve(r, 1e9); });
    EXPECT_TRUE(all.censoredHigh);
    EXPECT_DOUBLE_EQ(all.rps, 8000);
    Knee none = findKnee(1000, 8000, 4, [](double r) { return curve(r, 1); });
    EXPECT_TRUE(none.censoredLow);
    EXPECT_DOUBLE_EQ(none.rps, 1000);
}

TEST(Median, EvenCountsAverageTheMiddlePair)
{
    EXPECT_EQ(median({}), 0);
    EXPECT_EQ(median({3, 1, 2}), 2);
    EXPECT_EQ(median({4, 1, 3, 2}), 2.5);
}

Span
span(uint64_t start, uint64_t end, int32_t parent)
{
    Span s;
    s.startNs = start;
    s.endNs = end;
    s.parent = parent;
    return s;
}

TEST(SelfTimes, SubtractTheUnionOfChildrenInsideTheParent)
{
    std::vector<Span> spans = {
        span(0, 100, -1),   // 0: parent
        span(10, 30, 0),    // 1: child
        span(20, 50, 0),    // 2: overlaps child 1
        span(90, 120, 0),   // 3: runs past the parent's end
        span(12, 15, 1),    // 4: grandchild of 0 through 1
        span(200, 210, -1), // 5: unrelated root
    };
    std::vector<uint64_t> self = selfTimes(spans);
    EXPECT_EQ(self[0], 100 - 40 - 10);
    EXPECT_EQ(self[1], 20 - 3);
    EXPECT_EQ(self[2], 30);
    EXPECT_EQ(self[3], 30);
    EXPECT_EQ(self[4], 3);
    EXPECT_EQ(self[5], 10);
}

TEST(ChromeTrace, ParsesWithTheStrictJsonParser)
{
    Tracer a(1), b(2);
    int32_t root = a.begin("faas.request", 7, -1);
    {
        ScopedSpan child(&a, "pool.\"allocate\"", 7, root);
    }
    a.end(root);
    b.record("jit.compile_tiered", 1000, 4000, 9, -1);
    std::string text = chromeTrace({&a, &b}, 100);
    auto parsed = sfi::perflab::Json::parse(text);
    ASSERT_TRUE(parsed.isOk()) << parsed.message();
    const sfi::perflab::Json* events = parsed->find("traceEvents");
    ASSERT_NE(events, nullptr);
    ASSERT_EQ(events->items().size(), 3u);
    const sfi::perflab::Json& child = events->items()[1];
    EXPECT_EQ(child.find("name")->asString(), "pool.\"allocate\"");
    EXPECT_EQ(child.find("ph")->asString(), "X");
    EXPECT_EQ(child.find("tid")->asNumber(), 1);
    EXPECT_EQ(child.find("args")->find("parent")->asNumber(), root);
    const sfi::perflab::Json& compile = events->items()[2];
    EXPECT_EQ(compile.find("dur")->asNumber(), 3.0);
    EXPECT_EQ(compile.find("args")->find("request")->asNumber(), 9);
    // The per-tracer cap bounds the file.
    auto capped = sfi::perflab::Json::parse(chromeTrace({&a, &b}, 1));
    ASSERT_TRUE(capped.isOk());
    EXPECT_EQ(capped->find("traceEvents")->items().size(), 2u);
}

uint64_t
imageHash(uint64_t seed, uint64_t index)
{
    return sfi::jit::CodeCache::moduleHash(buildImage(imageSpec(seed, index)));
}

TEST(Inputs, TheSeedDeterminesModulesAndArrivals)
{
    std::set<uint64_t> hashes;
    for (uint64_t i = 0; i < 64; i++) {
        uint64_t h = imageHash(5, i);
        EXPECT_EQ(h, imageHash(5, i));
        hashes.insert(h);
        hashes.insert(imageHash(6, i));
    }
    // Never-seen means every image of a run, and of any other seed,
    // has its own content hash.
    EXPECT_EQ(hashes.size(), 128u);

    sfi::faas::LoadGenConfig lg;
    lg.ratePerSec = 5000;
    lg.seed = 5;
    auto a = sfi::faas::LoadGen::schedule(lg, 1000);
    EXPECT_EQ(a, sfi::faas::LoadGen::schedule(lg, 1000));
    lg.seed = 6;
    EXPECT_NE(a, sfi::faas::LoadGen::schedule(lg, 1000));
}

}  // namespace
}  // namespace sfibench
