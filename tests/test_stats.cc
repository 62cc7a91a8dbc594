/**
 * @file
 * Unit tests for the statistics package.
 */

#include <gtest/gtest.h>

#include "sim/stats.hh"

namespace specint
{
namespace
{

TEST(SampleStat, MeanStddevMinMax)
{
    SampleStat s;
    for (double x : {2.0, 4.0, 4.0, 4.0, 5.0, 5.0, 7.0, 9.0})
        s.add(x);
    EXPECT_EQ(s.count(), 8u);
    EXPECT_DOUBLE_EQ(s.mean(), 5.0);
    EXPECT_NEAR(s.stddev(), 2.13809, 1e-4);
    EXPECT_DOUBLE_EQ(s.min(), 2.0);
    EXPECT_DOUBLE_EQ(s.max(), 9.0);
}

TEST(SampleStat, Percentiles)
{
    SampleStat s;
    for (int i = 1; i <= 100; ++i)
        s.add(i);
    EXPECT_NEAR(s.percentile(0.0), 1.0, 1e-9);
    EXPECT_NEAR(s.percentile(1.0), 100.0, 1e-9);
    EXPECT_NEAR(s.percentile(0.5), 50.5, 1e-9);
}

TEST(SampleStat, EmptyStatIsDefined)
{
    // Every accessor must return a defined value (not NaN / UB) on a
    // stat nothing was added to: registry snapshots render whatever
    // state a distribution is in.
    const SampleStat s;
    EXPECT_DOUBLE_EQ(s.mean(), 0.0);
    EXPECT_DOUBLE_EQ(s.stddev(), 0.0);
    EXPECT_DOUBLE_EQ(s.percentile(0.5), 0.0);
    EXPECT_DOUBLE_EQ(s.percentile(0.0), 0.0);
    EXPECT_DOUBLE_EQ(s.percentile(1.0), 0.0);
}

TEST(SampleStat, SingleSampleIsItsOwnPercentile)
{
    SampleStat s;
    s.add(7.0);
    EXPECT_DOUBLE_EQ(s.percentile(0.0), 7.0);
    EXPECT_DOUBLE_EQ(s.percentile(0.5), 7.0);
    EXPECT_DOUBLE_EQ(s.percentile(1.0), 7.0);
    EXPECT_DOUBLE_EQ(s.stddev(), 0.0);
    EXPECT_DOUBLE_EQ(s.mean(), 7.0);
}

TEST(SampleStat, PercentileClampsQuantile)
{
    SampleStat s;
    s.add(1.0);
    s.add(2.0);
    EXPECT_DOUBLE_EQ(s.percentile(-0.5), 1.0);
    EXPECT_DOUBLE_EQ(s.percentile(2.0), 2.0);
}

TEST(SampleStat, ResetClears)
{
    SampleStat s;
    s.add(1.0);
    s.reset();
    EXPECT_EQ(s.count(), 0u);
    EXPECT_DOUBLE_EQ(s.mean(), 0.0);
}

TEST(Histogram, BucketsAndMode)
{
    Histogram h(10);
    for (std::uint64_t x : {3, 5, 12, 15, 17, 18, 25})
        h.add(x);
    EXPECT_EQ(h.count(), 7u);
    EXPECT_EQ(h.buckets().at(0), 2u);
    EXPECT_EQ(h.buckets().at(10), 4u);
    EXPECT_EQ(h.buckets().at(20), 1u);
    EXPECT_EQ(h.modeBucket(), 10u);
}

TEST(Histogram, RenderContainsBars)
{
    Histogram h(1);
    h.add(5);
    h.add(5);
    const std::string out = h.render("demo", 10);
    EXPECT_NE(out.find("demo"), std::string::npos);
    EXPECT_NE(out.find('#'), std::string::npos);
}

TEST(TextTable, RendersAlignedRows)
{
    TextTable t({"name", "value"});
    t.addRow({"alpha", "1"});
    t.addRow({"b", "22"});
    const std::string out = t.render();
    EXPECT_NE(out.find("alpha"), std::string::npos);
    EXPECT_NE(out.find("22"), std::string::npos);
    EXPECT_NE(out.find('|'), std::string::npos);
}

TEST(FmtDouble, Precision)
{
    EXPECT_EQ(fmtDouble(1.23456, 2), "1.23");
    EXPECT_EQ(fmtDouble(2.0, 1), "2.0");
}

} // namespace
} // namespace specint
