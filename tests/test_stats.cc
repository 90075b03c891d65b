/**
 * @file
 * Unit tests for statistics primitives.
 */

#include <gtest/gtest.h>

#include "sim/logging.hh"
#include "sim/stats.hh"

using namespace tengig::stats;
using tengig::FatalError;

TEST(Counter, IncrementAndAdd)
{
    Counter c;
    EXPECT_EQ(c.value(), 0u);
    ++c;
    c += 10;
    EXPECT_EQ(c.value(), 11u);
    c.reset();
    EXPECT_EQ(c.value(), 0u);
}

TEST(Histogram, BucketsAndOverflow)
{
    Histogram h(10, 4); // buckets [0,10) [10,20) [20,30) [30,40) + overflow
    h.sample(0);
    h.sample(9);
    h.sample(10);
    h.sample(39);
    h.sample(40);   // overflow
    h.sample(1000); // overflow
    EXPECT_EQ(h.count(), 6u);
    EXPECT_EQ(h.bucket(0), 2u);
    EXPECT_EQ(h.bucket(1), 1u);
    EXPECT_EQ(h.bucket(2), 0u);
    EXPECT_EQ(h.bucket(3), 1u);
    EXPECT_EQ(h.bucket(4), 2u);
    EXPECT_DOUBLE_EQ(h.fraction(0), 2.0 / 6.0);
}

TEST(Histogram, MeanOfSamples)
{
    Histogram h(1, 8);
    h.sample(1);
    h.sample(2);
    h.sample(3);
    EXPECT_DOUBLE_EQ(h.mean(), 2.0);
}

// Regression: a zero-bucket or zero-width histogram used to be
// constructible and silently misfiled every sample.
TEST(Histogram, DegenerateGeometryIsFatal)
{
    EXPECT_THROW(Histogram(0, 4), FatalError);
    EXPECT_THROW(Histogram(10, 0), FatalError);
    EXPECT_THROW(Histogram(0, 0), FatalError);
}

TEST(Histogram, ResetClearsCountsAndMax)
{
    Histogram h(10, 4);
    h.sample(5);
    h.sample(1000);
    EXPECT_EQ(h.maxSample(), 1000u);
    h.reset();
    EXPECT_EQ(h.count(), 0u);
    EXPECT_EQ(h.maxSample(), 0u);
    EXPECT_EQ(h.overflow(), 0u);
    h.sample(25);
    EXPECT_EQ(h.count(), 1u);
    EXPECT_EQ(h.maxSample(), 25u);
}

TEST(Histogram, PercentilesOfUniformDistribution)
{
    // 100 samples 0..99 in width-1 buckets: percentiles are exact
    // order statistics (rank ceil(q*n)).
    Histogram h(1, 100);
    for (unsigned v = 0; v < 100; ++v)
        h.sample(v);
    EXPECT_NEAR(h.p50(), 50.0, 1.0);
    EXPECT_NEAR(h.p95(), 95.0, 1.0);
    EXPECT_NEAR(h.p99(), 99.0, 1.0);
    EXPECT_LE(h.percentile(0.0), 1.0);
    EXPECT_NEAR(h.percentile(1.0), 100.0, 1.0);
}

TEST(Histogram, PercentilesOfSkewedDistribution)
{
    // 90 fast samples in [0,10) and 10 slow ones at 1000 (overflow):
    // p50 is fast, p95/p99 report the overflow tail via the observed
    // maximum.
    Histogram h(10, 4);
    for (unsigned i = 0; i < 90; ++i)
        h.sample(i % 10);
    for (unsigned i = 0; i < 10; ++i)
        h.sample(1000);
    EXPECT_LT(h.p50(), 10.0);
    EXPECT_DOUBLE_EQ(h.p95(), 1000.0);
    EXPECT_DOUBLE_EQ(h.p99(), 1000.0);
}

TEST(Histogram, PercentileValidatesQuantile)
{
    Histogram h(1, 4);
    h.sample(1);
    EXPECT_THROW(h.percentile(-0.1), FatalError);
    EXPECT_THROW(h.percentile(1.1), FatalError);
    // An empty histogram has no order statistics.
    Histogram empty(1, 4);
    EXPECT_DOUBLE_EQ(empty.p50(), 0.0);
}
