/**
 * @file
 * Lightweight statistics primitives.
 *
 * Components own named counters / histograms registered into a StatGroup
 * tree (src/obs/stat_registry.hh) so experiment runners can read them by
 * dotted name or as one JSON snapshot.  The design is a deliberately
 * small subset of gem5's stats package: scalar counters and
 * fixed-bucket histograms with percentile summaries.
 */

#ifndef TENGIG_SIM_STATS_HH
#define TENGIG_SIM_STATS_HH

#include <cstdint>
#include <vector>

#include "sim/logging.hh"

namespace tengig {
namespace stats {

/** Monotonic scalar event count. */
class Counter
{
  public:
    Counter &operator++() { ++val; return *this; }
    Counter &operator+=(std::uint64_t n) { val += n; return *this; }
    std::uint64_t value() const { return val; }
    void reset() { val = 0; }

  private:
    std::uint64_t val = 0;
};

/**
 * Fixed-width-bucket histogram with an overflow bucket and percentile
 * summaries (p50/p95/p99 feed the BENCH_*.json latency reports).
 */
class Histogram
{
  public:
    Histogram() : Histogram(1, 16) {}

    /**
     * @param bucket_width Value range covered by each bucket; > 0.
     * @param buckets Number of regular buckets (an overflow bucket is
     *        appended); > 0, otherwise every sample would land in the
     *        overflow bucket and percentiles would be meaningless.
     */
    Histogram(std::uint64_t bucket_width, std::size_t buckets)
        : width(bucket_width), counts(buckets + 1, 0)
    {
        fatal_if(bucket_width == 0, "histogram with zero bucket width");
        fatal_if(buckets == 0, "histogram with zero buckets (every "
                 "sample would overflow)");
    }

    void
    sample(std::uint64_t v)
    {
        std::size_t b = v / width;
        if (b >= counts.size() - 1)
            b = counts.size() - 1;
        ++counts[b];
        ++n;
        total += v;
        if (v > mx)
            mx = v;
    }

    std::uint64_t count() const { return n; }
    double mean() const { return n ? static_cast<double>(total) / n : 0.0; }
    std::uint64_t maxSample() const { return n ? mx : 0; }
    std::uint64_t bucket(std::size_t i) const { return counts.at(i); }
    std::size_t buckets() const { return counts.size(); }
    std::uint64_t overflow() const { return counts.back(); }

    /** Fraction of samples in bucket @p i. */
    double
    fraction(std::size_t i) const
    {
        return n ? static_cast<double>(counts.at(i)) / n : 0.0;
    }

    /**
     * Value at quantile @p q in [0, 1], linearly interpolated within
     * the containing bucket.  Samples in the overflow bucket report
     * the observed maximum (the histogram cannot resolve beyond its
     * range).  Returns 0 when empty.
     */
    double percentile(double q) const;

    double p50() const { return percentile(0.50); }
    double p95() const { return percentile(0.95); }
    double p99() const { return percentile(0.99); }

    void
    reset()
    {
        for (auto &c : counts)
            c = 0;
        n = 0;
        total = 0;
        mx = 0;
    }

  private:
    std::uint64_t width;
    std::vector<std::uint64_t> counts;
    std::uint64_t n = 0;
    std::uint64_t total = 0;
    std::uint64_t mx = 0;
};

} // namespace stats
} // namespace tengig

#endif // TENGIG_SIM_STATS_HH
