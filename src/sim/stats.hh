/**
 * @file
 * Statistics collection: streaming summaries, histograms, and an
 * aligned-table formatter used by the benchmark harnesses to print
 * paper-style rows.
 */

#ifndef CAPY_SIM_STATS_HH
#define CAPY_SIM_STATS_HH

#include <cstdint>
#include <limits>
#include <string>
#include <vector>

namespace capy::sim
{

/**
 * Streaming mean/variance/min/max accumulator (Welford's algorithm).
 */
class SummaryStats
{
  public:
    /** Add one sample. */
    void add(double x);

    /** Merge another accumulator into this one. */
    void merge(const SummaryStats &other);

    /** Clear all accumulated state. */
    void reset() { *this = SummaryStats(); }

    std::uint64_t count() const { return n; }
    double sum() const { return total; }
    double mean() const { return n ? runningMean : 0.0; }
    /** Population variance. */
    double variance() const { return n ? m2 / double(n) : 0.0; }
    double stddev() const;
    double min() const { return n ? minVal : 0.0; }
    double max() const { return n ? maxVal : 0.0; }

  private:
    std::uint64_t n = 0;
    double runningMean = 0.0;
    double m2 = 0.0;
    double total = 0.0;
    double minVal = std::numeric_limits<double>::infinity();
    double maxVal = -std::numeric_limits<double>::infinity();
};

/**
 * Fixed-bin histogram over [lo, hi) with underflow/overflow buckets.
 * Keeps counts only, so its memory does not grow with the samples.
 */
class Histogram
{
  public:
    /**
     * @param lo Lower bound of the binned range.
     * @param hi Upper bound (exclusive).
     * @param bins Number of equal-width bins (>= 1).
     */
    Histogram(double lo, double hi, std::size_t bins);

    /** Record a sample. */
    void add(double x);

    /** Total samples added. */
    std::uint64_t count() const { return totalAdds; }
    std::uint64_t binCount(std::size_t i) const { return counts.at(i); }
    std::uint64_t underflow() const { return below; }
    std::uint64_t overflow() const { return above; }
    std::size_t numBins() const { return counts.size(); }
    /** Inclusive lower edge of bin @p i. */
    double binLo(std::size_t i) const;
    /** Exclusive upper edge of bin @p i. */
    double binHi(std::size_t i) const;

  private:
    double lower, upper, width;
    std::vector<std::uint64_t> counts;
    std::uint64_t below = 0, above = 0;
    std::uint64_t totalAdds = 0;
};

/**
 * Aligned plain-text table for experiment output. Columns are sized to
 * the widest cell; numeric formatting is caller-controlled via cell
 * strings.
 */
class Table
{
  public:
    explicit Table(std::vector<std::string> headers);

    /** Append a row; must match the header arity. */
    void addRow(std::vector<std::string> cells);

    /** Render with column alignment and a header rule. */
    std::string str() const;

    /** Render and write to stdout. */
    void print() const;

  private:
    std::vector<std::string> cols;
    std::vector<std::vector<std::string>> rows;
};

/** Format a double with %g-style compactness into a cell. */
std::string cell(double v, int precision = 4);

/** Format an integer cell. */
std::string cell(std::uint64_t v);
std::string cell(int v);

/** Render a fraction as a percent cell, e.g. 0.756 -> "75.6%". */
std::string percentCell(double fraction, int precision = 1);

} // namespace capy::sim

#endif // CAPY_SIM_STATS_HH
