#include "sim/stats.hh"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <sstream>

#include "sim/logging.hh"

namespace capy::sim
{

void
SummaryStats::add(double x)
{
    ++n;
    total += x;
    double delta = x - runningMean;
    runningMean += delta / double(n);
    m2 += delta * (x - runningMean);
    minVal = std::min(minVal, x);
    maxVal = std::max(maxVal, x);
}

void
SummaryStats::merge(const SummaryStats &other)
{
    if (other.n == 0)
        return;
    if (n == 0) {
        *this = other;
        return;
    }
    double delta = other.runningMean - runningMean;
    std::uint64_t combined = n + other.n;
    m2 += other.m2 +
          delta * delta * double(n) * double(other.n) / double(combined);
    runningMean += delta * double(other.n) / double(combined);
    total += other.total;
    minVal = std::min(minVal, other.minVal);
    maxVal = std::max(maxVal, other.maxVal);
    n = combined;
}

double
SummaryStats::stddev() const
{
    return std::sqrt(variance());
}

Histogram::Histogram(double lo, double hi, std::size_t bins)
    : lower(lo), upper(hi), width((hi - lo) / double(bins)),
      counts(bins, 0)
{
    capy_assert(hi > lo, "histogram range [%g, %g) is empty", lo, hi);
    capy_assert(bins >= 1, "histogram needs at least one bin");
}

void
Histogram::add(double x)
{
    ++totalAdds;
    if (x < lower) {
        ++below;
    } else if (x >= upper) {
        ++above;
    } else {
        auto idx = static_cast<std::size_t>((x - lower) / width);
        if (idx >= counts.size())  // guard FP edge at the top boundary
            idx = counts.size() - 1;
        ++counts[idx];
    }
}

double
Histogram::binLo(std::size_t i) const
{
    capy_assert(i < counts.size(), "bin index out of range");
    return lower + width * double(i);
}

double
Histogram::binHi(std::size_t i) const
{
    capy_assert(i < counts.size(), "bin index out of range");
    return lower + width * double(i + 1);
}

Table::Table(std::vector<std::string> headers) : cols(std::move(headers))
{
    capy_assert(!cols.empty(), "table needs at least one column");
}

void
Table::addRow(std::vector<std::string> cells)
{
    capy_assert(cells.size() == cols.size(),
                "row arity %zu != header arity %zu", cells.size(),
                cols.size());
    rows.push_back(std::move(cells));
}

std::string
Table::str() const
{
    std::vector<std::size_t> widths(cols.size());
    for (std::size_t c = 0; c < cols.size(); ++c)
        widths[c] = cols[c].size();
    for (const auto &row : rows)
        for (std::size_t c = 0; c < row.size(); ++c)
            widths[c] = std::max(widths[c], row[c].size());

    std::ostringstream out;
    auto emit_row = [&](const std::vector<std::string> &row) {
        for (std::size_t c = 0; c < row.size(); ++c) {
            out << "  " << row[c]
                << std::string(widths[c] - row[c].size(), ' ');
        }
        out << '\n';
    };
    emit_row(cols);
    std::size_t rule = 0;
    for (std::size_t w : widths)
        rule += w + 2;
    out << std::string(rule, '-') << '\n';
    for (const auto &row : rows)
        emit_row(row);
    return out.str();
}

void
Table::print() const
{
    std::fputs(str().c_str(), stdout);
}

std::string
cell(double v, int precision)
{
    return strfmt("%.*g", precision, v);
}

std::string
cell(std::uint64_t v)
{
    return strfmt("%llu", static_cast<unsigned long long>(v));
}

std::string
cell(int v)
{
    return strfmt("%d", v);
}

std::string
percentCell(double fraction, int precision)
{
    return strfmt("%.*f%%", precision, fraction * 100.0);
}

} // namespace capy::sim
