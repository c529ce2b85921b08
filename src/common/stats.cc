#include "common/stats.hh"

#include <algorithm>
#include <cmath>
#include <cstddef>
#include <sstream>

#include "common/logging.hh"

namespace cuttlesys {

namespace {

/** Interpolation points of the type-7 rule, rank = p/100 * (n-1). */
struct Rank
{
    std::size_t lo = 0;
    std::size_t hi = 0;
    double frac = 0.0;
};

Rank
rankOf(std::size_t n, double p)
{
    CS_ASSERT(n > 0, "percentile of empty sample");
    CS_ASSERT(p >= 0.0 && p <= 100.0, "percentile out of range: ", p);
    const double rank = p / 100.0 * static_cast<double>(n - 1);
    const auto lo = static_cast<std::size_t>(std::floor(rank));
    const auto hi = static_cast<std::size_t>(std::ceil(rank));
    return {lo, hi, rank - static_cast<double>(lo)};
}

/** Percentile of an already-sorted sample. */
double
sortedPercentile(std::span<const double> sorted, double p)
{
    const Rank r = rankOf(sorted.size(), p);
    if (sorted.size() == 1)
        return sorted.front();
    return sorted[r.lo] + r.frac * (sorted[r.hi] - sorted[r.lo]);
}

} // namespace

std::string
BoxPlot::toString() const
{
    std::ostringstream oss;
    oss << "p5=" << p5 << " q1=" << q1 << " med=" << median
        << " q3=" << q3 << " p95=" << p95
        << " whiskers=[" << whiskerLo << ", " << whiskerHi << "]"
        << " outliers=" << outliers.size();
    return oss.str();
}

double
percentile(std::span<const double> values, double p)
{
    std::vector<double> sorted(values.begin(), values.end());
    std::sort(sorted.begin(), sorted.end());
    return sortedPercentile(sorted, p);
}

double
percentile(std::span<const double> values, double p,
           std::vector<double> &scratch)
{
    // Amortized-headroom growth: a new sample-count high-water must
    // not realloc exact-fit every time it inches up, or a zero-alloc
    // steady state never settles under noisy sample counts.
    if (scratch.capacity() < values.size())
        scratch.reserve(values.size() + values.size() / 2);
    scratch.assign(values.begin(), values.end());
    std::sort(scratch.begin(), scratch.end());
    return sortedPercentile(scratch, p);
}

double
percentileInPlace(std::span<double> values, double p)
{
    const Rank r = rankOf(values.size(), p);
    if (values.size() == 1)
        return values.front();
    // nth_element puts sorted[hi] in place with everything smaller in
    // front of it, so sorted[lo] (lo is hi or hi - 1) is the largest
    // of that prefix: the same two operands sortedPercentile reads.
    const auto hi = values.begin() + static_cast<std::ptrdiff_t>(r.hi);
    std::nth_element(values.begin(), hi, values.end());
    const double v_hi = *hi;
    const double v_lo =
        r.lo == r.hi ? v_hi : *std::max_element(values.begin(), hi);
    return v_lo + r.frac * (v_hi - v_lo);
}

double
mean(std::span<const double> values)
{
    CS_ASSERT(!values.empty(), "mean of empty sample");
    double sum = 0.0;
    for (double v : values)
        sum += v;
    return sum / static_cast<double>(values.size());
}

double
stddev(std::span<const double> values)
{
    if (values.size() < 2)
        return 0.0;
    const double m = mean(values);
    double ss = 0.0;
    for (double v : values)
        ss += (v - m) * (v - m);
    return std::sqrt(ss / static_cast<double>(values.size() - 1));
}

double
geomean(std::span<const double> values)
{
    CS_ASSERT(!values.empty(), "geomean of empty sample");
    double logSum = 0.0;
    for (double v : values) {
        CS_ASSERT(v > 0.0, "geomean requires positive values, got ", v);
        logSum += std::log(v);
    }
    return std::exp(logSum / static_cast<double>(values.size()));
}

double
minValue(std::span<const double> values)
{
    CS_ASSERT(!values.empty(), "min of empty sample");
    return *std::min_element(values.begin(), values.end());
}

double
maxValue(std::span<const double> values)
{
    CS_ASSERT(!values.empty(), "max of empty sample");
    return *std::max_element(values.begin(), values.end());
}

BoxPlot
boxPlot(std::span<const double> values)
{
    std::vector<double> sorted(values.begin(), values.end());
    std::sort(sorted.begin(), sorted.end());

    BoxPlot box;
    box.p5 = sortedPercentile(sorted, 5.0);
    box.q1 = sortedPercentile(sorted, 25.0);
    box.median = sortedPercentile(sorted, 50.0);
    box.q3 = sortedPercentile(sorted, 75.0);
    box.p95 = sortedPercentile(sorted, 95.0);

    const double iqr = box.q3 - box.q1;
    const double loFence = box.q1 - 1.5 * iqr;
    const double hiFence = box.q3 + 1.5 * iqr;

    box.whiskerLo = box.q1;
    box.whiskerHi = box.q3;
    for (double v : sorted) {
        if (v >= loFence) {
            box.whiskerLo = v;
            break;
        }
    }
    for (auto it = sorted.rbegin(); it != sorted.rend(); ++it) {
        if (*it <= hiFence) {
            box.whiskerHi = *it;
            break;
        }
    }
    for (double v : sorted) {
        if (v < loFence || v > hiFence)
            box.outliers.push_back(v);
    }
    return box;
}

double
relativeErrorPct(double predicted, double actual)
{
    constexpr double floor = 1e-9;
    const double denom = std::max(std::abs(actual), floor);
    return 100.0 * (predicted - actual) / denom;
}

void
RunningStats::add(double x)
{
    if (n_ == 0) {
        min_ = max_ = x;
    } else {
        min_ = std::min(min_, x);
        max_ = std::max(max_, x);
    }
    ++n_;
    const double delta = x - mean_;
    mean_ += delta / static_cast<double>(n_);
    m2_ += delta * (x - mean_);
}

double
RunningStats::variance() const
{
    if (n_ < 2)
        return 0.0;
    return m2_ / static_cast<double>(n_ - 1);
}

double
RunningStats::stddev() const
{
    return std::sqrt(variance());
}

} // namespace cuttlesys
