/**
 * @file
 * Time-series and interval tracing. Used to reproduce the paper's
 * voltage-vs-time plots (Fig. 2) and the operating/charging span
 * breakdowns.
 */

#ifndef CAPY_SIM_TRACE_HH
#define CAPY_SIM_TRACE_HH

#include <string>
#include <vector>

#include "sim/event.hh"

namespace capy::sim
{

/** One (time, value) sample. */
struct TracePoint
{
    Time t;
    double value;
};

/**
 * A named scalar-valued time series with monotonically non-decreasing
 * timestamps.
 */
class TimeSeries
{
  public:
    explicit TimeSeries(std::string series_name)
        : seriesName(std::move(series_name))
    {}

    /** Append a sample; @p t must not precede the previous sample. */
    void record(Time t, double value);

    const std::string &name() const { return seriesName; }
    const std::vector<TracePoint> &points() const { return data; }
    bool empty() const { return data.empty(); }
    std::size_t size() const { return data.size(); }

    /**
     * Linear interpolation of the series at time @p t (clamped to the
     * recorded range). Series must be non-empty.
     */
    double at(Time t) const;

    /** Render as two-column CSV ("time,value" with a header). */
    std::string csv() const;

  private:
    std::string seriesName;
    std::vector<TracePoint> data;
};

/** A labelled half-open time interval [start, end). */
struct Span
{
    Time start;
    Time end;
    std::string label;

    Time duration() const { return end - start; }
};

/**
 * Recorder for labelled activity intervals (e.g. "charging",
 * "operating"). Spans are opened and later closed; nesting is not
 * allowed — a span must be closed before the next opens.
 */
class SpanTrace
{
  public:
    /** Open a span at @p t with @p label. @pre no span is open. */
    void open(Time t, std::string label);

    /** Close the open span at @p t. @pre a span is open. */
    void close(Time t);

    /** Whether a span is currently open. */
    bool isOpen() const { return openActive; }

    /** Label of the currently open span. @pre isOpen(). */
    const std::string &openLabel() const;

    /** Start time of the currently open span. @pre isOpen(). */
    Time openStart() const;

    const std::vector<Span> &spans() const { return completed; }

    /** Total duration across spans whose label equals @p label. */
    Time totalFor(const std::string &label) const;

    /** Number of spans whose label equals @p label. */
    std::size_t countFor(const std::string &label) const;

  private:
    std::vector<Span> completed;
    bool openActive = false;
    Time openStart_ = 0.0;
    std::string openLabelText;
};

} // namespace capy::sim

#endif // CAPY_SIM_TRACE_HH
