/**
 * @file
 * In-memory span recorder for the benchmark's traced pass. The
 * benchmark opens a span around each public call it makes into the
 * simulator (an apps::run* entry point, a layer replay); spans nest
 * through an explicit parent stack, carry a run id, and are written
 * once, at exit, as Chrome trace-event JSON that Perfetto or
 * chrome://tracing open offline.
 */

#ifndef CAPY_E2EBENCH_SPANS_HH
#define CAPY_E2EBENCH_SPANS_HH

#include <chrono>
#include <cstddef>
#include <string>
#include <vector>

namespace e2e
{

using Clock = std::chrono::steady_clock;

/** Seconds elapsed between two steady-clock readings. */
inline double
seconds(Clock::time_point a, Clock::time_point b)
{
    return std::chrono::duration<double>(b - a).count();
}

/** One recorded span; times are seconds since the recorder started. */
struct Span
{
    std::string name;
    double start = 0.0;
    double end = 0.0;
    int parent = -1;  ///< index of the enclosing span; -1 = root
    long run = -1;    ///< run id within the run set; -1 = none
    double duration() const { return end - start; }
};

class SpanRecorder
{
  public:
    SpanRecorder() : origin(Clock::now()) {}

    /** Open a span as a child of the innermost open span. */
    int open(std::string name, long run = -1);
    /** Close span @p id, which must be the innermost open span. */
    void close(int id);

    const std::vector<Span> &spans() const { return recs; }

    /** Per span: its duration minus the time its direct children
     *  cover. */
    std::vector<double> selfTimes() const;

    /** Write all spans as Chrome trace-event JSON; false on I/O
     *  failure. */
    bool writeChromeTrace(const std::string &path) const;

  private:
    Clock::time_point origin;
    std::vector<Span> recs;
    std::vector<int> stack;
};

/** RAII span on a recorder; a null recorder records nothing. */
class ScopedSpan
{
  public:
    ScopedSpan(SpanRecorder *rec, std::string name, long run = -1)
        : recorder(rec), id(rec ? rec->open(std::move(name), run) : -1)
    {}
    ~ScopedSpan()
    {
        if (recorder)
            recorder->close(id);
    }
    ScopedSpan(const ScopedSpan &) = delete;
    ScopedSpan &operator=(const ScopedSpan &) = delete;

  private:
    SpanRecorder *recorder;
    int id;
};

} // namespace e2e

#endif // CAPY_E2EBENCH_SPANS_HH
