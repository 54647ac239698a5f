/**
 * @file
 * Export of recorded traces to CSV files (plus a convenience gnuplot
 * script emitter), so simulator output can feed external plotting and
 * analysis tools.
 */

#ifndef CAPY_SIM_EXPORT_HH
#define CAPY_SIM_EXPORT_HH

#include <string>

#include "sim/trace.hh"

namespace capy::sim
{

/**
 * Write a time series as two-column CSV ("time,<name>").
 * @retval false the file could not be opened.
 */
bool writeCsv(const TimeSeries &series, const std::string &path);

/** Write a span trace as "start,end,duration,label" rows. */
bool writeCsv(const SpanTrace &spans, const std::string &path);

/**
 * A minimal gnuplot script that plots the first data column of
 * @p csv_path against time. Returned as text; write it next to the
 * CSV and run `gnuplot <file>`.
 */
std::string gnuplotScript(const std::string &csv_path,
                          const std::string &title,
                          const std::string &ylabel);

} // namespace capy::sim

#endif // CAPY_SIM_EXPORT_HH
