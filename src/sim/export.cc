#include "sim/export.hh"

#include <fstream>

#include "sim/logging.hh"

namespace capy::sim
{

bool
writeCsv(const TimeSeries &series, const std::string &path)
{
    std::ofstream out(path);
    if (!out)
        return false;
    out << series.csv();
    return bool(out);
}

bool
writeCsv(const SpanTrace &spans, const std::string &path)
{
    std::ofstream out(path);
    if (!out)
        return false;
    out << "start,end,duration,label\n";
    for (const Span &s : spans.spans()) {
        out << s.start << ',' << s.end << ',' << s.duration() << ','
            << s.label << '\n';
    }
    return bool(out);
}

std::string
gnuplotScript(const std::string &csv_path, const std::string &title,
              const std::string &ylabel)
{
    return strfmt("set datafile separator ','\n"
                  "set key autotitle columnhead\n"
                  "set title '%s'\n"
                  "set xlabel 'time (s)'\n"
                  "set ylabel '%s'\n"
                  "set grid\n"
                  "plot '%s' using 1:2 with lines\n",
                  title.c_str(), ylabel.c_str(), csv_path.c_str());
}

} // namespace capy::sim
