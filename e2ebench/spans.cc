#include "spans.hh"

#include <cstdio>
#include <stdexcept>

namespace e2e
{

int
SpanRecorder::open(std::string name, long run)
{
    Span s;
    s.name = std::move(name);
    s.start = seconds(origin, Clock::now());
    s.parent = stack.empty() ? -1 : stack.back();
    s.run = run;
    recs.push_back(std::move(s));
    int id = int(recs.size()) - 1;
    stack.push_back(id);
    return id;
}

void
SpanRecorder::close(int id)
{
    if (stack.empty() || stack.back() != id)
        throw std::logic_error("span closed out of order");
    recs[std::size_t(id)].end = seconds(origin, Clock::now());
    stack.pop_back();
}

std::vector<double>
SpanRecorder::selfTimes() const
{
    std::vector<double> self(recs.size());
    for (std::size_t i = 0; i < recs.size(); ++i)
        self[i] = recs[i].duration();
    for (const Span &s : recs)
        if (s.parent >= 0)
            self[std::size_t(s.parent)] -= s.duration();
    return self;
}

namespace
{

std::string
jsonEscape(const std::string &s)
{
    std::string out;
    for (char c : s) {
        if (c == '"' || c == '\\')
            out += '\\';
        if (static_cast<unsigned char>(c) < 0x20)
            continue;
        out += c;
    }
    return out;
}

} // namespace

bool
SpanRecorder::writeChromeTrace(const std::string &path) const
{
    std::FILE *f = std::fopen(path.c_str(), "w");
    if (!f)
        return false;
    std::vector<double> self = selfTimes();
    std::fputs("{\"displayTimeUnit\":\"ms\",\"traceEvents\":[\n", f);
    for (std::size_t i = 0; i < recs.size(); ++i) {
        const Span &s = recs[i];
        // Complete ("X") events in microseconds on one thread; the
        // viewer nests them by time, args keep the explicit links.
        std::fprintf(f,
                     "%s{\"name\":\"%s\",\"ph\":\"X\",\"pid\":1,"
                     "\"tid\":1,\"ts\":%.3f,\"dur\":%.3f,\"args\":{"
                     "\"id\":%zu,\"parent\":%d,\"run\":%ld,"
                     "\"self_us\":%.3f}}",
                     i ? ",\n" : "", jsonEscape(s.name).c_str(),
                     s.start * 1e6, s.duration() * 1e6, i, s.parent,
                     s.run, self[i] * 1e6);
    }
    std::fputs("\n]}\n", f);
    return std::fclose(f) == 0;
}

} // namespace e2e
