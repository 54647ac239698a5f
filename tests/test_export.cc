/**
 * @file
 * Tests for CSV/gnuplot export and the kernel's per-task energy
 * attribution profiler.
 */

#include <gtest/gtest.h>

#include <cstdio>
#include <fstream>
#include <memory>
#include <sstream>

#include "dev/device.hh"
#include "power/parts.hh"
#include "rt/kernel.hh"
#include "sim/export.hh"
#include "sim/simulator.hh"

using namespace capy;
using namespace capy::sim;

namespace
{

std::string
slurp(const std::string &path)
{
    std::ifstream in(path);
    std::stringstream ss;
    ss << in.rdbuf();
    return ss.str();
}

std::string
tmpPath(const char *name)
{
    return std::string(::testing::TempDir()) + name;
}

} // namespace

TEST(Export, TimeSeriesCsv)
{
    TimeSeries ts("volts");
    ts.record(0.0, 1.5);
    ts.record(2.0, 2.5);
    std::string path = tmpPath("series.csv");
    ASSERT_TRUE(writeCsv(ts, path));
    std::string body = slurp(path);
    EXPECT_NE(body.find("time,volts"), std::string::npos);
    EXPECT_NE(body.find("2,2.5"), std::string::npos);
    std::remove(path.c_str());
}

TEST(Export, SpanTraceCsv)
{
    SpanTrace st;
    st.open(0.0, "charge");
    st.close(4.0);
    st.open(4.0, "on");
    st.close(5.0);
    std::string path = tmpPath("spans.csv");
    ASSERT_TRUE(writeCsv(st, path));
    std::string body = slurp(path);
    EXPECT_NE(body.find("start,end,duration,label"),
              std::string::npos);
    EXPECT_NE(body.find("0,4,4,charge"), std::string::npos);
    EXPECT_NE(body.find("4,5,1,on"), std::string::npos);
    std::remove(path.c_str());
}

TEST(Export, UnwritablePathFails)
{
    TimeSeries ts("x");
    ts.record(0.0, 1.0);
    EXPECT_FALSE(writeCsv(ts, "/nonexistent-dir/foo.csv"));
}

TEST(Export, GnuplotScriptMentionsInputs)
{
    std::string s = gnuplotScript("data.csv", "My Title", "volts");
    EXPECT_NE(s.find("data.csv"), std::string::npos);
    EXPECT_NE(s.find("My Title"), std::string::npos);
    EXPECT_NE(s.find("volts"), std::string::npos);
}

TEST(TaskEnergyProfile, AttributesCompletedWork)
{
    sim::Simulator s;
    power::PowerSystem::Spec spec;
    auto ps = std::make_unique<power::PowerSystem>(
        spec,
        std::make_unique<power::RegulatedSupply>(10e-3, 3.3));
    ps->addBank("b", power::parts::x5r100uF().parallel(6));
    dev::Device device(s, std::move(ps), dev::msp430fr5969(),
                       dev::Device::PowerMode::Intermittent);

    rt::App app;
    rt::Task *light = nullptr;
    rt::Task *heavy = app.addTask("heavy", 5e-3, 10e-3,
                                  [&](rt::Kernel &) -> const rt::Task * {
                                      return light;
                                  });
    light = app.addTask("light", 1e-3, 0.0,
                        [&](rt::Kernel &k) -> const rt::Task * {
                            return k.stats().taskCompletions < 20
                                       ? heavy
                                       : nullptr;
                        });
    app.setEntry(heavy);
    rt::Kernel kernel(device, app);
    kernel.start();
    s.runUntil(120.0);
    ASSERT_TRUE(kernel.halted());

    const auto &profile = kernel.energyByTask();
    ASSERT_TRUE(profile.count("heavy"));
    ASSERT_TRUE(profile.count("light"));
    const auto &h = profile.at("heavy");
    const auto &l = profile.at("light");
    EXPECT_GT(h.completions, 5u);
    // Per-completion energy: (22 mW + 10 mW) * 5 ms vs 22 mW * 1 ms.
    EXPECT_NEAR(h.railEnergy / double(h.completions), 32e-3 * 5e-3,
                1e-9);
    EXPECT_NEAR(l.railEnergy / double(l.completions), 22e-3 * 1e-3,
                1e-9);
    EXPECT_NEAR(h.activeTime, double(h.completions) * 5e-3, 1e-9);
}

TEST(TaskEnergyProfile, TracksWastedAttempts)
{
    sim::Simulator s;
    power::PowerSystem::Spec spec;
    auto ps = std::make_unique<power::PowerSystem>(
        spec,
        std::make_unique<power::RegulatedSupply>(10e-3, 3.3));
    ps->addBank("b", power::parts::x5r100uF().parallel(4));
    dev::Device device(s, std::move(ps), dev::msp430fr5969(),
                       dev::Device::PowerMode::Intermittent);

    rt::App app;
    // Oversized task: every attempt browns out.
    app.addTask("doomed", 10.0, 10e-3,
                [&](rt::Kernel &) -> const rt::Task * {
                    return nullptr;
                });
    rt::Kernel kernel(device, app);
    kernel.start();
    s.runUntil(60.0);

    const auto &profile = kernel.energyByTask();
    ASSERT_TRUE(profile.count("doomed"));
    const auto &d = profile.at("doomed");
    EXPECT_EQ(d.completions, 0u);
    EXPECT_GT(d.failedAttempts, 3u);
    EXPECT_GT(d.wastedEnergy, 0.0);
    EXPECT_DOUBLE_EQ(d.railEnergy, 0.0);
}
