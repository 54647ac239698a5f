#include "power/federated.hh"

#include <algorithm>
#include <cmath>

#include "sim/logging.hh"

namespace capy::power
{

namespace
{

constexpr double kVTol = 1e-6;
/** Fullness tolerance: crossing-time landings sit within FP error of
 *  the target; treat anything within 0.1 mV as full. */
constexpr double kVFullTol = 1e-4;
constexpr double kTimeTol = 1e-12;

} // namespace

FederatedStorage::FederatedStorage(Spec spec_in,
                                   std::unique_ptr<Harvester> h)
    : spec(spec_in), harvester(std::move(h))
{
    capy_assert(harvester != nullptr, "federated storage needs a "
                                      "harvester");
}

int
FederatedStorage::addNode(const std::string &name,
                          const CapacitorSpec &cap)
{
    nodes.push_back(NodeState{CapacitorBank(name, cap), 0.0});
    scratch.resize(nodes.size());
    return static_cast<int>(nodes.size()) - 1;
}

const CapacitorBank &
FederatedStorage::node(int idx) const
{
    capy_assert(idx >= 0 && idx < numNodes(), "node index %d", idx);
    return nodes[static_cast<std::size_t>(idx)].bank;
}

void
FederatedStorage::setNodeVoltageForTest(int idx, double v)
{
    capy_assert(idx >= 0 && idx < numNodes(), "node index %d", idx);
    nodes[static_cast<std::size_t>(idx)].bank.setVoltage(v);
}

void
FederatedStorage::setNodeLoad(int idx, double watts)
{
    capy_assert(idx >= 0 && idx < numNodes(), "node index %d", idx);
    capy_assert(watts >= 0.0, "negative load");
    nodes[static_cast<std::size_t>(idx)].load = watts;
}

double
FederatedStorage::nodeVoltage(int idx) const
{
    return node(idx).voltage();
}

bool
FederatedStorage::nodeFull(int idx) const
{
    return fullAt(static_cast<std::size_t>(idx), node(idx).energy());
}

bool
FederatedStorage::allFull() const
{
    for (int i = 0; i < numNodes(); ++i)
        if (!nodeFull(i))
            return false;
    return true;
}

double
FederatedStorage::nodeBrownoutVoltage(int idx) const
{
    const NodeState &ns = nodes[static_cast<std::size_t>(idx)];
    return brownoutVoltage(spec.output, ns.load, ns.bank.esr());
}

double
FederatedStorage::totalStoredEnergy() const
{
    double e = 0.0;
    for (const auto &ns : nodes)
        e += ns.bank.energy();
    return e;
}

double
FederatedStorage::topVoltage(std::size_t i) const
{
    return std::min(spec.maxStorageVoltage,
                    nodes[i].bank.spec().ratedVoltage);
}

bool
FederatedStorage::fullAt(std::size_t i, double e) const
{
    return std::sqrt(2.0 * e / nodes[i].bank.capacitance()) >=
           topVoltage(i) - kVFullTol;
}

FederatedStorage::Motion
FederatedStorage::motion(std::size_t i, double e, bool charging,
                         double p_h, double v_h, const Stop *stop) const
{
    const NodeState &ns = nodes[i];
    const CapacitorBank &b = ns.bank;
    const double vtop = topVoltage(i);
    const bool full = fullAt(i, e);
    const double pd = (ns.load > 0.0
                           ? storageDrawPower(spec.output, ns.load)
                           : 0.0) +
                      spec.nodeQuiescentPower;
    Motion m{phaseStep(spec.input, p_h, v_h,
                       {e, b.capacitance(), b.spec().leakageResistance(),
                        vtop, pd, charging, full})};
    PhaseStep &s = m.step;
    if (s.parked)
        return m;
    if (s.level > e) {
        m.stops = stop && static_cast<int>(i) == stop->fullNode &&
                  s.level == b.energyAtVoltage(vtop);
        return m;
    }

    // Falling: the cascade's own levels below the node.
    const double v = std::sqrt(2.0 * e / b.capacitance());
    if (full && !charging) {
        // Aim just under the full threshold so the landing is
        // unambiguously not full: the dip hands the cascade back.
        double dip = vtop - kVFullTol - kVTol;
        if (dip < v - kVTol)
            s.level = b.energyAtVoltage(dip);
    }
    if (stop && stop->brownout && ns.load > 0.0) {
        double floor_v = nodeBrownoutVoltage(static_cast<int>(i));
        double floor_e = b.energyAtVoltage(floor_v);
        if (floor_e > s.level && floor_v < v - kVTol) {
            s.level = floor_e;
            m.stops = true;
        }
    }
    return m;
}

bool
FederatedStorage::walkSegment(double *e, sim::Time t0, double span,
                              Stop *stop) const
{
    const double p_h = harvester->power(t0);
    const double v_h = harvester->voltage(t0);
    const std::size_t n = nodes.size();
    double remaining = span;
    for (int guard = 0; remaining > kTimeTol; ++guard) {
        capy_assert(guard < 100000, "federated walk stalled at t=%g",
                    t0);
        // The cascade charges its first node that is not full.
        std::size_t ci = 0;
        while (ci < n && fullAt(ci, e[ci]))
            ++ci;

        // The phase ends at the earliest level any node reaches.
        double step = remaining;
        std::size_t win = n;
        bool stops = false;
        // A node draining to empty clamps there without ending it.
        for (std::size_t i = 0; i < n; ++i) {
            Motion m = motion(i, e[i], i == ci, p_h, v_h, stop);
            if (m.step.parked || m.step.level <= 0.0)
                continue;
            double tb = timeToEnergy(e[i], m.step.level, m.step.phase);
            if (tb <= step) {
                step = tb;
                win = i;
                stops = m.stops;
            }
        }
        if (!std::isfinite(step))
            return false;  // nothing changes for the rest of time

        for (std::size_t i = 0; i < n; ++i) {
            const PhaseStep s =
                motion(i, e[i], i == ci, p_h, v_h, stop).step;
            if (s.parked || i == win)
                e[i] = s.level;  // land exactly on the level
            else
                e[i] = advanceEnergy(e[i], s.phase, step);
        }
        if (stop)
            stop->elapsed += step;
        if (stops)
            return true;
        remaining -= step;
    }
    return false;
}

sim::Time
FederatedStorage::segmentEnd(sim::Time t) const
{
    return std::max(harvester->nextChange(t), std::nextafter(t, kNever));
}

void
FederatedStorage::advanceTo(sim::Time t)
{
    capy_assert(t >= lastTime, "advanceTo(%g) behind clock %g", t,
                lastTime);
    for (std::size_t i = 0; i < nodes.size(); ++i)
        scratch[i] = nodes[i].bank.energy();
    while (lastTime < t) {
        sim::Time end = std::min(t, segmentEnd(lastTime));
        walkSegment(scratch.data(), lastTime, end - lastTime, nullptr);
        lastTime = end;
    }
    for (std::size_t i = 0; i < nodes.size(); ++i)
        nodes[i].bank.setEnergy(scratch[i]);
}

sim::Time
FederatedStorage::walkToStop(Stop &stop) const
{
    for (std::size_t i = 0; i < nodes.size(); ++i)
        scratch[i] = nodes[i].bank.energy();
    for (sim::Time t = lastTime; stop.elapsed < 1e7;) {
        sim::Time end = segmentEnd(t);
        if (walkSegment(scratch.data(), t, end - t, &stop))
            return stop.elapsed;
        if (!std::isfinite(end))
            break;
        t = end;  // step the clock as advanceTo() does
    }
    return kNever;
}

sim::Time
FederatedStorage::timeToNodeFull(int idx) const
{
    capy_assert(idx >= 0 && idx < numNodes(), "node index %d", idx);
    if (nodeFull(idx))
        return 0.0;
    Stop stop;
    stop.fullNode = idx;
    return walkToStop(stop);
}

sim::Time
FederatedStorage::timeToAnyBrownout() const
{
    bool loaded = false;
    for (int i = 0; i < numNodes(); ++i) {
        if (nodes[static_cast<std::size_t>(i)].load <= 0.0)
            continue;
        if (nodeVoltage(i) <= nodeBrownoutVoltage(i) + kVTol)
            return 0.0;
        loaded = true;
    }
    if (!loaded)
        return kNever;
    Stop stop;
    stop.brownout = true;
    return walkToStop(stop);
}

} // namespace capy::power
