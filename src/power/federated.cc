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

CapacitorBank &
FederatedStorage::nodeForTest(int idx)
{
    capy_assert(idx >= 0 && idx < numNodes(), "node index %d", idx);
    return nodes[static_cast<std::size_t>(idx)].bank;
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
    const double v = std::sqrt(2.0 * e / b.capacitance());
    const double vtop = topVoltage(i);
    const double r = b.spec().leakageResistance();
    const double pd = (ns.load > 0.0
                           ? storageDrawPower(spec.output, ns.load)
                           : 0.0) +
                      spec.nodeQuiescentPower;

    // Nearest levels above and below v where the motion changes, and
    // the net power on either side of v. Each side's regime is read
    // mid-way to its level, so a node sitting on a breakpoint sees
    // the regime it would move into.
    double up = kNever;
    double dn = 0.0;
    double p_up = -pd;
    double p_dn = -pd;
    if (charging) {
        up = vtop;
        for (double bp : inputChargeBreakpoints(spec.input, v_h)) {
            if (bp > v + kVTol)
                up = std::min(up, bp);
            if (bp < v - kVTol)
                dn = std::max(dn, bp);
        }
        p_up += inputChargePower(spec.input, p_h, v_h, 0.5 * (v + up));
        p_dn += inputChargePower(spec.input, p_h, v_h, 0.5 * (dn + v));
    } else if (fullAt(i, e)) {
        double leak = std::isfinite(r) ? vtop * vtop / r : 0.0;
        if (inputChargePower(spec.input, p_h, v_h, vtop) >= pd + leak)
            return Motion{{}, true, b.energyAtVoltage(vtop), false};
        // Aim just under the full threshold so the landing is
        // unambiguously not full: the dip hands the cascade back.
        double dip = vtop - kVFullTol - kVTol;
        if (dip < v - kVTol)
            dn = dip;
    }
    bool dn_stops = false;
    if (stop && stop->brownout && ns.load > 0.0) {
        double floor_v = nodeBrownoutVoltage(static_cast<int>(i));
        if (floor_v > dn && floor_v < v - kVTol) {
            dn = floor_v;
            dn_stops = true;
        }
    }

    Phase rise{p_up, b.capacitance(), r};
    Phase fall{p_dn, b.capacitance(), r};
    if (steadyStateEnergy(rise) > e) {
        bool stops = stop && static_cast<int>(i) == stop->fullNode &&
                     up == vtop;
        return Motion{rise, false, b.energyAtVoltage(up), stops};
    }
    if (steadyStateEnergy(fall) < e) {
        double level = dn > 0.0 ? b.energyAtVoltage(dn) : -1.0;
        return Motion{fall, false, level, dn_stops};
    }
    // Empty, at equilibrium, or pushed back from both sides of a
    // converter breakpoint: the node stays where it is.
    return Motion{{}, true, e, false};
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
        for (std::size_t i = 0; i < n; ++i) {
            Motion m = motion(i, e[i], i == ci, p_h, v_h, stop);
            if (m.parked || m.level < 0.0)
                continue;
            double tb = timeToEnergy(e[i], m.level, m.phase);
            if (tb <= step) {
                step = tb;
                win = i;
                stops = m.stops;
            }
        }
        if (!std::isfinite(step))
            return false;  // nothing changes for the rest of time

        for (std::size_t i = 0; i < n; ++i) {
            Motion m = motion(i, e[i], i == ci, p_h, v_h, stop);
            if (m.parked || i == win)
                e[i] = m.level;  // land exactly on the level
            else
                e[i] = advanceEnergy(e[i], m.phase, step);
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
