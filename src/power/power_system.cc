#include "power/power_system.hh"

#include <algorithm>
#include <cmath>
#include <limits>
#include <utility>

#include "power/solver.hh"
#include "sim/logging.hh"
#include "sim/work.hh"

namespace capy::power
{

namespace
{

/** Voltage tolerance for boundary/fullness comparisons. */
constexpr double kVTol = 1e-6;

/** Span below which a walk has nothing left to do. */
constexpr double kTimeTol = 1e-12;

constexpr double kInf = std::numeric_limits<double>::infinity();

} // namespace

double
PowerSystem::Node::voltage() const
{
    if (!valid || capacitance <= 0.0)
        return 0.0;
    return std::sqrt(2.0 * energy / capacitance);
}

double
PowerSystem::Node::energyAt(double v) const
{
    return 0.5 * capacitance * v * v;
}

PowerSystem::PowerSystem(Spec system_spec,
                         std::unique_ptr<Harvester> harvester_in)
    : spec(system_spec), harvester(std::move(harvester_in)),
      chargeCeiling(kInf)
{
    capy_assert(harvester != nullptr, "power system needs a harvester");
    capy_assert(spec.maxStorageVoltage > spec.output.minInputStart,
                "storage target %g V below output booster start %g V: "
                "the device could never boot",
                spec.maxStorageVoltage, spec.output.minInputStart);
    compose();
}

int
PowerSystem::addBank(const std::string &name, const CapacitorSpec &cap)
{
    banks.push_back(BankState{CapacitorBank(name, cap), std::nullopt,
                              cap.leakageResistance()});
    stage.reset();
    compose();
    return static_cast<int>(banks.size()) - 1;
}

int
PowerSystem::addSwitchedBank(const std::string &name,
                             const CapacitorSpec &cap,
                             const SwitchSpec &sw)
{
    banks.push_back(BankState{CapacitorBank(name, cap),
                              BankSwitch(sw, lastTime),
                              cap.leakageResistance()});
    stage.reset();
    compose();
    return static_cast<int>(banks.size()) - 1;
}

const CapacitorBank &
PowerSystem::bank(int idx) const
{
    capy_assert(idx >= 0 && idx < numBanks(), "bank index %d", idx);
    return banks[static_cast<std::size_t>(idx)].bank;
}

void
PowerSystem::setBankVoltageForTest(int idx, double v)
{
    capy_assert(idx >= 0 && idx < numBanks(), "bank index %d", idx);
    CapacitorBank &b = banks[static_cast<std::size_t>(idx)].bank;
    openingEnergy -= b.energy();
    b.setVoltage(v);
    openingEnergy += b.energy();
    stage.reset();
    compose();
}

const BankSwitch *
PowerSystem::bankSwitch(int idx) const
{
    capy_assert(idx >= 0 && idx < numBanks(), "bank index %d", idx);
    const auto &sw = banks[static_cast<std::size_t>(idx)].sw;
    return sw ? &*sw : nullptr;
}

bool
PowerSystem::bankActive(int idx) const
{
    capy_assert(idx >= 0 && idx < numBanks(), "bank index %d", idx);
    return banks[static_cast<std::size_t>(idx)].active();
}

void
PowerSystem::compose()
{
    node = Node{};
    top = std::min(spec.maxStorageVoltage, chargeCeiling);
    double inv_leak = 0.0;
    double inv_esr = 0.0;
    for (const BankState &bs : banks) {
        if (!bs.active())
            continue;
        const CapacitorBank &b = bs.bank;
        node.energy += b.energy();
        node.capacitance += b.capacitance();
        if (std::isfinite(bs.leakRes) && bs.leakRes > 0.0)
            inv_leak += 1.0 / bs.leakRes;
        if (b.esr() > 0.0)
            inv_esr += 1.0 / b.esr();
        else
            inv_esr = kInf;
        if (b.spec().ratedVoltage > 0.0)
            top = std::min(top, b.spec().ratedVoltage);
    }
    node.leakRes = inv_leak > 0.0 ? 1.0 / inv_leak : kInf;
    node.esr = (inv_esr > 0.0 && std::isfinite(inv_esr))
                   ? 1.0 / inv_esr
                   : 0.0;
    node.valid = node.capacitance > 0.0;
    if (!node.valid)
        return;
    for (const FullMark &m : fullMarks) {
        if (m.capacitance == node.capacitance && m.top == top) {
            fullEnergy = m.energy;
            return;
        }
    }
    fullEnergy = energyReaching(top - kVTol, node.capacitance);
    fullMarks[nextFullMark] = {node.capacitance, top, fullEnergy};
    nextFullMark = (nextFullMark + 1) % fullMarks.size();
}

void
PowerSystem::writeback()
{
    if (!node.valid)
        return;
    // The re-sum, not the walked total, is the node's energy: they
    // differ by ulps, and every later walk must start from what the
    // banks hold. Keeping the walked total moves the grcf_capyp and
    // csr_capyp digests of the work-count gate.
    double sum = 0.0;
    for (BankState &bs : banks) {
        if (!bs.active())
            continue;
        CapacitorBank &b = bs.bank;
        b.setEnergy(node.energy * b.capacitance() / node.capacitance);
        sum += b.energy();
    }
    node.energy = sum;
}

bool
PowerSystem::walkSegment(Node &n, sim::Time t0, double span,
                         Stop *stop, EnergyStats *acc) const
{
    const double p_h = harvester->power(t0);
    const double v_h = limitedVoltage(spec.limiter, harvester->voltage(t0));
    const double pd = (railOn ? storageDrawPower(spec.output, loadPower)
                              : 0.0) +
                      spec.systemQuiescentPower;
    const double e_stop = stop ? n.energyAt(stop->voltage) : 0.0;
    double remaining = span;

    for (int guard = 0; remaining > kTimeTol; ++guard) {
        capy_assert(guard < 100000, "power walk stalled at t=%g", t0);
        ++sim::workCounts.phases;
        PhaseStep s = phaseStep(
            spec.input, p_h, v_h,
            {n.energy, n.capacitance, n.leakRes, top, pd, true,
             n.energy >= fullEnergy});

        if (s.parked) {
            // Parked for the rest of the span, taking in s.input: what
            // does not leak away serves the draw.
            n.energy = s.level;
            if (stop) {
                if (std::abs(n.voltage() - stop->voltage) <= kVTol)
                    return true;
                stop->elapsed += remaining;
            }
            if (acc) {
                double v = n.voltage();
                double leak_p =
                    std::isfinite(n.leakRes) ? v * v / n.leakRes : 0.0;
                acc->harvestedIn += s.input * remaining;
                acc->drainedOut += (s.input - leak_p) * remaining;
                acc->leaked += leak_p * remaining;
            }
            return false;
        }

        // Where the phase leaves the node after the whole span. A
        // target that step clearly misses is crossed after the span
        // (stepMisses), if ever, so it needs no crossing solve: its
        // time counts as never, which picks the same step.
        const double e0 = n.energy;
        double e1 = advanceEnergy(e0, s.phase, remaining, &expMemo);
        auto crossing = [&](double target) {
            if (stepMisses(e0, e1, target, s.phase))
                return kNever;
            ++sim::workCounts.solves;
            return timeToEnergy(e0, target, s.phase);
        };
        const double tb = crossing(s.level);
        if (stop) {
            // A stop on the level (a walk to full) crosses with it.
            double tt = e_stop == s.level ? tb : crossing(e_stop);
            if (tt <= std::min(tb, remaining)) {
                stop->elapsed += tt;
                return true;
            }
        }

        double step = std::min(remaining, tb);
        if (step == tb)
            e1 = s.level;  // land exactly on the level
        n.energy = e1;

        if (stop)
            stop->elapsed += step;
        if (acc) {
            acc->harvestedIn += s.input * step;
            acc->drainedOut += pd * step;
            acc->leaked += s.phase.power * step - (n.energy - e0);
        }
        remaining -= step;
    }
    return false;
}

void
PowerSystem::decayInactive(double dt)
{
    for (BankState &bs : banks) {
        if (bs.active())
            continue;
        Phase phase{0.0, bs.bank.capacitance(), bs.leakRes};
        double e0 = bs.bank.energy();
        double e1 = advanceEnergy(e0, phase, dt, &decayMemo);
        bs.bank.setEnergy(e1);
        energyStats.leaked += e0 - e1;
    }
}

bool
PowerSystem::updateLatches(sim::Time t)
{
    bool reverted = false;
    for (auto &bs : banks) {
        if (!bs.sw)
            continue;
        bool before = bs.sw->closed();
        bs.sw->update(t, railOn);
        if (bs.sw->closed() != before)
            reverted = true;
    }
    return reverted;
}

void
PowerSystem::rebuildAfterReconfig()
{
    activeBanks.clear();
    for (BankState &bs : banks) {
        if (bs.active())
            activeBanks.push_back(&bs.bank);
    }
    if (activeBanks.size() > 1)
        energyStats.sharingLoss += equalizeParallel(activeBanks);
    compose();
    wasFull = isFull();
}

void
PowerSystem::recordTrace()
{
    if (voltTrace)
        voltTrace->record(lastTime, storageVoltage());
}

double
PowerSystem::segmentSpan(sim::Time from, sim::Time t) const
{
    double span = t - from;
    if (!railOn) {
        // Only an unpowered latch decays toward reverting.
        sim::Time exp = nextLatchExpiry();
        if (std::isfinite(exp) && exp < from + span)
            span = std::max(0.0, exp - from);
    }
    sim::Time hb = harvester->nextChange(from);
    if (std::isfinite(hb) && hb < from + span)
        span = std::max(0.0, hb - from);
    return span;
}

void
PowerSystem::advanceTo(sim::Time t)
{
    capy_assert(t >= lastTime, "advanceTo(%g) behind clock %g", t,
                lastTime);
    // runLoad()'s stage stands in for the first segment's walk when
    // this advance ends where the run does; any other advance drops it.
    if (stage && (stage->from != lastTime || stage->to != t))
        stage.reset();
    int guard = 0;
    while (true) {
        capy_assert(++guard < 1000000,
                    "advanceTo failed to make progress at t=%g",
                    lastTime);
        // The staged segment's span is the one runLoad() took.
        double dt_max = stage ? stage->span : segmentSpan(lastTime, t);

        if (dt_max > 0.0) {
            if (node.valid) {
                if (stage) {
                    node.energy = stage->energy;
                    energyStats = stage->stats;
                } else {
                    ++sim::workCounts.advanceWalks;
                    walkSegment(node, lastTime, dt_max, nullptr,
                                &energyStats);
                }
                writeback();
            }
            decayInactive(dt_max);
            lastTime += dt_max;
        }
        stage.reset();

        // A node that filled during the segment counts before a latch
        // reverting at its end reconfigures it.
        bool full_now = isFull();
        if (full_now && !wasFull) {
            ++energyStats.chargeCompletions;
            for (auto &bs : banks) {
                if (!bs.sw || bs.sw->closed())
                    bs.bank.recordCycle();
            }
        }
        wasFull = full_now;
        if (updateLatches(lastTime))
            rebuildAfterReconfig();
        recordTrace();

        if (lastTime >= t)
            break;
    }
}

void
PowerSystem::commandSwitch(int idx, bool closed)
{
    capy_assert(idx >= 0 && idx < numBanks(), "bank index %d", idx);
    capy_assert(railOn, "switch commanded while the rail is off");
    BankState &bs = banks[static_cast<std::size_t>(idx)];
    capy_assert(bs.sw.has_value(), "bank %d ('%s') is hard-wired", idx,
                bs.bank.name().c_str());
    bs.sw->command(closed, lastTime, railOn);
    stage.reset();
    rebuildAfterReconfig();
    recordTrace();
}

void
PowerSystem::setRailLoad(double watts)
{
    capy_assert(watts >= 0.0, "negative rail load %g", watts);
    if (watts != loadPower)
        stage.reset();
    loadPower = watts;
}

void
PowerSystem::setRailEnabled(bool on)
{
    if (railOn == on)
        return;
    stage.reset();
    railOn = on;
    if (!on)
        loadPower = 0.0;
    // Latch replenishment state changed; refresh latches at this time
    // (a reversion here changes the active set).
    if (updateLatches(lastTime))
        rebuildAfterReconfig();
}

void
PowerSystem::setChargeCeiling(double v)
{
    capy_assert(v > spec.output.minInputStart,
                "charge ceiling %g V below booster start %g V", v,
                spec.output.minInputStart);
    stage.reset();
    chargeCeiling = v;
    compose();
    wasFull = isFull();
}

double
PowerSystem::collapseToBrownout()
{
    if (!node.valid)
        return 0.0;
    // Land just below the floor so the rail cannot restart without a
    // real recharge phase (mirrors the revert-threshold hysteresis).
    double floor_v = brownoutVoltageNow() * (1.0 - 1e-9);
    double floor_e = node.energyAt(std::max(floor_v, 0.0));
    if (node.energy <= floor_e)
        return 0.0;
    double drained = node.energy - floor_e;
    stage.reset();
    node.energy = floor_e;
    writeback();
    wasFull = isFull();  // so the recharge to full counts
    energyStats.faultDrained += drained;
    recordTrace();
    return drained;
}

void
PowerSystem::clearChargeCeiling()
{
    stage.reset();
    chargeCeiling = kInf;
    compose();
    wasFull = isFull();
}

double
PowerSystem::storageVoltage() const
{
    return node.voltage();
}

double
PowerSystem::activeCapacitance() const
{
    return node.capacitance;
}

double
PowerSystem::activeEsr() const
{
    return node.esr;
}

double
PowerSystem::activeEnergy() const
{
    return node.energy;
}

double
PowerSystem::storedEnergy() const
{
    double e = 0.0;
    for (const auto &bs : banks)
        e += bs.bank.energy();
    return e;
}

double
PowerSystem::ledgerResidual() const
{
    const EnergyStats &st = energyStats;
    return (storedEnergy() - openingEnergy) -
           (st.harvestedIn - st.drainedOut - st.leaked - st.faultDrained -
            st.sharingLoss);
}

double
PowerSystem::brownoutVoltageNow() const
{
    return brownoutVoltage(spec.output, loadPower, activeEsr());
}

double
PowerSystem::startupVoltage(double rail_load) const
{
    return startVoltage(spec.output, rail_load, activeEsr());
}

bool
PowerSystem::isFull() const
{
    return node.valid && node.energy >= fullEnergy;
}

sim::Time
PowerSystem::timeToVoltage(double target_v) const
{
    capy_assert(target_v >= 0.0, "negative target voltage %g",
                target_v);
    ++sim::workCounts.queryWalks;
    if (!node.valid)
        return kNever;
    if (std::abs(node.voltage() - target_v) <= kVTol)
        return 0.0;

    // Walk a copy of the node through the harvester segments
    // advanceTo() would take, with the target as the stop.
    Node n = node;
    Stop stop{target_v};
    sim::Time t_abs = lastTime;
    for (int iter = 0; iter < 100000; ++iter) {
        sim::Time hb = harvester->nextChange(t_abs);
        // Past the last harvester change, one long walk decides.
        double span = std::isfinite(hb) ? hb - t_abs : 1e9;
        if (walkSegment(n, t_abs, span, &stop, nullptr))
            return stop.elapsed;
        if (!std::isfinite(hb))
            return kNever;
        // Step the clock as advanceTo() does, so the segment starts
        // match advanceTo()'s bit for bit.
        t_abs += span;
        if (stop.elapsed > 1e8)
            return kNever;
    }
    return kNever;
}

sim::Time
PowerSystem::timeToFull() const
{
    // A node above a lowered target is full already; walking to the
    // target would time its drain.
    if (isFull())
        return 0.0;
    return timeToVoltage(top);
}

sim::Time
PowerSystem::timeToBrownout() const
{
    double floor_v = brownoutVoltageNow();
    double v = storageVoltage();
    if (v <= floor_v + kVTol)
        return 0.0;
    return timeToVoltage(floor_v);
}

sim::Time
PowerSystem::runLoad(double watts, sim::Time t_end)
{
    capy_assert(railOn, "runLoad while the rail is off");
    capy_assert(t_end >= lastTime, "runLoad to %g behind clock %g",
                t_end, lastTime);
    setRailLoad(watts);
    stage.reset();

    // timeToBrownout()'s walk, cut at t_end: up to there it takes the
    // same segments, so a brown-out it finds is bit-identical.
    double floor_v = brownoutVoltageNow();
    if (node.voltage() <= floor_v + kVTol)
        return 0.0;
    ++sim::workCounts.queryWalks;
    Node n = node;
    Stop stop{floor_v};
    sim::Time t_abs = lastTime;
    for (int guard = 0; t_abs < t_end; ++guard) {
        capy_assert(guard < 1000000,
                    "runLoad failed to make progress at t=%g", t_abs);
        double span = segmentSpan(t_abs, t_end);
        if (guard > 0) {
            if (walkSegment(n, t_abs, span, &stop, nullptr))
                return stop.elapsed;
        } else {
            // The first segment is the one advanceTo(t_end) walks
            // first: book its flows straight into the stage, which
            // stands only if the rail holds through the segment.
            Staged &first = stage.emplace(lastTime, t_end, span, 0.0,
                                          energyStats);
            if (walkSegment(n, t_abs, span, &stop, &first.stats)) {
                stage.reset();
                return stop.elapsed;
            }
            first.energy = n.energy;
        }
        t_abs += span;
    }
    return kNever;
}

sim::Time
PowerSystem::nextLatchExpiry() const
{
    if (railOn)
        return kNever;
    sim::Time earliest = kNever;
    for (const auto &bs : banks) {
        if (!bs.sw || bs.sw->atDefault())
            continue;
        earliest = std::min(earliest, bs.sw->expiryTime(lastTime));
    }
    return earliest;
}

double
PowerSystem::totalSwitchArea() const
{
    double area = 0.0;
    for (const auto &bs : banks)
        if (bs.sw)
            area += bs.sw->spec().area;
    return area;
}

double
PowerSystem::totalCapacitorVolume() const
{
    double vol = 0.0;
    for (const auto &bs : banks)
        vol += bs.bank.spec().volume;
    return vol;
}

} // namespace capy::power
