/**
 * @file
 * Brute-force reference boards: checks of the analytic power walk
 * (PowerSystem) and of the federated cascade (FederatedStorage) that
 * share none of their code.
 *
 * A reference steps its storage in fixed 0.1 ms forward-Euler steps.
 * Its state is stored energy: the energy of every bank or node and of
 * every switch latch, with each voltage derived from it, as in the
 * eh-sim capacitor (the cascade adds each node's charging comparator).
 * Each step reads the harvester at the step's
 * start and moves the energy by what the input booster delivers at
 * the present storage voltage, less the load's draw and the leakage.
 * The references share the component formulas with the simulator
 * (inputChargePower, storageDrawPower, brownoutVoltage,
 * limitedVoltage) and nothing else: no closed-form solver, no phase
 * walker, no predictive query. A node held between two converter
 * regimes, the limiter pin and an empty node are not rules here; they
 * come out of the stepping. The board's rules of its own: the input
 * booster charges only up to the charge target (a node above a
 * lowered ceiling is not fed), and a supply collapse drops the active
 * banks just below the brown-out floor the board computes from its
 * own composite ESR.
 */

#ifndef CAPY_TESTS_REFERENCE_BOARD_HH
#define CAPY_TESTS_REFERENCE_BOARD_HH

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <limits>
#include <vector>

#include "power/booster.hh"
#include "power/capacitor.hh"
#include "power/federated.hh"
#include "power/harvester.hh"
#include "power/power_system.hh"

namespace capy::oracle
{

/** The references' fixed step, s. */
inline constexpr double kStep = 1e-4;

/** Returned by a reference query that found nothing in its horizon. */
inline constexpr double kNone = -1.0;

/** Energy of capacitance @p c at @p v volts, J. */
inline double
energyAt(double c, double v)
{
    return 0.5 * c * v * v;
}

/** Voltage of capacitance @p c holding @p e joules. */
inline double
voltageOf(double c, double e)
{
    return c > 0.0 ? std::sqrt(2.0 * e / c) : 0.0;
}

/** Leakage conductance of @p cap, S: its rated leakage current at its
 *  rated voltage. */
inline double
leakConductance(const power::CapacitorSpec &cap)
{
    return cap.ratedVoltage > 0.0 ? cap.leakageCurrent / cap.ratedVoltage
                                  : 0.0;
}

/** Energy flows a reference booked, J. */
struct Ledger
{
    double harvestedIn = 0.0;  ///< delivered into storage
    double drainedOut = 0.0;   ///< served to the load and overhead
    double leaked = 0.0;       ///< lost to storage leakage
    double sharingLoss = 0.0;  ///< dissipated sharing charge
    double faultDrained = 0.0; ///< dumped by supply collapses
};

/**
 * One step of a node that the input booster feeds at @p in watts and
 * that draws @p draw and leaks @p leak watts, capped at @p e_top by the
 * limiter and at zero by emptiness. Books the flows into @p book.
 * @return the energy after the step.
 */
inline double
feedStep(double e, double in, double draw, double leak, double e_top,
         double dt, Ledger &book)
{
    double e1 = e + (in - draw - leak) * dt;
    if (e1 > e_top && e1 > e) {
        // The limiter shunts what would lift the node past its top.
        double shunt = e1 - std::max(e, e_top);
        in -= shunt / dt;
        e1 -= shunt;
    }
    double served = draw;
    if (e1 < 0.0) {
        // An empty node serves only what arrives.
        served += e1 / dt;
        e1 = 0.0;
    }
    book.harvestedIn += in * dt;
    book.drainedOut += served * dt;
    book.leaked += leak * dt;
    return e1;
}

/** Run @p board forward in steps until @p hit holds, for at most
 *  @p horizon seconds. @return the time taken, or kNone. */
template <typename Board, typename Hit>
double
stepUntil(Board board, double horizon, Hit hit)
{
    for (double t = 0.0; t <= horizon; t += kStep) {
        if (hit(board))
            return t;
        board.step(kStep);
    }
    return kNone;
}

/**
 * Reference twin of a PowerSystem: banks, hard-wired or behind latch
 * switches, fed through the limiter and the input booster, and the
 * rail's load through the output booster.
 */
class ReferenceBoard
{
  public:
    ReferenceBoard(const power::PowerSystem::Spec &spec,
                   const power::Harvester &harvester)
        : spec(spec), harvester(&harvester)
    {}

    void
    addBank(const power::CapacitorSpec &cap)
    {
        banks.push_back(Bank{cap, leakConductance(cap)});
    }

    void
    addSwitchedBank(const power::CapacitorSpec &cap,
                    const power::SwitchSpec &sw)
    {
        Bank b{cap, leakConductance(cap)};
        b.sw = sw;
        b.switched = true;
        b.closed = b.defaultClosed();
        banks.push_back(b);
    }

    void
    setBankVoltage(int idx, double v)
    {
        Bank &b = banks[std::size_t(idx)];
        b.energy = energyAt(b.cap.capacitance, v);
    }

    void
    setRailEnabled(bool on)
    {
        railOn = on;
        if (!on)
            load = 0.0;
        refreshLatches();
    }

    void setRailLoad(double watts) { load = watts; }

    /** Cap the charge target at @p v. */
    void
    setChargeCeiling(double v)
    {
        ceiling = v;
        wasFull = full();
    }

    /**
     * PowerSystem::collapseToBrownout(): drop the active banks to just
     * below the brown-out floor, booking what that dumps.
     * @return the joules dumped.
     */
    double
    collapseToBrownout()
    {
        double c = 0.0, e = 0.0;
        for (const Bank &b : banks) {
            if (b.active()) {
                c += b.cap.capacitance;
                e += b.energy;
            }
        }
        double floor_e = energyAt(c, brownoutVoltage() * (1.0 - 1e-9));
        if (c <= 0.0 || e <= floor_e)
            return 0.0;
        for (Bank &b : banks)
            if (b.active())
                b.energy = floor_e / c * b.cap.capacitance;
        book.faultDrained += e - floor_e;
        return e - floor_e;
    }

    /** Drive bank @p idx's switch (the rail must be on). */
    void
    commandSwitch(int idx, bool closed)
    {
        Bank &b = banks[std::size_t(idx)];
        b.closed = closed;
        b.latchEnergy = 0.0;
        refreshLatches();
        share();
    }

    /** Step to absolute time @p t. */
    void
    advanceTo(double t)
    {
        while (t - now > 1e-12)
            step(std::min(kStep, t - now));
        now = t;
    }

    /** Time until the storage voltage falls to the rail's brown-out
     *  floor at the present load, within @p horizon; kNone if not. */
    double
    timeToBrownout(double horizon) const
    {
        return stepUntil(*this, horizon, [](const ReferenceBoard &b) {
            return b.storageVoltage() <= b.brownoutVoltage();
        });
    }

    /** Time until the node reaches its charge target, within
     *  @p horizon; kNone if not. */
    double
    timeToFull(double horizon) const
    {
        return stepUntil(*this, horizon,
                         [](const ReferenceBoard &b) { return b.full(); });
    }

    /** PowerSystem::runLoad(): set the load and return the time to the
     *  brown-out if it comes by @p t_end, else kNone. */
    double
    runLoad(double watts, double t_end)
    {
        load = watts;
        return timeToBrownout(t_end - now);
    }

    bool
    bankActive(int idx) const
    {
        return banks[std::size_t(idx)].active();
    }

    double
    bankVoltage(int idx) const
    {
        const Bank &b = banks[std::size_t(idx)];
        return voltageOf(b.cap.capacitance, b.energy);
    }

    double
    storageVoltage() const
    {
        double c = 0.0, e = 0.0;
        for (const Bank &b : banks) {
            if (b.active()) {
                c += b.cap.capacitance;
                e += b.energy;
            }
        }
        return voltageOf(c, e);
    }

    /** Charge target of the active banks under the ceiling, V. */
    double
    topVoltage() const
    {
        double top = std::min(spec.maxStorageVoltage, ceiling);
        for (const Bank &b : banks)
            if (b.active() && b.cap.ratedVoltage > 0.0)
                top = std::min(top, b.cap.ratedVoltage);
        return top;
    }

    /** Brown-out floor at the present load, through the active banks'
     *  parallel ESR. */
    double
    brownoutVoltage() const
    {
        double conductance = 0.0;
        for (const Bank &b : banks) {
            if (!b.active())
                continue;
            if (b.cap.esr <= 0.0)
                return power::brownoutVoltage(spec.output, load, 0.0);
            conductance += 1.0 / b.cap.esr;
        }
        return power::brownoutVoltage(
            spec.output, load, conductance > 0.0 ? 1.0 / conductance : 0.0);
    }

    bool
    full() const
    {
        double c = 0.0, e = 0.0;
        for (const Bank &b : banks) {
            if (b.active()) {
                c += b.cap.capacitance;
                e += b.energy;
            }
        }
        return fullAt(c, e, topVoltage());
    }

    const Ledger &ledger() const { return book; }
    std::uint64_t chargeCompletions() const { return completions; }

    /** One forward-Euler step of @p dt seconds. */
    void
    step(double dt)
    {
        const double p_h = harvester->power(now);
        const double v_h =
            power::limitedVoltage(spec.limiter, harvester->voltage(now));

        double c = 0.0, e = 0.0, g = 0.0;
        for (const Bank &b : banks) {
            if (b.active()) {
                c += b.cap.capacitance;
                e += b.energy;
                g += b.leakG;
            }
        }
        const double top = topVoltage();
        if (c > 0.0) {
            double v = voltageOf(c, e);
            double draw =
                (railOn ? power::storageDrawPower(spec.output, load) : 0.0) +
                spec.systemQuiescentPower;
            // The booster charges only up to the top: a node above it
            // (under a lowered ceiling) drains.
            double e_top = energyAt(c, top);
            double in = e <= e_top * (1.0 + 1e-9)
                            ? power::inputChargePower(spec.input, p_h, v_h, v)
                            : 0.0;
            e = feedStep(e, in, draw, g * v * v, e_top, dt, book);
            const double per_farad = e / c;  // one voltage across them
            for (Bank &b : banks)
                if (b.active())
                    b.energy = per_farad * b.cap.capacitance;
        }
        for (Bank &b : banks) {
            if (b.active())
                continue;
            // Leakage power V^2 G, with V^2 = 2E/C.
            double lost = std::min(
                b.energy, b.leakG * 2.0 * b.energy / b.cap.capacitance * dt);
            b.energy -= lost;
            book.leaked += lost;
        }

        // An unpowered latch drains through its leakage; below its
        // threshold the switch falls back to its default.
        bool reverted = false;
        for (Bank &b : banks) {
            if (!b.switched || railOn || b.closed == b.defaultClosed())
                continue;
            const SwitchSpec &sw = b.sw;
            b.latchEnergy -= 2.0 * b.latchEnergy /
                             (sw.latchCapacitance * sw.latchLeakRes) * dt;
            if (b.latchEnergy <=
                energyAt(sw.latchCapacitance, sw.latchThreshold)) {
                b.closed = b.defaultClosed();
                b.latchEnergy = 0.0;
                reverted = true;
            }
        }
        now += dt;
        if (reverted) {
            share();
            return;
        }
        bool full_now = fullAt(c, e, top);
        if (full_now && !wasFull)
            ++completions;
        wasFull = full_now;
    }

  private:
    using SwitchSpec = power::SwitchSpec;

    /** Whether active capacitance @p c holding @p e sits at @p top. */
    static bool
    fullAt(double c, double e, double top)
    {
        return c > 0.0 && e >= energyAt(c, top - 1e-6);
    }

    struct Bank
    {
        power::CapacitorSpec cap;
        double leakG = 0.0;  ///< leakage conductance, S
        double energy = 0.0;
        bool switched = false;
        power::SwitchSpec sw{};
        bool closed = true;
        double latchEnergy = 0.0;

        bool
        defaultClosed() const
        {
            return sw.kind == power::SwitchKind::NormallyClosed;
        }
        bool active() const { return !switched || closed; }
    };

    /** A powered rail keeps every latch that holds a non-default state
     *  full. */
    void
    refreshLatches()
    {
        if (!railOn)
            return;
        for (Bank &b : banks)
            if (b.switched && b.closed != b.defaultClosed())
                b.latchEnergy =
                    energyAt(b.sw.latchCapacitance, b.sw.latchFullVoltage);
    }

    /** Connect the active banks: they end at one voltage with their
     *  total charge, and the difference in energy is dissipated. */
    void
    share()
    {
        double q = 0.0, c = 0.0, e = 0.0;
        for (const Bank &b : banks) {
            if (b.active()) {
                q += b.cap.capacitance *
                     voltageOf(b.cap.capacitance, b.energy);
                c += b.cap.capacitance;
                e += b.energy;
            }
        }
        double e1 = 0.0;
        for (Bank &b : banks) {
            if (b.active()) {
                b.energy = energyAt(b.cap.capacitance, q / c);
                e1 += b.energy;
            }
        }
        book.sharingLoss += e - e1;
        wasFull = full();
    }

    power::PowerSystem::Spec spec;
    const power::Harvester *harvester;
    std::vector<Bank> banks;
    double now = 0.0;
    bool railOn = false;
    double load = 0.0;
    double ceiling = std::numeric_limits<double>::infinity();
    bool wasFull = false;
    std::uint64_t completions = 0;
    Ledger book;
};

/**
 * Reference twin of a FederatedStorage cascade. Each node's charging
 * comparator is the one state besides energy: it trips when the node
 * reaches its top and resets when the node falls more than 0.1 mV
 * below it. Every step charges the first node whose comparator has not
 * tripped. A tripped node is held at its top while the input booster's
 * output there covers its draw and leakage, and otherwise drains like
 * any other.
 */
class ReferenceCascade
{
  public:
    ReferenceCascade(const power::FederatedStorage::Spec &spec,
                     const power::Harvester &harvester)
        : spec(spec), harvester(&harvester)
    {}

    void
    addNode(const power::CapacitorSpec &cap)
    {
        nodes.push_back(Node{cap});
    }

    void
    setNodeVoltage(int idx, double v)
    {
        Node &n = nodes[std::size_t(idx)];
        n.energy = energyAt(n.cap.capacitance, v);
        n.tripped = v >= top(std::size_t(idx)) - kBand;
    }

    void
    setNodeLoad(int idx, double watts)
    {
        nodes[std::size_t(idx)].load = watts;
    }

    void
    advanceTo(double t)
    {
        while (t - now > 1e-12)
            step(std::min(kStep, t - now));
        now = t;
    }

    double
    nodeVoltage(int idx) const
    {
        const Node &n = nodes[std::size_t(idx)];
        return voltageOf(n.cap.capacitance, n.energy);
    }

    /** Time until node @p idx reaches its top, within @p horizon;
     *  kNone if not. */
    double
    timeToNodeFull(int idx, double horizon) const
    {
        return stepUntil(*this, horizon, [idx](const ReferenceCascade &r) {
            return r.nodeVoltage(idx) >= r.top(std::size_t(idx)) - 1e-6;
        });
    }

    /** Time until any loaded node falls to its brown-out floor, within
     *  @p horizon; kNone if not. */
    double
    timeToAnyBrownout(double horizon) const
    {
        return stepUntil(*this, horizon, [](const ReferenceCascade &r) {
            for (std::size_t i = 0; i < r.nodes.size(); ++i) {
                const Node &n = r.nodes[i];
                if (n.load > 0.0 &&
                    r.nodeVoltage(int(i)) <=
                        power::brownoutVoltage(r.spec.output, n.load,
                                               n.cap.esr))
                    return true;
            }
            return false;
        });
    }

    void
    step(double dt)
    {
        const double p_h = harvester->power(now);
        const double v_h = harvester->voltage(now);
        std::size_t charging = 0;
        while (charging < nodes.size() && nodes[charging].tripped)
            ++charging;
        for (std::size_t i = 0; i < nodes.size(); ++i) {
            Node &n = nodes[i];
            double v = nodeVoltage(int(i));
            double g = leakConductance(n.cap);
            double draw =
                (n.load > 0.0 ? power::storageDrawPower(spec.output, n.load)
                              : 0.0) +
                spec.nodeQuiescentPower;
            double e_top = energyAt(n.cap.capacitance, top(i));
            if (n.tripped &&
                power::inputChargePower(spec.input, p_h, v_h, top(i)) >=
                    draw + g * top(i) * top(i))
                continue;  // held at its top
            double in = i == charging ? power::inputChargePower(
                                            spec.input, p_h, v_h, v)
                                      : 0.0;
            n.energy = feedStep(n.energy, in, draw, g * v * v, e_top, dt,
                                book);
            v = nodeVoltage(int(i));
            if (v >= top(i) - 1e-6)
                n.tripped = true;
            else if (v < top(i) - kBand)
                n.tripped = false;
        }
        now += dt;
    }

  private:
    /** The comparator's hysteresis below the top, V. */
    static constexpr double kBand = 1e-4;

    struct Node
    {
        power::CapacitorSpec cap;
        double energy = 0.0;
        double load = 0.0;
        bool tripped = false;  ///< charged to the top, not yet reset
    };

    double
    top(std::size_t i) const
    {
        return std::min(spec.maxStorageVoltage, nodes[i].cap.ratedVoltage);
    }

    power::FederatedStorage::Spec spec;
    const power::Harvester *harvester;
    std::vector<Node> nodes;
    double now = 0.0;
    Ledger book;
};

} // namespace capy::oracle

#endif // CAPY_TESTS_REFERENCE_BOARD_HH
