/**
 * @file
 * The composed Capybara power system (Fig. 6a): harvester -> limiter
 * -> input booster (with cold-start bypass) -> reconfigurable array of
 * capacitor banks behind latch switches -> output booster -> load
 * rail.
 *
 * Time advances explicitly through advanceTo(); between calls the
 * system evolves in closed form phase-by-phase (cold-start, bypass,
 * boosted charge, limiter pinning), so the device layer can jump the
 * simulation clock straight to charge-complete and brown-out events
 * obtained from the predictive queries.
 */

#ifndef CAPY_POWER_POWER_SYSTEM_HH
#define CAPY_POWER_POWER_SYSTEM_HH

#include <array>
#include <cstddef>
#include <cstdint>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "power/bankswitch.hh"
#include "power/booster.hh"
#include "power/capacitor.hh"
#include "power/harvester.hh"
#include "power/solver.hh"
#include "sim/trace.hh"

namespace capy::power
{

/**
 * Reconfigurable energy-storage power system.
 *
 * Usage protocol: construct, add banks, then drive time forward with
 * advanceTo(). All control calls (switch commands, rail load changes)
 * and state queries apply at the current internal time — callers must
 * advanceTo(now) first.
 *
 * A constant-power run (a device workload or boot) is runLoad(watts,
 * t_end) followed by advanceTo(t_end): runLoad walks once, returning
 * the brown-out time or staging the end state, and the advance
 * commits the stage instead of walking again unless something
 * happened in between.
 *
 * advanceTo(), runLoad() and the predictive queries walk the node
 * with one phase walker over the same harvester segments, each
 * evaluated at its start, so advanceTo(time() + timeToVoltage(v))
 * lands on v, up to rounding, unless a latch reverts on the way.
 * The state is the banks plus the active node (the connected banks as
 * one capacitor) and the charge target, which compose() rebuilds
 * where the active set or the target changes.
 */
class PowerSystem
{
  public:
    /** Fixed design parameters of the power-distribution circuit. */
    struct Spec
    {
        InputBoosterSpec input{};
        OutputBoosterSpec output{};
        LimiterSpec limiter{};
        /** Design charge target for the storage node, V. */
        double maxStorageVoltage = 3.0;
        /** Always-on board overhead at the storage node, W. */
        double systemQuiescentPower = 2e-6;
        /**
         * Pre-charging tops out this far below the normal target
         * (§6.4 switch-circuit limitation).
         */
        double prechargePenaltyVoltage = 0.3;
    };

    /** Energy-flow accounting since construction. */
    struct EnergyStats
    {
        double harvestedIn = 0.0;   ///< J delivered into storage
        double drainedOut = 0.0;    ///< J drawn for the load + overhead
        double leaked = 0.0;        ///< J lost to storage leakage
        /** J dumped by injected supply collapses (fault harness). */
        double faultDrained = 0.0;
        /** J dissipated sharing charge when a reconfiguration connects
         *  banks at different voltages. */
        double sharingLoss = 0.0;
        std::uint64_t chargeCompletions = 0;  ///< times node hit full
    };

    PowerSystem(Spec spec, std::unique_ptr<Harvester> harvester);

    PowerSystem(const PowerSystem &) = delete;
    PowerSystem &operator=(const PowerSystem &) = delete;

    /// @name Construction-time configuration
    /// @{

    /** Add a hard-wired (always-connected) bank. @return bank index. */
    int addBank(const std::string &name, const CapacitorSpec &cap);

    /** Add a bank behind a latch switch. @return bank index. */
    int addSwitchedBank(const std::string &name, const CapacitorSpec &cap,
                        const SwitchSpec &sw);

    int numBanks() const { return static_cast<int>(banks.size()); }
    const CapacitorBank &bank(int idx) const;
    /** Preset bank @p idx to @p v volts (test and bench set-up); the
     *  energy this adds counts as the ledger's opening balance. */
    void setBankVoltageForTest(int idx, double v);
    /** Switch behind bank @p idx; nullptr for hard-wired banks. */
    const BankSwitch *bankSwitch(int idx) const;

    const Spec &systemSpec() const { return spec; }
    const Harvester &harvesterRef() const { return *harvester; }

    /// @}
    /// @name Time evolution
    /// @{

    /**
     * Advance internal state to absolute time @p t (>= time()).
     * Commits runLoad()'s stage instead of walking its segment when
     * @p t is the run's end and nothing happened since.
     */
    void advanceTo(sim::Time t);

    /**
     * Run the rail at @p watts from now until the absolute time
     * @p t_end: set the rail load and walk once toward t_end, with
     * the brown-out floor as the stop. The rail must be on.
     *
     * When the rail holds, the walk's state at the end of its first
     * harvester segment (active-node energy and EnergyStats) is
     * staged, and advanceTo(t_end) commits it in place of walking
     * that segment: with no harvester change before t_end, the whole
     * run. Any control call that changes something,
     * collapseToBrownout(), setBankVoltageForTest(), an advanceTo()
     * to another time or a second runLoad() drops the stage;
     * re-setting the same rail load does not.
     *
     * @return the time from now until the rail browns out, if it
     *         does by t_end (bit-identical to timeToBrownout()), else
     *         kNever.
     */
    sim::Time runLoad(double watts, sim::Time t_end);

    /** Current internal time. */
    sim::Time time() const { return lastTime; }

    /// @}
    /// @name Control (call advanceTo(now) first)
    /// @{

    /**
     * Drive the GPIO of bank @p idx's switch. Legal only while the
     * rail is on (the MCU must be powered to drive a latch).
     * Closing a charged bank into the active set redistributes charge.
     */
    void commandSwitch(int idx, bool closed);

    /** Set the load power drawn at the regulated rail, W. */
    void setRailLoad(double watts);

    /** Enable/disable the output booster (device boot / power-down). */
    void setRailEnabled(bool on);

    /**
     * Cap the charge target at @p v (pre-charge mode); use
     * clearChargeCeiling() to restore the design target. A node left
     * above a lowered target is not charged: it drains by its draw and
     * leakage down to the target, then pins there.
     */
    void setChargeCeiling(double v);
    void clearChargeCeiling();

    /**
     * Injected supply collapse: dump the active node's charge to just
     * below the brown-out floor, as if the storage were suddenly
     * shorted by a fault. The rail then browns out through the normal
     * machinery, and recharge starts from the floor rather than from
     * wherever the node happened to sit — matching a physical supply
     * collapse, not a mere control-path abort. The dumped energy is
     * accounted in EnergyStats::faultDrained.
     *
     * @return joules drained (0 when already at/below the floor).
     */
    double collapseToBrownout();

    /// @}
    /// @name Electrical state
    /// @{

    bool railEnabled() const { return railOn; }
    double railLoad() const { return loadPower; }
    bool bankActive(int idx) const;

    /** Voltage of the active storage node (0 if no bank active). */
    double storageVoltage() const;
    double activeCapacitance() const;
    double activeEsr() const;
    /** Stored energy across active banks, J. */
    double activeEnergy() const;
    /** Stored energy across all banks, J: harvestedIn - drainedOut -
     *  leaked - faultDrained - sharingLoss is its change. */
    double storedEnergy() const;

    /** What the ledger misses, J: storedEnergy() less the opening
     *  balance, minus harvestedIn - drainedOut - leaked - faultDrained
     *  - sharingLoss. Zero up to rounding. */
    double ledgerResidual() const;

    /** Effective charge target: min(design, active rating, ceiling). */
    double topVoltage() const { return top; }

    /** Brown-out voltage at the current rail load and active ESR. */
    double brownoutVoltageNow() const;

    /** Storage voltage needed to start the rail at @p rail_load. */
    double startupVoltage(double rail_load) const;

    /** Whether the storage node is charged to the effective target. */
    bool isFull() const;

    /// @}
    /// @name Predictive queries (relative times from now)
    /// @{

    /**
     * Time until the storage node first reaches @p target_v under
     * current conditions; kNever if unreachable.
     */
    sim::Time timeToVoltage(double target_v) const;

    /** Time until the node reaches the effective charge target; 0
     *  when isFull(). */
    sim::Time timeToFull() const;

    /** Time until the rail browns out at the current load. */
    sim::Time timeToBrownout() const;

    /**
     * Earliest absolute time an unpowered latch reverts; kNever when
     * powered or when all switches rest at their defaults.
     */
    sim::Time nextLatchExpiry() const;

    /// @}
    /// @name Accounting
    /// @{

    const EnergyStats &stats() const { return energyStats; }

    /** Record storage voltage into @p ts on every internal step. */
    void attachVoltageTrace(sim::TimeSeries *ts) { voltTrace = ts; }

    /** Board area of all switch modules, mm^2. */
    double totalSwitchArea() const;

    /** Volume of all capacitor banks, mm^3. */
    double totalCapacitorVolume() const;

    /// @}

  private:
    struct BankState
    {
        CapacitorBank bank;
        std::optional<BankSwitch> sw;
        /** The bank's leakage resistance, ohm (may be inf). */
        double leakRes;

        bool active() const { return !sw || sw->closed(); }
    };

    /** The active banks as one capacitor. */
    struct Node
    {
        double energy = 0.0;
        double capacitance = 0.0;
        double leakRes = 0.0;  ///< parallel leakage, ohm (may be inf)
        double esr = 0.0;
        bool valid = false;  ///< false when no bank is active

        double voltage() const;
        double energyAt(double v) const;
    };

    /** Rebuild the node, the charge target and fullEnergy from the
     *  banks, the design target and the ceiling. */
    void compose();

    /** Split the node's energy into the active banks (e_i = E·c_i/C)
     *  and re-sum them into the node. */
    void writeback();

    /** A predictive query's stop: where to end and the time walked. */
    struct Stop
    {
        double voltage = 0.0;
        sim::Time elapsed = 0.0;  ///< summed over walkSegment() calls
    };

    /**
     * The phase walker behind advanceTo(), runLoad() and
     * timeToVoltage(): evolve @p n in phaseStep() phases over
     * [t0, t0+span], the harvester held at its t0 conditions (callers
     * split spans at harvester changes). With @p stop, end where the
     * node reaches stop->voltage and add the time walked to
     * stop->elapsed; with @p acc, book the energy flows into it.
     * @return whether the node reached the stop.
     */
    bool walkSegment(Node &n, sim::Time t0, double span, Stop *stop,
                     EnergyStats *acc) const;

    /**
     * Length of the segment advanceTo(@p t) walks next from @p from:
     * up to t, cut at the next harvester change and, while the rail
     * is off, at the next latch expiry (computed from time()).
     */
    double segmentSpan(sim::Time from, sim::Time t) const;

    /** Decay inactive banks over @p dt via their own leakage. */
    void decayInactive(double dt);

    /** Update all latches to @p t; returns true if any reverted. */
    bool updateLatches(sim::Time t);

    void rebuildAfterReconfig();
    void recordTrace();

    Spec spec;
    std::unique_ptr<Harvester> harvester;
    std::vector<BankState> banks;
    /** rebuildAfterReconfig()'s active-bank list, kept so that a
     *  reconfiguration allocates nothing once it has grown. */
    std::vector<CapacitorBank *> activeBanks;
    sim::Time lastTime = 0.0;
    bool railOn = false;
    double loadPower = 0.0;
    double chargeCeiling;  ///< +inf when cleared
    bool wasFull = false;  ///< for charge-completion counting
    Node node;             ///< the active banks, from compose()
    double top = 0.0;      ///< effective charge target, from compose()
    /** Energy from which the node counts as full, from compose():
     *  `node.energy >= fullEnergy` is `node.voltage() >= top - kVTol`
     *  without the divide and the sqrt. */
    double fullEnergy = 0.0;
    /** fullEnergy of the last few exact (capacitance, top) pairs, so
     *  a reconfiguration back to a known node searches nothing. */
    struct FullMark
    {
        double capacitance = 0.0;  ///< never matches a valid node
        double top = 0.0;
        double energy = 0.0;
    };
    std::array<FullMark, 4> fullMarks{};
    std::size_t nextFullMark = 0;  ///< the mark a new pair replaces
    EnergyStats energyStats;
    /** Energy preset through setBankVoltageForTest(), J. */
    double openingEnergy = 0.0;
    sim::TimeSeries *voltTrace = nullptr;

    /** runLoad()'s walk from @p from toward @p to, over the first
     *  harvester segment: emplaced and booked into by runLoad(),
     *  committed from and reset by advanceTo(). */
    struct Staged
    {
        sim::Time from;
        sim::Time to;
        double span;        ///< the first segment's length
        double energy;      ///< active-node energy after the segment
        EnergyStats stats;  ///< energyStats after the segment
    };
    std::optional<Staged> stage;

    /** The walker's exp memo (pure memo state; a PowerSystem is
     *  owned by one simulation, so it needs no locking). */
    mutable ExpCache expMemo;
    /** decayInactive()'s exp memo: the banks' own time constants,
     *  kept apart so neither memo evicts the other's entries. */
    ExpCache decayMemo;
};

} // namespace capy::power

#endif // CAPY_POWER_POWER_SYSTEM_HH
