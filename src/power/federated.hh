/**
 * @file
 * Federated energy storage in the style of UFoP ["Tragedy of the
 * Coulombs", Hester et al., SenSys'15], the paper's closest prior
 * system (§7): instead of one reconfigurable reservoir, each hardware
 * consumer (the MCU, each peripheral) gets its own dedicated
 * capacitor, charged in a fixed-priority cascade by the harvester.
 *
 * Federation also avoids charging a worst-case bank before doing any
 * work, but it allocates energy to *hardware peripherals*, not to
 * *software tasks*: the allocation is fixed at design time, cannot
 * follow the application's phase changes, and energy stranded in one
 * peripheral's capacitor is unavailable to others. Capybara's §7
 * comparison is reproduced by bench_federated.
 */

#ifndef CAPY_POWER_FEDERATED_HH
#define CAPY_POWER_FEDERATED_HH

#include <memory>
#include <string>
#include <vector>

#include "power/booster.hh"
#include "power/capacitor.hh"
#include "power/harvester.hh"
#include "power/solver.hh"
#include "sim/event.hh"

namespace capy::power
{

/**
 * A cascade of independently buffered storage nodes sharing one
 * harvester. Node 0 (the MCU's) has charging priority; each further
 * node charges only while every earlier node is full, like UFoP's
 * hardware charging chain.
 *
 * One walker evolves the cascade for advanceTo() and for both
 * predictive queries, so a prediction is exactly what the advance that
 * follows it does, and an advance does not depend on how the caller
 * splits time. Within one harvester segment (harvester read at the
 * segment start) each phase charges the first node that is not full;
 * every other node only drains its load, its quiescent draw and its
 * leakage. Each node moves by phaseStep() (solver.hh), the phase step
 * PowerSystem's walker takes too. A phase ends when the charging node
 * reaches an input converter breakpoint or its top, when a draining
 * full node dips below its full threshold (which hands the cascade
 * back to it), or at a query's stop.
 *
 * Hold rule: a full node that is not charging is held at its top while
 * the input booster's output at the top covers its draw plus its
 * leakage (the comparator reconnects it whenever it dips). A held
 * node's upkeep is not deducted from the charging node's harvest.
 */
class FederatedStorage
{
  public:
    struct Spec
    {
        InputBoosterSpec input{};
        OutputBoosterSpec output{};
        double maxStorageVoltage = 3.0;
        /** Per-node always-on overhead at the storage node, W. */
        double nodeQuiescentPower = 1e-6;
    };

    FederatedStorage(Spec spec, std::unique_ptr<Harvester> harvester);

    FederatedStorage(const FederatedStorage &) = delete;
    FederatedStorage &operator=(const FederatedStorage &) = delete;

    /**
     * Add a storage node. Nodes charge in addition order (cascade
     * priority). @return node index.
     */
    int addNode(const std::string &name, const CapacitorSpec &cap);

    int numNodes() const { return static_cast<int>(nodes.size()); }
    const CapacitorBank &node(int idx) const;

    /** Preset node @p idx to @p v volts (test and bench set-up). */
    void setNodeVoltageForTest(int idx, double v);

    /** Advance all nodes to absolute time @p t. */
    void advanceTo(sim::Time t);
    sim::Time time() const { return lastTime; }

    /** Set the rail load drawn from node @p idx, W (0 = idle). */
    void setNodeLoad(int idx, double watts);

    /** Voltage of node @p idx. */
    double nodeVoltage(int idx) const;

    /** Whether node @p idx is charged to the target. */
    bool nodeFull(int idx) const;

    /** Whether every node is full. */
    bool allFull() const;

    /**
     * Time until node @p idx reaches its top under current loads,
     * walking the cascade as advanceTo() would (earlier nodes charge
     * first); kNever if unreachable.
     */
    sim::Time timeToNodeFull(int idx) const;

    /**
     * Time until any loaded node that is not held at its top reaches
     * its brown-out floor, walking the cascade as advanceTo() would;
     * 0 when one is already at or below it, kNever when no load is
     * active or no crossing occurs.
     */
    sim::Time timeToAnyBrownout() const;

    /** Brown-out floor of node @p idx at its current load. */
    double nodeBrownoutVoltage(int idx) const;

    /** Total energy currently stored across all nodes, J. */
    double totalStoredEnergy() const;

  private:
    struct NodeState
    {
        CapacitorBank bank;
        double load = 0.0;  ///< rail W drawn from this node
    };

    /** A predictive query's stop and the time walked to reach it. */
    struct Stop
    {
        int fullNode = -1;      ///< stop when this node reaches its top
        bool brownout = false;  ///< stop at a loaded node's floor
        sim::Time elapsed = 0.0;
    };

    /** How one node moves through the current phase: the shared
     *  phaseStep() with the cascade's own levels below it. */
    struct Motion
    {
        PhaseStep step;
        bool stops = false;  ///< reaching step.level is the query's stop
    };

    /** Charge target of node @p i, V. */
    double topVoltage(std::size_t i) const;

    /** Whether node @p i counts as full at energy @p e. */
    bool fullAt(std::size_t i, double e) const;

    /** Motion of node @p i at energy @p e; @p charging when it is the
     *  cascade's charging node, which alone the input booster feeds. */
    Motion motion(std::size_t i, double e, bool charging, double p_h,
                  double v_h, const Stop *stop) const;

    /**
     * The walker behind advanceTo() and both queries: evolve the node
     * energies @p e over [t0, t0+span] with the harvester held at its
     * t0 conditions. With @p stop, end where it is reached, adding
     * the time walked to stop->elapsed. @return whether it stopped.
     */
    bool walkSegment(double *e, sim::Time t0, double span,
                     Stop *stop) const;

    /** Walk scratch copies of the nodes through harvester segments
     *  from now until @p stop; its time, or kNever. */
    sim::Time walkToStop(Stop &stop) const;

    /** End of the harvester segment starting at @p t; always after
     *  @p t, so every walk makes progress. */
    sim::Time segmentEnd(sim::Time t) const;

    Spec spec;
    std::unique_ptr<Harvester> harvester;
    std::vector<NodeState> nodes;
    sim::Time lastTime = 0.0;

    /** Node energies the walker works on, sized in addNode so no walk
     *  allocates. Pure scratch: every use overwrites it first. */
    mutable std::vector<double> scratch;
};

} // namespace capy::power

#endif // CAPY_POWER_FEDERATED_HH
