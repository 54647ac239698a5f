/**
 * @file
 * Input and output boost-converter models plus the input voltage
 * limiter (§5.1 of the paper).
 *
 * The input booster charges the storage node from weak or low-voltage
 * harvesters. Below its cold-start threshold it can only trickle
 * charge — unless the bypass optimization conducts the harvester
 * directly into the capacitors through a keeper diode, which is what
 * gives the paper's >=10x cold-start speedup.
 *
 * The output booster generates a stable rail from a sagging capacitor
 * voltage, extracting energy down to a brown-out floor. Equivalent
 * series resistance (ESR) raises that floor: drawing power P from a
 * capacitor at voltage V pulls the booster input down to V - I*ESR
 * with I = P/V, so high-ESR supercapacitors strand more energy.
 */

#ifndef CAPY_POWER_BOOSTER_HH
#define CAPY_POWER_BOOSTER_HH

#include <array>

namespace capy::power
{

/** Input boost converter between harvester and storage node. */
struct InputBoosterSpec
{
    /** Conversion efficiency once running. */
    double efficiency = 0.80;
    /** Storage-node voltage above which the converter operates. */
    double coldStartVoltage = 1.0;
    /**
     * Fraction of harvester power that reaches storage during
     * cold start without the bypass (the slow trickle phase).
     */
    double coldStartFraction = 0.02;
    /** Whether the bypass diode path is populated. */
    bool bypassEnabled = true;
    /** Forward drop of the bypass keeper diode. */
    double bypassDiodeDrop = 0.3;
    /** Transfer efficiency of the direct bypass path. */
    double bypassEfficiency = 0.90;
    /** Converter quiescent draw while operating, W. */
    double quiescentPower = 10e-6;
};

/**
 * Power delivered into the storage node.
 *
 * @param spec converter configuration.
 * @param p_harvest power available from the harvester, W.
 * @param v_harvest harvester output voltage (post-limiter), V.
 * @param v_storage current storage-node voltage, V.
 */
double inputChargePower(const InputBoosterSpec &spec, double p_harvest,
                        double v_harvest, double v_storage);

/**
 * Storage voltages at which inputChargePower() changes regime under
 * harvester voltage @p v_harvest: the cold-start threshold and the
 * bypass diode cutoff (-1 when the bypass is not populated).
 */
std::array<double, 2> inputChargeBreakpoints(const InputBoosterSpec &spec,
                                             double v_harvest);

/** Output boost converter between storage node and the load rail. */
struct OutputBoosterSpec
{
    /** Conversion efficiency. */
    double efficiency = 0.85;
    /** Regulated output rail, V. */
    double railVoltage = 2.4;
    /** Minimum input voltage to start the converter. */
    double minInputStart = 1.6;
    /** Minimum input voltage to keep running (brown-out floor). */
    double minInputRun = 1.1;
    /** Converter quiescent draw while enabled, W. */
    double quiescentPower = 15e-6;
};

/**
 * Power drawn from the storage node to serve @p rail_load watts at the
 * rail (conversion loss plus quiescent draw).
 */
double storageDrawPower(const OutputBoosterSpec &spec, double rail_load);

/**
 * Storage voltage below which the converter browns out while serving
 * @p rail_load watts through series resistance @p esr. Closed form of
 * V - (P_in/V) * esr = minInputRun.
 */
double brownoutVoltage(const OutputBoosterSpec &spec, double rail_load,
                       double esr);

/**
 * Storage voltage required to start the converter under @p rail_load
 * watts through @p esr (same droop equation against minInputStart).
 */
double startVoltage(const OutputBoosterSpec &spec, double rail_load,
                    double esr);

/**
 * Input voltage limiter between harvester and booster: clamps the
 * harvester voltage seen downstream so series-stacked panels cannot
 * exceed component ratings.
 */
struct LimiterSpec
{
    /** Maximum voltage passed downstream. */
    double clampVoltage = 5.0;
};

/** Harvester voltage after the limiter. */
double limitedVoltage(const LimiterSpec &spec, double v_harvest);

} // namespace capy::power

#endif // CAPY_POWER_BOOSTER_HH
