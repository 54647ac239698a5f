/**
 * @file
 * Board catalog: the capacitor-bank provisioning of §6.1 for each
 * application under each power-system discipline, built into ready
 * Device + ModeRegistry bundles. One central catalog keeps every
 * experiment drawing the same datasheet-derived constants.
 *
 * Provisioning (copied from the paper):
 *  - GRC Fixed: 400 uF ceramic + 330 uF tantalum + 67.5 mF EDLC
 *  - GRC Capybara small mode: 400 uF ceramic + 330 uF tantalum
 *  - GRC-Fast big bank: 45 mF EDLC; GRC-Compact big bank: 67.5 mF
 *  - TA Fixed: 300 uF ceramic + 1100 uF tantalum + 7.5 mF EDLC
 *  - TA small mode: 300 uF ceramic + 100 uF tantalum
 *  - TA big bank: 1000 uF tantalum + 7.5 mF EDLC
 *  - CSR Fixed: the GRC Fixed bank; CSR big bank: 45 mF
 */

#ifndef CAPY_APPS_BOARDS_HH
#define CAPY_APPS_BOARDS_HH

#include <memory>

#include "core/energy_mode.hh"
#include "core/runtime.hh"
#include "dev/device.hh"
#include "sim/simulator.hh"

namespace capy::apps
{

/** A fully constructed board: device + mode registry. */
struct Board
{
    std::unique_ptr<dev::Device> device;
    /** Borrowed from the device's power system. */
    power::PowerSystem *ps = nullptr;
    core::ModeRegistry registry;
    /** Low-energy mode (small banks only). */
    core::ModeId smallMode = core::kNoMode;
    /** High-energy mode (big switched bank active). */
    core::ModeId bigMode = core::kNoMode;
    /** Index of the big switched bank; -1 on Fixed/Pwr boards. */
    int bigBank = -1;
};

/** Which application's provisioning to build. */
enum class AppBoard
{
    TempAlarm,
    GestureFast,
    GestureCompact,
    CorrSense,
};

/**
 * Build the §6.1 board for @p app under @p policy.
 *
 * Harvesters follow the paper's rigs: TA boards harvest from two
 * solar panels under a 42%-PWM halogen; GRC/CSR boards use the
 * regulated <= 10 mW bench harvester. Continuous-policy boards use
 * the same storage but never brown out.
 *
 * @param switch_kind latch-switch default for the big bank.
 * @param precharge_penalty if >= 0, overrides the power system's
 *        pre-charge voltage penalty (§6.4 ablation).
 */
Board makeBoard(sim::Simulator &sim, AppBoard app, core::Policy policy,
                power::SwitchKind switch_kind =
                    power::SwitchKind::NormallyOpen,
                double precharge_penalty = -1.0);

/** Harvest power available to a TA board (panels x PWM), W. */
double taHarvestPower();

/** Harvest power of the GRC/CSR bench harvester, W. */
double grcHarvestPower();

} // namespace capy::apps

#endif // CAPY_APPS_BOARDS_HH
