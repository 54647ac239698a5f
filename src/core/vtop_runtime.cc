#include "core/vtop_runtime.hh"

#include "sim/logging.hh"

namespace capy::core
{

VtopRuntime::VtopRuntime(rt::Kernel &kernel_ref,
                         dev::NvMemory *eeprom_dev)
    : kernel(kernel_ref), eeprom(eeprom_dev)
{}

void
VtopRuntime::annotate(const rt::Task *task, double v_top)
{
    capy_assert(task != nullptr, "annotate(nullptr)");
    capy_assert(v_top > 0.0, "bad threshold %g", v_top);
    thresholds[task] = v_top;
}

void
VtopRuntime::install()
{
    capy_assert(!installed, "runtime already installed");
    installed = true;
    controller = std::make_unique<VtopController>(
        kernel.device().powerSystem(), eeprom);
    kernel.setPreTaskGate(
        [this](const rt::Task &task) { return gate(task); });
}

bool
VtopRuntime::gate(const rt::Task &task)
{
    auto it = thresholds.find(&task);
    if (it == thresholds.end())
        return true;
    auto &ps = kernel.device().powerSystem();
    double target = it->second;
    if (controller->threshold() != target) {
        controller->setThreshold(target);
        ++rtStats.thresholdChanges;
    }
    // Execute when the capacitor holds the threshold's energy; pause
    // to charge otherwise. Unlike switched banks there is no small
    // default bank: the full capacitance charges every time.
    if (ps.storageVoltage() + 0.05 < target) {
        ++rtStats.rechargePauses;
        kernel.device().powerDown();
        return false;
    }
    return true;
}

} // namespace capy::core
