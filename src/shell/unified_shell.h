/**
 * @file
 * The Harmonia shell: a composition of RBBs, interface wrappers, the
 * reg interconnect and the unified control kernel on one FPGA device.
 * Build it unified (every capability of the board) or tailored to a
 * role's requirements; either way the role and host software see the
 * same abstraction.
 */

#ifndef HARMONIA_SHELL_UNIFIED_SHELL_H_
#define HARMONIA_SHELL_UNIFIED_SHELL_H_

#include <memory>
#include <string>
#include <vector>

#include "adapter/device_adapter.h"  // harmonia-lint: allow(LAYER-002) compileJob() emits CompileJobs
#include "adapter/toolchain.h"  // harmonia-lint: allow(LAYER-002) compileJob() emits CompileJobs
#include "cmd/control_kernel.h"
#include "device/database.h"
#include "shell/health.h"
#include "shell/host_rbb.h"
#include "shell/memory_rbb.h"
#include "shell/network_rbb.h"
#include "shell/tailoring.h"
#include "sim/engine.h"
#include "telemetry/profiler.h"
#include "telemetry/telemetry_target.h"
#include "wrapper/reg_wrapper.h"

namespace harmonia {

/**
 * A shell instance on one device. Owns its RBBs, the control kernel
 * and the control plane; clock domains are created in the supplied
 * engine. Non-copyable; typically held by unique_ptr in testbenches.
 */
class Shell {
  public:
    /**
     * Build a shell with an explicit configuration. Pin and clock
     * feasibility is validated through the device adapter.
     */
    Shell(Engine &engine, const FpgaDevice &device, ShellConfig config,
          std::string name = "shell");

    Shell(const Shell &) = delete;
    Shell &operator=(const Shell &) = delete;

    /** The unified (one-size-fits-all) shell for a board. */
    static std::unique_ptr<Shell>
    makeUnified(Engine &engine, const FpgaDevice &device);

    /** A role-specific shell via hierarchical tailoring. */
    static std::unique_ptr<Shell>
    makeTailored(Engine &engine, const FpgaDevice &device,
                 const RoleRequirements &role);

    const FpgaDevice &device() const { return device_; }
    const ShellConfig &config() const { return config_; }
    const std::string &name() const { return name_; }

    std::size_t networkCount() const { return networks_.size(); }
    NetworkRbb &network(std::size_t i = 0);
    std::size_t memoryCount() const { return memories_.size(); }
    MemoryRbb &memory(std::size_t i = 0);
    bool hasHost() const { return host_ != nullptr; }
    HostRbb &host();

    UnifiedControlKernel &kernel() { return kernel_; }
    RegInterconnect &regs() { return regs_; }
    IrqHub &irqs() { return irqs_; }
    HealthMonitor &health() { return health_; }
    DeviceAdapter &deviceAdapter() { return adapter_; }

    /**
     * Cycle-attribution profiler over the causal trace. Also served
     * over the command plane as ProfileSnapshot / ProfileReset at
     * (kRbbTelemetry, 0).
     */
    Profiler &profiler() { return profiler_; }

    /**
     * The command-plane telemetry endpoint at (kRbbTelemetry, 0).
     * Hosts attach the obs plane here (attachSloEngine /
     * attachRecorder) to serve SloStatus / AlertSnapshot /
     * FlightDump over the wire.
     */
    TelemetryTarget &telemetryTarget() { return telemetryTarget_; }

    /**
     * Publish the whole shell — every RBB with its wrappers, the
     * control kernel and the health monitor — into @p reg under this
     * shell's name. Hosts then read the same registry in-process or
     * through an ObsSubscribe / ObsDelta subscription at
     * (kRbbTelemetry, 0), e.g. with an ObsHub.
     */
    void registerTelemetry(MetricsRegistry &reg =
                               MetricsRegistry::instance());

    Clock *userClock() { return userClk_; }
    Clock *kernelClock() { return kernelClk_; }

    /** All RBBs, for uniform iteration. */
    std::vector<Rbb *> rbbs();
    std::vector<const Rbb *> rbbs() const;

    /** Provider-owned logic: RBBs + wrappers + control kernel. */
    ResourceVector shellResources() const;

    /** Just the interface wrappers (Fig 16). */
    ResourceVector wrapperResources() const;

    /** Just the unified control kernel (Fig 16). */
    ResourceVector kernelResources() const
    {
        return kernel_.resources();
    }

    /** Full configuration surface of the included instances. */
    std::vector<ConfigItem> allConfigItems() const;

    /** Property-level tailored surface: role-oriented items only. */
    std::vector<ConfigItem> roleConfigItems() const;

    /** Host-software register ops to initialize every module. */
    std::size_t registerInitOps() const;

    /** Commands replacing that initialization. */
    std::size_t commandInitOps() const;

    /** Register reads to collect all monitoring statistics. */
    std::size_t monitoringRegOps() const;

    /** Commands replacing that collection. */
    std::size_t monitoringCommandOps() const;

    /** Shell development workload (LoC-equivalents) over all RBBs. */
    DevWorkload devWorkload() const;

    /** Compile job for this shell plus a role. The job carries this
     *  shell's configuration so Toolchain::compile runs the platform
     *  DRC before the flow starts. */
    CompileJob compileJob(const std::string &project,
                          const ResourceVector &role_logic) const;

    /**
     * Strict DRC mode: when on, every Shell constructor runs
     * drc::check over the requested configuration and fatal()s if the
     * report is not clean. Off by default so experiments can build
     * deliberately odd shells; CI turns it on to assert that shipped
     * configurations stay lint-free.
     */
    static void setStrictDrc(bool on);
    static bool strictDrc();

  private:
    Engine &engine_;
    const FpgaDevice &device_;
    ShellConfig config_;
    std::string name_;
    DeviceAdapter adapter_;

    Clock *userClk_ = nullptr;
    Clock *kernelClk_ = nullptr;

    std::vector<std::unique_ptr<NetworkRbb>> networks_;
    std::vector<std::unique_ptr<MemoryRbb>> memories_;
    std::unique_ptr<HostRbb> host_;
    UnifiedControlKernel kernel_;
    RegInterconnect regs_;
    IrqHub irqs_;
    HealthMonitor health_;
    TelemetryTarget telemetryTarget_;
    Profiler profiler_;
    ScopedMetrics traceTelemetry_;
};

} // namespace harmonia

#endif // HARMONIA_SHELL_UNIFIED_SHELL_H_
