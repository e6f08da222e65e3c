/**
 * @file
 * The Reusable Building Block abstraction (§3.3.1, Figure 6). Each RBB
 * pairs a vendor-specific instance (an IpBlock) with reusable logic:
 * Ex-functions for performance/feature enhancement, plus control and
 * monitoring logic. RBBs are also command targets: the unified control
 * kernel routes commands to them by (RBB ID, Instance ID).
 */

#ifndef HARMONIA_SHELL_RBB_H_
#define HARMONIA_SHELL_RBB_H_

#include <memory>
#include <string>
#include <vector>

#include "cmd/command.h"
#include "common/stats.h"
#include "device/resource.h"
#include "ip/ip_block.h"
#include "sim/component.h"
#include "telemetry/metrics_registry.h"

namespace harmonia {

/** The RBB families Harmonia ships (§3.3.1). */
enum class RbbKind { Network, Memory, Host };

const char *toString(RbbKind kind);

/** RBB ID used in command routing for a kind. */
std::uint8_t rbbIdFor(RbbKind kind);

/**
 * Base RBB: owns the reusable control registers and monitoring stats,
 * executes the common command set, and accounts resources and
 * development workload for the reuse experiments.
 */
class Rbb : public Component, public CommandTarget {
  public:
    Rbb(std::string name, RbbKind kind, std::uint8_t instance_id);

    RbbKind kind() const { return kind_; }
    std::uint8_t rbbId() const { return rbbIdFor(kind_); }
    std::uint8_t instanceId() const { return instanceId_; }

    /** The vendor-specific instance inside this RBB. */
    virtual IpBlock &instance() = 0;
    const IpBlock &instance() const
    {
        return const_cast<Rbb *>(this)->instance();
    }

    /** Reusable control registers (RBB-level, vendor-independent). */
    RegisterFile &ctrlRegs() { return ctrlRegs_; }
    const RegisterFile &ctrlRegs() const { return ctrlRegs_; }

    /** Monitoring statistics maintained by the reusable logic. */
    StatGroup &monitor() { return monitor_; }
    const StatGroup &monitor() const { return monitor_; }

    /**
     * Publish this RBB's monitoring surface into the telemetry plane
     * under @p prefix (typically "<shell>/<rbb>"). The base exports
     * the monitor StatGroup; subclasses add wrapper latency, rates
     * and queue gauges. Re-registration releases the previous ids;
     * destruction unregisters everything.
     */
    virtual void registerTelemetry(MetricsRegistry &reg,
                                   const std::string &prefix);

    /** Ex-function soft logic footprint. */
    const ResourceVector &exFunctionResources() const { return exRes_; }

    /** Control + monitoring soft logic footprint. */
    const ResourceVector &controlMonitorResources() const
    {
        return cmRes_;
    }

    /** Instance + all reusable logic (wrapper accounted separately). */
    ResourceVector totalResources() const;

    /** This RBB's interface-wrapper footprint (Fig 16). */
    virtual ResourceVector wrapperResources() const = 0;

    /**
     * Development workload: the instance integration LoC from the
     * vendor IP plus this RBB's reusable/control/monitor weights
     * (calibration documented in workload_model.cc).
     */
    DevWorkload devWorkload() const;

    /** Full configuration surface: instance + RBB-level items. */
    std::vector<ConfigItem> allConfigItems() const;

    /** Only what a role must set after property-level tailoring. */
    std::vector<ConfigItem> roleConfigItems() const;

    /**
     * Register operations host software performs to initialize this
     * module through the raw register interface (includes per-queue /
     * per-channel / per-table-entry programming).
     */
    virtual std::size_t registerInitOpCount() const;

    /** Commands that replace the same initialization (§3.3.3). */
    virtual std::size_t commandInitCount() const { return 1; }

    /** Register reads needed to collect every monitoring statistic. */
    virtual std::size_t monitoringRegCount() const;

    /** Commands that collect the same statistics. */
    virtual std::size_t monitoringCommandCount() const { return 1; }

    // CommandTarget: the common command set. data[0] of status
    // read/write selects bank<<16 | offset (bank 0 = RBB ctrl regs,
    // bank 1 = instance regs).
    CommandResult
    executeCommand(std::uint16_t code,
                   const std::vector<std::uint32_t> &data) override;

  protected:
    /** Extension hooks for RBB-specific commands. */
    virtual CommandResult
    tableWrite(const std::vector<std::uint32_t> &data);
    virtual CommandResult
    tableRead(const std::vector<std::uint32_t> &data);
    virtual CommandResult
    queueConfig(const std::vector<std::uint32_t> &data);

    /** Called after ModuleInit / ModuleReset commands. */
    virtual void onInit() {}
    virtual void onReset() {}

    void setExResources(ResourceVector r) { exRes_ = r; }
    void setCmResources(ResourceVector r) { cmRes_ = r; }
    void setReusableWeights(std::uint32_t reusable, std::uint32_t ctrl,
                            std::uint32_t monitor);

    /** Registration bundle subclasses extend in registerTelemetry. */
    ScopedMetrics &telemetryHandle() { return telemetry_; }

  private:
    CommandResult statusRead(const std::vector<std::uint32_t> &data);
    CommandResult statusWrite(const std::vector<std::uint32_t> &data);
    CommandResult statsSnapshot(const std::vector<std::uint32_t> &data);

    RbbKind kind_;
    std::uint8_t instanceId_;
    RegisterFile ctrlRegs_{*this};
    StatGroup monitor_;
    ResourceVector exRes_;
    ResourceVector cmRes_;
    std::uint32_t reusableLoc_ = 0;
    std::uint32_t controlLoc_ = 0;
    std::uint32_t monitorLoc_ = 0;
    ScopedMetrics telemetry_;
};

} // namespace harmonia

#endif // HARMONIA_SHELL_RBB_H_
