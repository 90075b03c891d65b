#include "nic/nic_config.hh"

#include <string>

#include "sim/logging.hh"

namespace tengig {

namespace {

/** Far past the paper's 8-core sweep; the coherence study names each
 *  core's cache with an 8-bit id. */
constexpr unsigned maxCores = 64;

/** The clock period is a whole number of 1 ps ticks: at most 10 GHz
 *  keeps its rounding under 0.5%, and at least 1 MHz keeps the
 *  MHz-to-ticks conversion in range. */
constexpr double minCpuMhz = 1.0;
constexpr double maxCpuMhz = 10000.0;

/** Far past the paper's 2-4 banks and the architecture ablation's 8;
 *  checked here because the scratchpad sizes its bank table before its
 *  own constructor can object. */
constexpr unsigned maxScratchpadBanks = 64;

} // namespace

void
NicConfig::validate() const
{
    fatal_if(cores < 1 || cores > maxCores, "cores must be in [1, ",
             maxCores, "], got ", cores);
    fatal_if(!(cpuMhz >= minCpuMhz && cpuMhz <= maxCpuMhz),
             "cpuMhz must be in [", minCpuMhz, ", ", maxCpuMhz,
             "], got ", cpuMhz);
    fatal_if(scratchpadBanks < 1 || scratchpadBanks > maxScratchpadBanks,
             "scratchpadBanks must be in [1, ", maxScratchpadBanks,
             "], got ", scratchpadBanks);
    fatal_if(sendRingFrames < 1, "sendRingFrames must be >= 1, got ",
             sendRingFrames);

    if (vfs.empty()) {
        fatal_if(!txTraffic.enabled(), "txTraffic has no flows: a NIC "
                 "without VFs posts from its transmit profile");
        try {
            txTraffic.validate();
        } catch (const FatalError &e) {
            fatalWithContext(e, "txTraffic");
        }
        if (rxTraffic.enabled()) {
            try {
                rxTraffic.validate();
            } catch (const FatalError &e) {
                fatalWithContext(e, "rxTraffic");
            }
        }
    } else {
        fatal_if(txTraffic.enabled() || rxTraffic.enabled(),
                 "vnic runs own the workload: per-VF profiles replace "
                 "cfg.txTraffic/cfg.rxTraffic, which must be empty");
        fatal_if(faults.enabled(),
                 "vnic runs use per-VF fault plans, not cfg.faults");
        fatal_if(firmware.tsoSegments != 1,
                 "vnic runs are incompatible with TSO");
        for (std::size_t i = 0; i < vfs.size(); ++i) {
            try {
                vfs[i].validate();
            } catch (const FatalError &e) {
                fatalWithContext(e, "vfs[" + std::to_string(i) + "]");
            }
        }
    }
    fatal_if(!(txPaceRate >= 0.0 && txPaceRate <= 1.0),
             "txPaceRate must be a fraction of line rate in [0, 1] "
             "(0 = unpaced), got ", txPaceRate);
    fatal_if(txPaceRate > 0.0 && !vfs.empty(),
             "txPaceRate must be 0 on vnic runs: they pace through "
             "per-VF admission buckets");
    if (firmware.tsoSegments != 1) {
        fatal_if(txTraffic.flows.size() != 1 ||
                     txTraffic.flows[0].size.kind != SizeModel::Kind::Fixed,
                 "TSO needs one payload size per group: txTraffic must "
                 "be one fixed-size flow");
        fatal_if(txPaceRate > 0.0, "TSO needs an unpaced source "
                 "(txPaceRate 0): a paced one could decline a later "
                 "frame of a group");
    }
    fatal_if(taskLevelFirmware && firmware.idealMode,
             "task-level firmware has no ideal mode");
}

} // namespace tengig
