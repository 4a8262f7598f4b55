#include "common/config.hpp"

#include <algorithm>
#include <cmath>

#include "common/log.hpp"

namespace dr
{

int
NocConfig::effectiveChannelBytes() const
{
    int base = sharedPhysical ? 2 * channelBytes : channelBytes;
    auto scaled = static_cast<int>(std::lround(base * bandwidthScale));
    if (scaled <= 0)
        fatal("channel width scaled to zero bytes");
    return scaled;
}

int
NocConfig::interposerSerializationCycles() const
{
    if (interposerChannelBytes <= 0)
        return 1;  // full-width interposer channels
    const int channel = effectiveChannelBytes();
    return (channel + interposerChannelBytes - 1) / interposerChannelBytes;
}

void
SystemConfig::validate() const
{
    const int tiles = nodeCount();
    const int used = gpu.numCores + cpu.numCores + mem.numNodes;
    if (used != tiles) {
        fatal("node mix (", gpu.numCores, " GPU + ", cpu.numCores,
              " CPU + ", mem.numNodes, " MEM = ", used,
              ") does not fill the ", noc.meshWidth, "x", noc.meshHeight,
              " chip (", tiles, " tiles)");
    }
    if (mem.lineBytes != gpu.l1LineBytes)
        fatal("LLC and GPU L1 line sizes must match");
    if (noc.vcsPerNet < 1 || noc.vcDepthFlits < 1)
        fatal("need at least one VC with at least one flit of buffering");
    if (noc.threads < 0)
        fatal("noc.threads must be >= 0 (0 = auto via DR_NOC_THREADS)");
    if (noc.memInjBufferFlits < flitsFor(MsgType::ReadReply,
                                         TrafficClass::Gpu)) {
        fatal("memory-node injection buffer smaller than one reply; "
              "replies could never inject");
    }
    if (noc.sharedPhysical && (noc.sharedReqVcs < 1 || noc.sharedReplyVcs < 1))
        fatal("shared network needs at least one VC per traffic type");
    if (noc.vnets) {
        // Per-VN VC counts must exactly cover the owning network's VCs;
        // anything else used to be silently clamped away by the old
        // classMask plumbing, which left a virtual network with no
        // buffering at all (and a guaranteed injection panic).
        if (noc.vnetRequestVcs < 1 || noc.vnetForwardVcs < 1 ||
            noc.vnetReplyVcs < 1 || noc.vnetDelegatedVcs < 1) {
            fatal("every virtual network needs at least one VC "
                  "(noc.vnet*Vcs)");
        }
        const int reqSide = noc.vnetRequestVcs + noc.vnetForwardVcs;
        const int repSide = noc.vnetReplyVcs + noc.vnetDelegatedVcs;
        const int reqVcs =
            noc.sharedPhysical ? noc.sharedReqVcs : noc.vcsPerNet;
        const int repVcs =
            noc.sharedPhysical ? noc.sharedReplyVcs : noc.vcsPerNet;
        if (reqSide != reqVcs) {
            fatal("virtual-network VC counts must sum to the request "
                  "network's VCs: vnetRequestVcs + vnetForwardVcs = ",
                  reqSide, " but the network has ", reqVcs);
        }
        if (repSide != repVcs) {
            fatal("virtual-network VC counts must sum to the reply "
                  "network's VCs: vnetReplyVcs + vnetDelegatedVcs = ",
                  repSide, " but the network has ", repVcs);
        }
    }
    // One 64-bit word holds a core's issuable-warp mask (gpu/sm_core).
    if (gpu.warpsPerCore < 1 || gpu.warpsPerCore > 64)
        fatal("gpu.warpsPerCore must be in [1, 64], got ",
              gpu.warpsPerCore);
    if (gpu.issueWidth < 1)
        fatal("gpu.issueWidth must be >= 1, got ", gpu.issueWidth);
    if (gpu.frqEntries < 1)
        fatal("FRQ needs at least one entry");
    if (rp.probeCount < 1)
        fatal("RP must probe at least one remote cache");
    if (noc.topology == TopologyKind::Mesh &&
        noc.meshWidth * noc.meshHeight != tiles) {
        fatal("mesh dimensions inconsistent");
    }
    if (noc.topology == TopologyKind::ChipletMesh) {
        if (noc.chipletsX < 1 || noc.chipletsY < 1 ||
            noc.chipletSubW < 1 || noc.chipletSubH < 1)
            fatal("every chiplet dimension must be at least 1");
        if (noc.chipletsX * noc.chipletsY < 2)
            fatal("a chiplet mesh needs at least 2 chiplets "
                  "(use topology=mesh otherwise)");
        // Never derive one set of dimensions from the other: an
        // inconsistent pair is a configuration bug, not a preference.
        if (noc.meshWidth != noc.chipletsX * noc.chipletSubW ||
            noc.meshHeight != noc.chipletsY * noc.chipletSubH) {
            fatal("chiplet grid (", noc.chipletsX, "x", noc.chipletSubW,
                  " by ", noc.chipletsY, "x", noc.chipletSubH,
                  ") does not compose to the configured ", noc.meshWidth,
                  "x", noc.meshHeight, " mesh");
        }
        const int maxLinks = std::min(noc.chipletSubW, noc.chipletSubH);
        if (noc.chipletLinksPerEdge < 0 ||
            noc.chipletLinksPerEdge > maxLinks) {
            fatal("noc.chipletLinksPerEdge must be in [0, ", maxLinks,
                  "], got ", noc.chipletLinksPerEdge);
        }
    }
    if (noc.interposerChannelBytes < 0)
        fatal("noc.interposerChannelBytes must be >= 0 (0 = full width)");
    if (noc.interposerLatency < 0)
        fatal("noc.interposerLatency must be >= 0");
    if (!mem.placement.empty()) {
        if (static_cast<int>(mem.placement.size()) != mem.numNodes) {
            fatal("mem.placement lists ", mem.placement.size(),
                  " tiles but the system has ", mem.numNodes,
                  " memory nodes");
        }
        std::vector<bool> seen(static_cast<std::size_t>(tiles), false);
        for (const int tile : mem.placement) {
            if (tile < 0 || tile >= tiles)
                fatal("mem.placement tile ", tile, " outside the chip (",
                      tiles, " tiles)");
            if (seen[static_cast<std::size_t>(tile)])
                fatal("mem.placement tile ", tile, " listed twice");
            seen[static_cast<std::size_t>(tile)] = true;
        }
    }
}

namespace
{

int
ceilDiv(int a, int b)
{
    return (a + b - 1) / b;
}

} // namespace

int
SystemConfig::flitsFor(MsgType type, TrafficClass cls) const
{
    const int channel = noc.effectiveChannelBytes();
    const int line =
        cls == TrafficClass::Cpu ? cpu.lineBytes : mem.lineBytes;
    // Write-through stores carry a coalesced 32 B payload; loads and
    // control messages are metadata-only (8 B <= one flit).
    constexpr int writePayloadBytes = 32;
    switch (type) {
      case MsgType::ReadReq:
      case MsgType::DelegatedReq:
      case MsgType::ProbeReq:
      case MsgType::ProbeNack:
      case MsgType::WriteAck:
        return 1;
      case MsgType::WriteReq:
        return 1 + ceilDiv(writePayloadBytes, channel);
      case MsgType::ReadReply:
        return 1 + ceilDiv(line, channel);
    }
    panic("unreachable message type");
}

SystemConfig
SystemConfig::makeSmall()
{
    SystemConfig cfg;
    cfg.noc.meshWidth = 4;
    cfg.noc.meshHeight = 4;
    cfg.gpu.numCores = 10;
    cfg.cpu.numCores = 4;
    cfg.mem.numNodes = 2;
    cfg.gpu.l1SizeKB = 4;
    cfg.gpu.warpsPerCore = 8;
    cfg.gpu.l1Mshrs = 8;
    cfg.mem.llcSliceKB = 32;
    cfg.mem.banksPerMc = 4;
    cfg.warmupCycles = 500;
    cfg.simCycles = 5000;
    return cfg;
}

SystemConfig
SystemConfig::makePaper()
{
    return SystemConfig{};  // defaults are Table I
}

} // namespace dr
