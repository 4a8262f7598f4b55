#include <gtest/gtest.h>

#include <sstream>
#include <string>

#include "core/experiment.hpp"
#include "core/hetero_system.hpp"

namespace dr
{
namespace
{

/**
 * Whole-system determinism matrix (DESIGN.md §13). The endpoint tick
 * phase is partitioned across the same spatial domains as the NoC and
 * the idle-skip fast path elides provably dead cycles, so every
 * combination of worker threads and idle skipping must produce a
 * bit-identical run: same cycle counts, same counters, same
 * floating-point metrics. These tests pin that equivalence across
 * thread counts {1, 2, 4} x idleSkip {on, off} x vnets {on, off} x
 * two topologies.
 */

/** Serialize every RunResults field at full precision. */
std::string
fingerprint(const RunResults &r)
{
    std::ostringstream os;
    os.precision(17);
    os << r.cycles << '|' << r.gpuIpc << '|' << r.cpuIpc << '|'
       << r.cpuLatency << '|' << r.gpuDataRate << '|' << r.memBlockingRate
       << '|' << r.l1Misses << '|' << r.missesWithRemoteCopy << '|'
       << r.delegations << '|' << r.frqRemoteHits << '|'
       << r.frqDelayedHits << '|' << r.frqRemoteMisses << '|'
       << r.probesSent << '|' << r.probeHits << '|' << r.requestsInjected
       << '|' << r.switchTraversals << '|' << r.bufferWrites << '|'
       << r.linkTraversals << '|' << r.gpuL1MissRate << '|'
       << r.llcHitRate;
    return os.str();
}

SystemConfig
matrixCfg(TopologyKind topo, bool vnets)
{
    SystemConfig cfg = SystemConfig::makePaper();
    cfg.mechanism = Mechanism::DelegatedReplies;
    cfg.warmupCycles = 1500;
    cfg.simCycles = 3500;
    cfg.noc.topology = topo;
    cfg.noc.vnets = vnets;
    if (vnets && topo == TopologyKind::Dragonfly) {
        // Dragonfly phase escalation needs >= 2 VCs per virtual network.
        cfg.noc.vcsPerNet = 4;
        cfg.noc.vnetRequestVcs = 2;
        cfg.noc.vnetForwardVcs = 2;
        cfg.noc.vnetReplyVcs = 2;
        cfg.noc.vnetDelegatedVcs = 2;
    }
    if (topo == TopologyKind::ChipletMesh) {
        // 2x2 chiplets of 4x4 routers composing the 8x8 paper chip.
        // Restricted gateways force hierarchical routing, half-width
        // interposer channels engage the 2-cycle serialization throttle,
        // and the 3-phase VC escalation needs >= 3 VCs per VN.
        cfg.noc.chipletsX = 2;
        cfg.noc.chipletsY = 2;
        cfg.noc.chipletSubW = 4;
        cfg.noc.chipletSubH = 4;
        cfg.noc.chipletLinksPerEdge = 2;
        cfg.noc.interposerChannelBytes = 8;
        if (vnets) {
            cfg.noc.vcsPerNet = 6;
            cfg.noc.vnetRequestVcs = 3;
            cfg.noc.vnetForwardVcs = 3;
            cfg.noc.vnetReplyVcs = 3;
            cfg.noc.vnetDelegatedVcs = 3;
        } else {
            cfg.noc.vcsPerNet = 3;
        }
    }
    return cfg;
}

std::string
runFingerprint(SystemConfig cfg, int threads, bool idleSkip)
{
    cfg.noc.threads = threads;
    cfg.idleSkip = idleSkip;
    return fingerprint(runWorkload(cfg, "HS", "blackscholes"));
}

struct MatrixCase
{
    TopologyKind topo;
    bool vnets;
};

class WholeSystemDeterminism : public ::testing::TestWithParam<MatrixCase>
{
};

TEST_P(WholeSystemDeterminism, BitIdenticalAcrossThreadsAndIdleSkip)
{
    const SystemConfig cfg = matrixCfg(GetParam().topo, GetParam().vnets);
    // Golden: serial endpoint phase, every cycle ticked.
    const std::string golden = runFingerprint(cfg, 1, false);
    EXPECT_EQ(golden, runFingerprint(cfg, 1, true)) << "skip-on diverged";
    EXPECT_EQ(golden, runFingerprint(cfg, 2, true))
        << "2 threads + skip diverged";
    EXPECT_EQ(golden, runFingerprint(cfg, 4, false))
        << "4 threads diverged";
    EXPECT_EQ(golden, runFingerprint(cfg, 4, true))
        << "4 threads + skip diverged";
}

std::string
caseName(const ::testing::TestParamInfo<MatrixCase> &info)
{
    std::string name;
    for (const char c : std::string(topologyName(info.param.topo))) {
        if (c != '-')  // gtest parameter names must be alphanumeric
            name += c;
    }
    return name + (info.param.vnets ? "Vnets" : "");
}

INSTANTIATE_TEST_SUITE_P(
    TopologyMatrix, WholeSystemDeterminism,
    ::testing::Values(MatrixCase{TopologyKind::Mesh, false},
                      MatrixCase{TopologyKind::Mesh, true},
                      MatrixCase{TopologyKind::Dragonfly, false},
                      MatrixCase{TopologyKind::Dragonfly, true},
                      MatrixCase{TopologyKind::ChipletMesh, false},
                      MatrixCase{TopologyKind::ChipletMesh, true}),
    caseName);

/**
 * Scale acceptance (ISSUE 9): a 256-node chip of 4x4 chiplets, each a
 * 4x4 sub-mesh, with restricted gateways, half-width interposer
 * channels, and virtual networks on — bit-identical across worker
 * threads {1, 4} x idleSkip {on, off}. The chiplet-aligned domain
 * partition snaps to whole chiplet rows, so the 4-thread run really
 * exercises 4 domains (one per chiplet row).
 */
TEST(WholeSystemDeterminism, ChipletScale256Nodes)
{
    SystemConfig cfg = matrixCfg(TopologyKind::ChipletMesh, true);
    cfg.noc.chipletsX = 4;
    cfg.noc.chipletsY = 4;
    cfg.noc.meshWidth = 16;
    cfg.noc.meshHeight = 16;
    cfg.gpu.numCores = 176;
    cfg.cpu.numCores = 48;
    cfg.mem.numNodes = 32;
    cfg.warmupCycles = 800;
    cfg.simCycles = 1600;

    const std::string golden = runFingerprint(cfg, 1, false);
    EXPECT_EQ(golden, runFingerprint(cfg, 1, true)) << "skip-on diverged";
    EXPECT_EQ(golden, runFingerprint(cfg, 4, false))
        << "4 threads diverged";
    EXPECT_EQ(golden, runFingerprint(cfg, 4, true))
        << "4 threads + skip diverged";
}

/**
 * Shared-L1 determinism matrix (DESIGN.md §14). The DC-L1 and DynEB
 * organizations stage their cross-core effects per calling core and
 * drain them in the serial merge, which is what lets them report
 * concurrentSafe() and run the endpoint phase across multiple domains.
 * Every threads {1, 2, 4} x idleSkip {on, off} combination must stay
 * bit-identical to the serial densely-ticked golden run.
 */
class L1OrgDeterminism : public ::testing::TestWithParam<L1Organization>
{
};

TEST_P(L1OrgDeterminism, BitIdenticalAcrossThreadsAndIdleSkip)
{
    SystemConfig cfg = matrixCfg(TopologyKind::Mesh, false);
    cfg.gpu.l1Org = GetParam();
    // Golden: serial endpoint phase, every cycle ticked.
    const std::string golden = runFingerprint(cfg, 1, false);
    EXPECT_EQ(golden, runFingerprint(cfg, 1, true)) << "skip-on diverged";
    EXPECT_EQ(golden, runFingerprint(cfg, 2, false))
        << "2 threads diverged";
    EXPECT_EQ(golden, runFingerprint(cfg, 2, true))
        << "2 threads + skip diverged";
    EXPECT_EQ(golden, runFingerprint(cfg, 4, false))
        << "4 threads diverged";
    EXPECT_EQ(golden, runFingerprint(cfg, 4, true))
        << "4 threads + skip diverged";
}

std::string
l1OrgCaseName(const ::testing::TestParamInfo<L1Organization> &info)
{
    return info.param == L1Organization::DcL1 ? "shared" : "dyneb";
}

INSTANTIATE_TEST_SUITE_P(SharedOrgMatrix, L1OrgDeterminism,
                         ::testing::Values(L1Organization::DcL1,
                                           L1Organization::DynEB),
                         l1OrgCaseName);

/**
 * Skip-heavy configuration: a 2x2 chip whose two single-warp GPU cores
 * are almost always in WaitMem and whose lone CPU core runs vips (80%
 * dependent misses, so it is blocked most cycles). Whenever the tiny
 * network drains while requests sit in the LLC/DRAM, every endpoint
 * watermark lies in the future and the idle-skip fast path engages
 * (asserted below).
 */
SystemConfig
skipHeavyCfg()
{
    SystemConfig cfg = SystemConfig::makeSmall();
    cfg.mechanism = Mechanism::DelegatedReplies;
    cfg.noc.meshWidth = 2;
    cfg.noc.meshHeight = 2;
    cfg.gpu.numCores = 2;
    cfg.cpu.numCores = 1;
    cfg.mem.numNodes = 1;
    cfg.gpu.warpsPerCore = 1;
    cfg.debug.watchdogCycles = 1u << 20;  // armed, far from firing
    return cfg;
}

/**
 * Satellite regression (PR 7): watchdog observations are scheduled by
 * next-due cycle, so an idle skip must land on (not jump over) every
 * due observation point. The skip-on run must observe exactly as often
 * as the skip-off run while actually skipping cycles. Checked-build
 * invariant sweeps use the same next-due clamp (debug.sweepCycles);
 * the DR_CHECKED CI leg runs this test with sweeps armed.
 */
TEST(IdleSkip, WatchdogObservationScheduleSurvivesSkips)
{
    SystemConfig cfg = skipHeavyCfg();
    const Cycle span = 20000;

    cfg.idleSkip = false;
    HeteroSystem dense(cfg, "HS", "vips");
    dense.advance(span);

    cfg.idleSkip = true;
    HeteroSystem skipping(cfg, "HS", "vips");
    skipping.advance(span);

    ASSERT_NE(dense.watchdog(), nullptr);
    ASSERT_NE(skipping.watchdog(), nullptr);
    EXPECT_EQ(dense.idleSkippedCycles(), 0u);
    EXPECT_GT(skipping.idleSkippedCycles(), 0u)
        << "config no longer produces idle stretches; retune skipHeavyCfg";
    EXPECT_EQ(dense.watchdog()->observations(),
              skipping.watchdog()->observations());
    EXPECT_EQ(dense.watchdog()->lastProgressCycle(),
              skipping.watchdog()->lastProgressCycle());
    EXPECT_EQ(dense.progressSignature(), skipping.progressSignature());
    EXPECT_EQ(dense.now(), skipping.now());
}

/**
 * Stats equivalence across skipped stretches: time-integrated counters
 * (mem active/blocked cycles feeding memBlockingRate, CPU latency)
 * must account for elided cycles exactly.
 */
TEST(IdleSkip, SkippedStretchesKeepStatsEquivalent)
{
    SystemConfig cfg = skipHeavyCfg();
    cfg.warmupCycles = 2000;
    cfg.simCycles = 15000;

    cfg.idleSkip = false;
    const RunResults dense = runWorkload(cfg, "HS", "vips");
    cfg.idleSkip = true;
    const RunResults skipping = runWorkload(cfg, "HS", "vips");

    EXPECT_EQ(fingerprint(dense), fingerprint(skipping));
}

/**
 * Absolute fixed-seed goldens for the SM warp-issue order (DESIGN.md,
 * "SM core"). The matrices above only compare runs with each other, so
 * a wrong but consistent issue order would pass them. These cases pin
 * the full RunResults fingerprint plus the summed SM issue and stall
 * counters for short DR+HS, DR+BP (write-through stalls) and RP+HS
 * (probes) runs across warpsPerCore x issueWidth.
 *
 * The expected values were recorded with the original issue loop,
 * which scanned every warp slot each cycle, before the issuable-warp
 * mask and the bulk accounting of blocked write retries replaced it.
 */
struct IssueGoldenCase
{
    const char *name;
    Mechanism mechanism;
    const char *gpu;
    int warpsPerCore;
    int issueWidth;
    const char *expected;
};

std::string
issueFingerprint(const IssueGoldenCase &c)
{
    SystemConfig cfg = matrixCfg(TopologyKind::Mesh, false);
    cfg.mechanism = c.mechanism;
    cfg.gpu.warpsPerCore = c.warpsPerCore;
    cfg.gpu.issueWidth = c.issueWidth;
    cfg.warmupCycles = 1000;
    cfg.simCycles = 3000;
    HeteroSystem system(cfg, c.gpu, "blackscholes");
    const RunResults r = system.run();
    std::uint64_t sm[5] = {};
    for (int i = 0; i < system.gpuCoreCount(); ++i) {
        const SmCoreStats &s = system.gpuCore(i).stats();
        sm[0] += s.instructions.value();
        sm[1] += s.stallInject.value();
        sm[2] += s.stallNoMshr.value();
        sm[3] += s.stallPort.value();
        sm[4] += s.mshrMerges.value();
    }
    std::ostringstream os;
    os << fingerprint(r) << "|sm";
    for (const std::uint64_t v : sm)
        os << ':' << v;
    return os.str();
}

class IssueOrderGolden : public ::testing::TestWithParam<IssueGoldenCase>
{
};

TEST_P(IssueOrderGolden, MatchesRecordedRun)
{
    EXPECT_EQ(issueFingerprint(GetParam()), GetParam().expected);
}

// clang-format off
const IssueGoldenCase kIssueGoldens[] = {
    {"DrHs_w1_i1", Mechanism::DelegatedReplies, "HS", 1, 1,
     "3000|6.3440000000000003|0.44170833333333331|115.1263794817488|0.073766666666666675|0.0042500000000000003|889|479|6|6|0|0|0|0|2709|106281|106279|106281|0.23345588235294118|0.44851862716339103"
     "|sm:19032:0:0:0:0"},
    {"DrHs_w1_i2", Mechanism::DelegatedReplies, "HS", 1, 2,
     "3000|6.3440000000000003|0.44170833333333331|115.1263794817488|0.073766666666666675|0.0042500000000000003|889|479|6|6|0|0|0|0|2709|106281|106279|106281|0.23345588235294118|0.44851862716339103"
     "|sm:19032:0:0:0:0"},
    {"DrHs_w1_i4", Mechanism::DelegatedReplies, "HS", 1, 4,
     "3000|6.3440000000000003|0.44170833333333331|115.1263794817488|0.073766666666666675|0.0042500000000000003|889|479|6|6|0|0|0|0|2709|106281|106279|106281|0.23345588235294118|0.44851862716339103"
     "|sm:19032:0:0:0:0"},
    {"DrHs_w7_i1", Mechanism::DelegatedReplies, "HS", 7, 1,
     "3000|25.933|0.42389583333333342|121.5298486924905|0.13539166666666666|0.029791666666666664|3011|2061|246|253|1|0|0|0|6275|208968|209005|208968|0.19400773195876289|0.54336283185840706"
     "|sm:77799:0:0:0:1716"},
    {"DrHs_w7_i2", Mechanism::DelegatedReplies, "HS", 7, 2,
     "3000|29.227|0.41870833333333324|122.19796272705879|0.14980833333333335|0.029750000000000002|3506|2085|241|244|4|0|0|0|6974|236139|236120|236139|0.2003085185396789|0.56790732068030569"
     "|sm:87681:51825:0:0:2004"},
    {"DrHs_w7_i4", Mechanism::DelegatedReplies, "HS", 7, 4,
     "3000|29.683333333333334|0.41652083333333328|123.71984765576016|0.15566666666666668|0.039541666666666669|3688|2080|271|266|8|0|0|0|7141|243056|243067|243056|0.20735409872933769|0.57241046665862771"
     "|sm:89050:92618:0:0:2110"},
    {"DrHs_w48_i1", Mechanism::DelegatedReplies, "HS", 48, 1,
     "3000|10.824666666666667|0.34664583333333332|257.27437675088231|0.19553333333333334|0.62054166666666666|6212|2907|873|591|4|236|0|0|5242|212539|212896|212539|0.94106953491895162|0.31678945327646374"
     "|sm:32474:326393:0:0:3840"},
    {"DrHs_w48_i2", Mechanism::DelegatedReplies, "HS", 48, 2,
     "3000|10.934333333333333|0.34289583333333329|276.2851083554483|0.20106666666666667|0.63004166666666672|6619|2941|911|611|11|237|0|0|5405|210222|210435|210222|0.98292248292248297|0.3147277712495104"
     "|sm:32803:371075:0:0:4106"},
    {"DrHs_w48_i4", Mechanism::DelegatedReplies, "HS", 48, 4,
     "3000|11.699|0.37060416666666673|262.61078990774763|0.20074166666666668|0.63441666666666674|6567|3026|946|619|10|246|0|0|5626|217712|218095|217712|0.92065049768680784|0.33271062955352138"
     "|sm:35097:394502:0:0:4074"},
    {"DrHs_w64_i1", Mechanism::DelegatedReplies, "HS", 64, 1,
     "3000|10.178333333333333|0.33108333333333329|324.48080558481371|0.19695833333333332|0.83266666666666667|6375|1732|818|416|0|375|0|0|4948|212556|212805|212556|0.99422956955708053|0.27361693628919515"
     "|sm:30535:258444:0:0:3929"},
    {"DrHs_w64_i2", Mechanism::DelegatedReplies, "HS", 64, 2,
     "3000|9.5419999999999998|0.31660416666666663|367.12178727371662|0.18570833333333334|0.84791666666666665|5887|1270|572|299|5|253|0|0|4253|196819|197189|196819|0.99560290884491798|0.21808750563824988"
     "|sm:28626:422739:0:0:3623"},
    {"DrHs_w64_i4", Mechanism::DelegatedReplies, "HS", 64, 4,
     "3000|9.5473333333333326|0.34114583333333337|355.862946909355|0.18569166666666667|0.82554166666666673|5904|1305|589|325|11|246|0|0|4346|198793|199040|198793|0.9939393939393939|0.22673510377147957"
     "|sm:28642:423635:0:0:3613"},
    {"DrBp_w1_i1", Mechanism::DelegatedReplies, "BP", 1, 1,
     "3000|3.7993333333333332|0.43614583333333334|118.13314912886288|0.081541666666666665|0.010750000000000001|944|670|177|128|49|1|0|0|3251|120004|120009|120004|0.600127145581691|0.40207522697795073"
     "|sm:11398:0:0:0:0"},
    {"DrBp_w1_i2", Mechanism::DelegatedReplies, "BP", 1, 2,
     "3000|3.7993333333333332|0.43614583333333334|118.13314912886288|0.081541666666666665|0.010750000000000001|944|670|177|128|49|1|0|0|3251|120004|120009|120004|0.600127145581691|0.40207522697795073"
     "|sm:11398:0:0:0:0"},
    {"DrBp_w1_i4", Mechanism::DelegatedReplies, "BP", 1, 4,
     "3000|3.7993333333333332|0.43614583333333334|118.13314912886288|0.081541666666666665|0.010750000000000001|944|670|177|128|49|1|0|0|3251|120004|120009|120004|0.600127145581691|0.40207522697795073"
     "|sm:11398:0:0:0:0"},
    {"DrBp_w7_i1", Mechanism::DelegatedReplies, "BP", 7, 1,
     "3000|16.818333333333332|0.37191666666666662|186.06655821698874|0.12301666666666666|0.042750000000000003|1483|1177|178|153|24|1|0|0|7249|245729|245794|245729|0.21335059703639764|0.28416378885051802"
     "|sm:50455:186677:0:0:606"},
    {"DrBp_w7_i2", Mechanism::DelegatedReplies, "BP", 7, 2,
     "3000|16.506333333333334|0.38937499999999997|222.48039205779645|0.11876666666666666|0.040166666666666663|1341|981|130|122|17|0|0|0|7008|233584|233416|233584|0.19752540874944763|0.27655112865424941"
     "|sm:49519:388879:0:0:510"},
    {"DrBp_w7_i4", Mechanism::DelegatedReplies, "BP", 7, 4,
     "3000|16.742999999999999|0.40606249999999999|197.05820465942006|0.11978333333333332|0.058458333333333327|1682|1134|157|134|25|0|0|0|7225|242487|242431|242487|0.24309871368694899|0.30137477585176331"
     "|sm:50229:349828:0:0:820"},
    {"DrBp_w48_i1", Mechanism::DelegatedReplies, "BP", 48, 1,
     "3000|17.039000000000001|0.42552083333333329|198.54096464673472|0.1076|0.017083333333333332|1777|1655|84|76|13|2|0|0|5946|205294|204924|205294|0.25631039953843937|0.1902253110637821"
     "|sm:51117:3106698:1946:0:1012"},
    {"DrBp_w48_i2", Mechanism::DelegatedReplies, "BP", 48, 2,
     "3000|10.261333333333333|0.39916666666666673|208.2745877793472|0.073675000000000004|0.01025|796|723|34|38|5|0|0|0|4139|145596|145193|145596|0.22055971183153228|0.15115243842120882"
     "|sm:30784:4973881:0:0:354"},
    {"DrBp_w48_i4", Mechanism::DelegatedReplies, "BP", 48, 4,
     "3000|12.217333333333332|0.3931041666666667|192.95748784591393|0.08218333333333333|0.016250000000000001|1163|1093|67|59|9|0|0|0|4643|160256|159858|160256|0.24219075385256142|0.15855620349889402"
     "|sm:36652:5226416:750:0:641"},
    {"DrBp_w64_i1", Mechanism::DelegatedReplies, "BP", 64, 1,
     "3000|18.791333333333334|0.44035416666666677|193.37838683026351|0.10334166666666667|0.019791666666666662|2480|2260|116|98|2|22|0|0|5745|194037|193959|194037|0.31050456992612996|0.19417586167671483"
     "|sm:56374:3597001:3206:0:1682"},
    {"DrBp_w64_i2", Mechanism::DelegatedReplies, "BP", 64, 2,
     "3000|12.079000000000001|0.40506249999999999|190.04311561911715|0.077991666666666667|0.020333333333333332|1465|1393|94|76|0|19|0|0|4217|148778|148416|148778|0.30706350869838606|0.16374676488154488"
     "|sm:36237:6530244:111:0:934"},
    {"DrBp_w64_i4", Mechanism::DelegatedReplies, "BP", 64, 4,
     "3000|11.347|0.38177083333333328|204.09431762573163|0.072783333333333339|0.023166666666666665|1395|1321|93|78|3|16|0|0|3965|137904|137592|137904|0.30924407005098647|0.16103339119779433"
     "|sm:34041:6667652:379:0:904"},
    {"RpHs_w1_i1", Mechanism::RealisticProbing, "HS", 1, 1,
     "3000|4.5979999999999999|0.44675000000000004|114.85092325478692|0.066408333333333333|0|664|415|0|0|0|0|1312|41|3499|98049|98057|98049|0.24049257515392974|0.39099963113242348"
     "|sm:13794:0:0:0:0"},
    {"RpHs_w1_i2", Mechanism::RealisticProbing, "HS", 1, 2,
     "3000|4.5979999999999999|0.44675000000000004|114.85092325478692|0.066408333333333333|0|664|415|0|0|0|0|1312|41|3499|98049|98057|98049|0.24049257515392974|0.39099963113242348"
     "|sm:13794:0:0:0:0"},
    {"RpHs_w1_i4", Mechanism::RealisticProbing, "HS", 1, 4,
     "3000|4.5979999999999999|0.44675000000000004|114.85092325478692|0.066408333333333333|0|664|415|0|0|0|0|1312|41|3499|98049|98057|98049|0.24049257515392974|0.39099963113242348"
     "|sm:13794:0:0:0:0"},
    {"RpHs_w7_i1", Mechanism::RealisticProbing, "HS", 7, 1,
     "3000|18.134333333333334|0.43497916666666669|125.58987278868784|0.14411666666666667|0.13691666666666666|3092|2225|0|0|0|0|2504|75|7288|205794|205766|205794|0.28385201505554025|0.49991410410582376"
     "|sm:54403:1495:0:0:1765"},
    {"RpHs_w7_i2", Mechanism::RealisticProbing, "HS", 7, 2,
     "3000|21.215333333333334|0.41383333333333333|125.11577618887813|0.15551666666666666|0.15583333333333335|3293|2352|0|0|0|0|2676|79|7967|224545|224684|224545|0.2584772370486656|0.52428115015974441"
     "|sm:63646:20948:0:0:1878"},
    {"RpHs_w7_i4", Mechanism::RealisticProbing, "HS", 7, 4,
     "3000|22.721333333333334|0.41825000000000001|127.30178473478668|0.16003333333333333|0.17050000000000001|3376|2425|0|0|0|0|2732|84|8303|232813|232946|232813|0.24788897863279241|0.53240386088555236"
     "|sm:68164:35353:0:0:1932"},
    {"RpHs_w48_i1", Mechanism::RealisticProbing, "HS", 48, 1,
     "3000|9.1020000000000003|0.35920833333333335|319.48269524460198|0.19701666666666667|0.82674999999999998|5579|2226|0|0|0|0|3894|35|7292|213051|213492|213051|0.99785369343587904|0.2172211350293542"
     "|sm:27306:167418:0:0:3455"},
    {"RpHs_w48_i2", Mechanism::RealisticProbing, "HS", 48, 2,
     "3000|9.2603333333333335|0.37522916666666661|340.84117548094781|0.20021666666666665|0.87075000000000002|5628|2250|0|0|0|0|3926|29|7354|217997|218446|217997|0.99911237351322568|0.21572433875272992"
     "|sm:27781:215977:0:0:3490"},
    {"RpHs_w48_i4", Mechanism::RealisticProbing, "HS", 48, 4,
     "3000|9.3610000000000007|0.3183125|328.33192850863196|0.20347499999999999|0.8805833333333335|5723|2372|0|0|0|0|3950|34|7374|218591|218925|218591|0.9975597001917379|0.23756906077348067"
     "|sm:28083:227165:0:0:3550"},
    {"RpHs_w64_i1", Mechanism::RealisticProbing, "HS", 64, 1,
     "3000|8.9280000000000008|0.32072916666666668|385.07953040117565|0.20808333333333334|0.94562500000000005|5840|1095|0|0|0|0|3978|14|6940|220754|221038|220754|0.99982879643896594|0.14300653594771243"
     "|sm:26784:133420:0:0:3624"},
    {"RpHs_w64_i2", Mechanism::RealisticProbing, "HS", 64, 2,
     "3000|8.950333333333333|0.30845833333333333|411.63222257282359|0.2089583333333333|0.93658333333333321|5900|1217|0|0|0|0|4060|17|7012|218984|219296|218984|0.99983053719708526|0.1361228813559322"
     "|sm:26851:170466:0:0:3653"},
    {"RpHs_w64_i4", Mechanism::RealisticProbing, "HS", 64, 4,
     "3000|8.9076666666666675|0.33277083333333335|398.82080524550406|0.20793333333333336|0.9397916666666668|5822|1189|0|0|0|0|3976|17|6912|215974|216379|215974|1|0.13580246913580246"
     "|sm:26723:219643:0:0:3613"},
};
// clang-format on

std::string
issueCaseName(const ::testing::TestParamInfo<IssueGoldenCase> &info)
{
    return info.param.name;
}

INSTANTIATE_TEST_SUITE_P(WarpsByWidth, IssueOrderGolden,
                         ::testing::ValuesIn(kIssueGoldens), issueCaseName);

} // namespace
} // namespace dr
