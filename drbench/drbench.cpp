/**
 * @file
 * Repository benchmark driver (README.md beside this file; run.py is
 * the entry point). Runs one workload, described by a key=value config
 * file that `drsim --config` also accepts, for a host-time budget, and
 * streams one JSON object per line on stdout for run.py to aggregate:
 *
 *   host    provenance: affinity cores, 1-min loadavg, compiler, build
 *   config  the effective configuration (writeConfig) after --seed
 *   golden  one untimed rep at the golden seed and the run's horizon,
 *           whose stats hash run.py compares with reference.json
 *   rep     one repetition: setup time, per-chunk host times, stats
 *           hash, modelled metrics, and in traced mode per-layer values
 *   end     peak resident set size
 *
 * A hetero repetition is construct (kSetupSamples times, keeping the
 * last system) -> advance(warm-up) -> resetAllStats ->
 * advance(measured) -> collect -> capture -> checkInvariants, with both
 * advances split into fixed chunks of simulated cycles. A noc
 * repetition drives a raw Network through canInject/inject/tick/
 * popMessage only, then drains it to quiescence and checks that every
 * injected packet was delivered. The simulator is driven only through
 * its public API; nothing here changes it.
 *
 * Traced mode (--trace 1) cycles repetitions through three modes:
 * traced (spans around every call into the simulator, per-chunk
 * interval deltas), untraced (the overhead baseline) and threads2
 * (noc.threads=2, whose hash must equal the serial one). Spans and
 * intervals are kept in memory and written to --trace-out at exit.
 */

#include <sched.h>

#include <chrono>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <iostream>
#include <map>
#include <memory>
#include <sstream>
#include <string>
#include <vector>

#include "common/invariant.hpp"
#include "common/rng.hpp"
#include "core/config_io.hpp"
#include "core/hetero_system.hpp"
#include "core/stats_report.hpp"
#include "noc/network.hpp"
#include "noc/synthetic_traffic.hpp"
#include "noc/vnet.hpp"

using namespace dr;

namespace
{

using Clock = std::chrono::steady_clock;

const Clock::time_point kStart = Clock::now();

std::int64_t
nowNs()
{
    return std::chrono::duration_cast<std::chrono::nanoseconds>(
               Clock::now() - kStart)
        .count();
}

double
secondsSince(std::int64_t startNs)
{
    return static_cast<double>(nowNs() - startNs) * 1e-9;
}

[[noreturn]] void
usage(const std::string &msg)
{
    std::cerr << "drbench: " << msg << "\n"
              << "usage: drbench --config FILE --seed N --seconds S "
                 "[--trace 0|1] [--horizon full|tiny] [--golden-seed N] "
                 "[--min-reps N] [--trace-out FILE]\n";
    std::exit(2);
}

// --- JSON line output ------------------------------------------------------

std::string
jsonEscape(const std::string &s)
{
    std::string out;
    for (const char c : s) {
        switch (c) {
          case '"': out += "\\\""; break;
          case '\\': out += "\\\\"; break;
          case '\n': out += "\\n"; break;
          case '\t': out += "\\t"; break;
          default: out += c;
        }
    }
    return out;
}

/** Builds one flat-ish JSON object; values keep all their digits. */
class JsonObject
{
  public:
    JsonObject &
    num(const std::string &key, double v)
    {
        char buf[40];
        std::snprintf(buf, sizeof buf, "%.17g", v);
        return raw(key, buf);
    }

    JsonObject &
    str(const std::string &key, const std::string &v)
    {
        return raw(key, "\"" + jsonEscape(v) + "\"");
    }

    JsonObject &
    boolean(const std::string &key, bool v)
    {
        return raw(key, v ? "true" : "false");
    }

    JsonObject &
    list(const std::string &key, const std::vector<double> &vs)
    {
        std::string s = "[";
        char buf[40];
        for (std::size_t i = 0; i < vs.size(); ++i) {
            std::snprintf(buf, sizeof buf, "%s%.9g", i ? "," : "", vs[i]);
            s += buf;
        }
        return raw(key, s + "]");
    }

    JsonObject &
    raw(const std::string &key, const std::string &value)
    {
        body_ += (body_.empty() ? "" : ",");
        body_ += "\"" + jsonEscape(key) + "\":" + value;
        return *this;
    }

    std::string text() const { return "{" + body_ + "}"; }

  private:
    std::string body_;
};

void
emit(const JsonObject &obj)
{
    std::cout << obj.text() << "\n" << std::flush;
}

// --- workload description --------------------------------------------------

/**
 * A workload file is a drsim config plus `# workload.KEY = VALUE`
 * comment lines (comments to drsim) naming what the config cannot:
 * the kind of run, the GPU/CPU benchmarks, the chunk size, the tiny
 * self-test horizon and, for noc runs, the traffic.
 */
struct Workload
{
    SystemConfig cfg;
    std::string kind;  //!< "hetero" or "noc"
    std::string gpu;
    std::string cpu;
    Cycle chunk = 0;
    Cycle tinyWarmup = 0;
    Cycle tinyCycles = 0;
    double rate = 0.0;  //!< noc: packets per node per cycle
    std::vector<NodeId> hotspots;
};

std::string
trim(const std::string &s)
{
    const auto b = s.find_first_not_of(" \t\r");
    if (b == std::string::npos)
        return "";
    const auto e = s.find_last_not_of(" \t\r");
    return s.substr(b, e - b + 1);
}

long long
toInt(const std::string &key, const std::string &v)
{
    char *end = nullptr;
    const long long x = std::strtoll(v.c_str(), &end, 10);
    if (v.empty() || *end != '\0')
        usage("workload." + key + ": not an integer: '" + v + "'");
    return x;
}

Workload
loadWorkload(const std::string &path)
{
    Workload w;
    parseConfigFile(w.cfg, path);
    std::ifstream in(path);
    std::string line;
    const std::string tag = "# workload.";
    while (std::getline(in, line)) {
        if (line.rfind(tag, 0) != 0)
            continue;
        const auto eq = line.find('=');
        if (eq == std::string::npos)
            usage("malformed workload line: " + line);
        const std::string key = trim(line.substr(tag.size(),
                                                 eq - tag.size()));
        const std::string val = trim(line.substr(eq + 1));
        if (key == "kind") w.kind = val;
        else if (key == "gpu") w.gpu = val;
        else if (key == "cpu") w.cpu = val;
        else if (key == "chunk") w.chunk = toInt(key, val);
        else if (key == "tinyWarmup") w.tinyWarmup = toInt(key, val);
        else if (key == "tinyCycles") w.tinyCycles = toInt(key, val);
        else if (key == "rate") w.rate = std::strtod(val.c_str(), nullptr);
        else if (key == "hotspots") {
            std::istringstream ss(val);
            std::string item;
            while (std::getline(ss, item, ','))
                w.hotspots.push_back(
                    static_cast<NodeId>(toInt(key, trim(item))));
        } else {
            usage("unknown workload key '" + key + "' in " + path);
        }
    }
    if (w.kind != "hetero" && w.kind != "noc")
        usage("workload.kind must be hetero or noc in " + path);
    if (w.chunk <= 0 || w.tinyCycles <= 0)
        usage("workload.chunk and workload.tinyCycles must be > 0");
    if (w.kind == "hetero" && (w.gpu.empty() || w.cpu.empty()))
        usage("hetero workload needs workload.gpu and workload.cpu");
    if (w.kind == "noc" &&
        (w.rate <= 0.0 || w.rate > 1.0 || w.hotspots.empty() ||
         w.cfg.noc.topology != TopologyKind::Mesh ||
         !w.cfg.noc.sharedPhysical))
        usage("noc workload needs a shared-physical mesh, "
              "0 < workload.rate <= 1 and workload.hotspots");
    w.cfg.validate();
    return w;
}

// --- tracing ---------------------------------------------------------------

/**
 * One span. Ordinary spans have busyNs == endNs - startNs and calls == 1;
 * the per-chunk aggregates of the noc run (tick/inject/pop) keep the
 * chunk's bounds and sum the host time of `calls` calls into busyNs.
 */
struct Span
{
    std::string name;
    int run;
    int parent;  //!< index into the span list, -1 for a root
    std::int64_t startNs;
    std::int64_t endNs;
    std::int64_t busyNs;
    std::uint64_t calls;
};

/** Per-chunk deltas of the counters that show when clogging happens. */
struct Interval
{
    int run;
    Cycle endCycle;
    double hostMs;
    std::uint64_t memBlocked;
    std::uint64_t delegations;
    std::uint64_t gpuInstructions;
    std::uint64_t flits;
};

struct Tracer
{
    std::vector<Span> spans;
    std::vector<Interval> intervals;
    int run = 0;

    int
    open(const std::string &name, int parent)
    {
        const std::int64_t t = nowNs();
        spans.push_back({name, run, parent, t, t, 0, 1});
        return static_cast<int>(spans.size()) - 1;
    }

    void
    close(int idx)
    {
        Span &s = spans[idx];
        s.endNs = nowNs();
        s.busyNs = s.endNs - s.startNs;
    }

    void
    write(const std::string &path) const
    {
        std::ofstream out(path);
        out << "{\"spans\":[\n";
        for (std::size_t i = 0; i < spans.size(); ++i) {
            const Span &s = spans[i];
            out << (i ? ",\n" : "")
                << JsonObject()
                       .str("name", s.name)
                       .num("run", s.run)
                       .num("parent", s.parent)
                       .num("start_ns", static_cast<double>(s.startNs))
                       .num("end_ns", static_cast<double>(s.endNs))
                       .num("busy_ns", static_cast<double>(s.busyNs))
                       .num("calls", static_cast<double>(s.calls))
                       .text();
        }
        out << "\n],\"intervals\":[\n";
        for (std::size_t i = 0; i < intervals.size(); ++i) {
            const Interval &v = intervals[i];
            out << (i ? ",\n" : "")
                << JsonObject()
                       .num("run", v.run)
                       .num("end_cycle", static_cast<double>(v.endCycle))
                       .num("host_ms", v.hostMs)
                       .num("mem_blocked_cycles",
                            static_cast<double>(v.memBlocked))
                       .num("delegations",
                            static_cast<double>(v.delegations))
                       .num("gpu_instructions",
                            static_cast<double>(v.gpuInstructions))
                       .num("flits", static_cast<double>(v.flits))
                       .text();
        }
        out << "\n]}\n";
        if (!out)
            usage("cannot write trace file " + path);
    }
};

/** RAII span; a no-op without a tracer. */
class Scope
{
  public:
    Scope(Tracer *tr, const char *name, int parent)
        : tr_(tr), idx_(tr ? tr->open(name, parent) : -1)
    {
    }
    ~Scope()
    {
        if (tr_)
            tr_->close(idx_);
    }
    Scope(const Scope &) = delete;
    Scope &operator=(const Scope &) = delete;
    int index() const { return idx_; }

  private:
    Tracer *tr_;
    int idx_;
};

// --- stats hashing ---------------------------------------------------------

/** FNV-1a over `key=value` lines with every value at full precision. */
class Hasher
{
  public:
    void
    add(const std::string &key, double value)
    {
        char buf[40];
        std::snprintf(buf, sizeof buf, "=%.17g\n", value);
        for (const char c : key + buf) {
            h_ ^= static_cast<unsigned char>(c);
            h_ *= 1099511628211ull;
        }
    }

    std::string
    hex() const
    {
        char buf[20];
        std::snprintf(buf, sizeof buf, "%016llx",
                      static_cast<unsigned long long>(h_));
        return buf;
    }

  private:
    std::uint64_t h_ = 1469598103934665603ull;
};

// --- host probe ------------------------------------------------------------

/**
 * Fixed work that measures how fast the host runs right now: 5000
 * lookups with updates in a std::map of 32768 entries, whose nodes lie
 * scattered over about 1.5 MiB of heap. On a shared host, other tenants
 * move the simulator's speed by 20-40% between runs. The simulator
 * walks small heap objects through pointers, and a probe that does the
 * same slows with it: this tree walk tracks it about twice as closely
 * as a pass of random writes to a flat array, or a pure ALU loop. The
 * probe runs after every chunk, and run.py scales every host time of a
 * repetition by the median probe time of that repetition. Each
 * measurement repeats an untimed pass first, so that the timed pass
 * starts from its own cache state and not from whatever the simulator
 * left behind: the probe's time then does not depend on the simulator.
 * The probe is benchmark code; no change to the simulator changes it.
 */
class HostProbe
{
  public:
    HostProbe()
    {
        std::uint32_t x = kSeed;
        for (int i = 0; i < 32768; ++i) {
            x = x * 1664525u + 1013904223u;
            tree_[x >> 8] = static_cast<std::uint32_t>(i);
        }
    }

    /** Host milliseconds the timed pass took. */
    double
    run()
    {
        pass();
        const std::int64_t t0 = nowNs();
        pass();
        return static_cast<double>(nowNs() - t0) * 1e-6;
    }

  private:
    static constexpr std::uint32_t kSeed = 777;

    /** The same lookups every time, each one a walk to a leaf. */
    void
    pass()
    {
        std::uint32_t x = kSeed ^ 0x5bd1e995u;
        for (int i = 0; i < 5000; ++i) {
            x = x * 1664525u + 1013904223u;
            const auto it = tree_.lower_bound(x >> 8);
            if (it != tree_.end())
                ++it->second;
        }
    }

    std::map<std::uint32_t, std::uint32_t> tree_;
};

/** Runs the probe after a timed interval, when there is one. */
double
probeAfter(HostProbe *probe, Tracer *tr, int parent)
{
    if (!probe)
        return 0.0;
    Scope s(tr, "host-probe", parent);
    return probe->run();
}

// --- one repetition --------------------------------------------------------

enum class Mode { Timed, Traced, Untraced, Threads2 };

const char *
modeName(Mode m)
{
    switch (m) {
      case Mode::Timed: return "timed";
      case Mode::Traced: return "traced";
      case Mode::Untraced: return "untraced";
      case Mode::Threads2: return "threads2";
    }
    return "?";
}

/**
 * Constructions per repetition. One construction of the 64-node chip
 * takes under a millisecond, too short to time once: a repetition
 * builds the system this many times back to back, timing each, and
 * runs the last one.
 */
constexpr int kSetupSamples = 10;

/** What one repetition reports besides its JSON fields. */
struct Rep
{
    JsonObject json;
    JsonObject layers;
};

double
ratio(double num, double den)
{
    return den > 0.0 ? num / den : 0.0;
}

/** Sum of the interval counters over the whole chip. */
Interval
heteroCounters(const HeteroSystem &sys)
{
    Interval v{};
    for (int i = 0; i < sys.memNodeCount(); ++i) {
        v.memBlocked += sys.memNode(i).stats().blockedCycles.value();
        v.delegations += sys.memNode(i).stats().delegations.value();
    }
    for (int i = 0; i < sys.gpuCoreCount(); ++i)
        v.gpuInstructions += sys.gpuCore(i).stats().instructions.value();
    v.flits = sys.interconnect().net(NetKind::Request)
                  .stats().flitsDelivered.value();
    if (!sys.interconnect().shared())
        v.flits += sys.interconnect().net(NetKind::Reply)
                       .stats().flitsDelivered.value();
    return v;
}

/** Packet-weighted mean latency over the chip's physical networks. */
double
heteroPacketLatency(const Interconnect &ic)
{
    double sum = 0.0;
    double count = 0.0;
    for (const NetKind kind : {NetKind::Request, NetKind::Reply}) {
        const Average &lat = ic.net(kind).stats().packetLatency;
        sum += lat.sum();
        count += static_cast<double>(lat.count());
        if (ic.shared())
            break;
    }
    return ratio(sum, count);
}

/** Per-layer counts of a finished hetero repetition (public accessors). */
void
heteroLayers(const HeteroSystem &sys, const RunResults &r, JsonObject &o)
{
    std::uint64_t instr = 0, merges = 0, noMshr = 0, stallInj = 0;
    std::uint64_t frqRecv = 0, frqMiss = 0;
    for (int i = 0; i < sys.gpuCoreCount(); ++i) {
        const SmCoreStats &s = sys.gpuCore(i).stats();
        instr += s.instructions.value();
        merges += s.mshrMerges.value();
        noMshr += s.stallNoMshr.value();
        stallInj += s.stallInject.value();
        frqRecv += s.frqReceived.value();
        frqMiss += s.frqRemoteMisses.value();
    }
    o.num("gpu.ipc", r.gpuIpc)
        .num("gpu.instructions", static_cast<double>(instr))
        .num("gpu.l1_miss_rate", r.gpuL1MissRate)
        .num("gpu.mshr_merges", static_cast<double>(merges))
        .num("gpu.stall_no_mshr", static_cast<double>(noMshr))
        .num("gpu.stall_inject", static_cast<double>(stallInj))
        .num("gpu.frq_received", static_cast<double>(frqRecv))
        .num("gpu.frq_remote_hit_rate", r.remoteHitRate())
        .num("gpu.frq_remote_misses", static_cast<double>(frqMiss));

    std::uint64_t retired = 0, cpuBlocked = 0;
    double latSum = 0.0;
    std::uint64_t latCount = 0;
    for (int i = 0; i < sys.cpuCoreCount(); ++i) {
        const CpuNodeStats &s = sys.cpuCore(i).stats();
        retired += s.retired.value();
        cpuBlocked += s.blockedCycles.value();
        latSum += s.requestLatency.sum();
        latCount += s.requestLatency.count();
    }
    o.num("cpu.retired", static_cast<double>(retired))
        .num("cpu.blocked_cycles", static_cast<double>(cpuBlocked))
        .num("cpu.request_latency",
             ratio(latSum, static_cast<double>(latCount)));

    std::uint64_t accepted = 0, replies = 0, dele = 0, blocked = 0;
    std::uint64_t llcHits = 0, llcAccesses = 0, llcStall = 0;
    std::uint64_t dramReads = 0, dramWrites = 0, rowHits = 0;
    for (int i = 0; i < sys.memNodeCount(); ++i) {
        const MemNode &m = sys.memNode(i);
        accepted += m.stats().requestsAccepted.value();
        replies += m.stats().repliesSent.value();
        dele += m.stats().delegations.value();
        blocked += m.stats().blockedCycles.value();
        llcHits += m.llcStats().hits.value();
        llcAccesses += m.llcStats().reads.value() +
                       m.llcStats().writes.value();
        llcStall += m.llcStats().stallCycles.value();
        dramReads += m.dramStats().reads.value();
        dramWrites += m.dramStats().writes.value();
        rowHits += m.dramStats().rowHits.value();
    }
    o.num("mem.blocking_rate", r.memBlockingRate)
        .num("mem.requests_accepted", static_cast<double>(accepted))
        .num("mem.replies_sent", static_cast<double>(replies))
        .num("mem.delegations", static_cast<double>(dele))
        .num("mem.blocked_cycles", static_cast<double>(blocked))
        .num("mem.llc_hit_rate",
             ratio(static_cast<double>(llcHits),
                   static_cast<double>(llcAccesses)))
        .num("mem.llc_stall_cycles", static_cast<double>(llcStall))
        .num("mem.dram_reads", static_cast<double>(dramReads))
        .num("mem.dram_writes", static_cast<double>(dramWrites))
        .num("mem.dram_row_hit_rate",
             ratio(static_cast<double>(rowHits),
                   static_cast<double>(dramReads + dramWrites)));

    const MesiStats mesi = sys.mesiStats();
    o.num("coherence.mesi_invalidations",
          static_cast<double>(mesi.invalidations.value()))
        .num("coherence.mesi_writebacks",
             static_cast<double>(mesi.writebacks.value()));

    const Interconnect &ic = sys.interconnect();
    std::uint64_t stalls[numVnets] = {};
    std::uint64_t ipFlits = 0;
    double ipLinkCycles = 0.0;
    for (const NetKind kind : {NetKind::Request, NetKind::Reply}) {
        const Network &net = ic.net(kind);
        for (int vn = 0; vn < numVnets; ++vn)
            stalls[vn] += net.stats().vnInjectionStalls[vn].value();
        ipFlits += net.stats().interposerFlits.value();
        ipLinkCycles += static_cast<double>(
                            net.topology().interposerLinkCount()) *
                        static_cast<double>(r.cycles);
        if (ic.shared())
            break;
    }
    o.num("noc.link_traversals", static_cast<double>(r.linkTraversals))
        .num("noc.switch_traversals",
             static_cast<double>(r.switchTraversals))
        .num("noc.buffer_writes", static_cast<double>(r.bufferWrites));
    for (int vn = 0; vn < numVnets; ++vn)
        o.num(std::string("noc.injection_stalls.") +
                  vnetName(static_cast<VirtualNet>(vn)),
              static_cast<double>(stalls[vn]));
    o.num("noc.reply.gpu_packet_latency",
          ic.net(NetKind::Reply).stats().gpuPacketLatency.mean())
        .num("noc.request.cpu_packet_latency",
             ic.net(NetKind::Request).stats().cpuPacketLatency.mean())
        .num("noc.interposer.utilization",
             ratio(static_cast<double>(ipFlits), ipLinkCycles))
        .num("noc.packet_latency", heteroPacketLatency(ic))
        .num("core.idle_skipped_cycles",
             static_cast<double>(sys.idleSkippedCycles()));
}

/** Advance `cycles` in chunks, timing each; traced runs add spans. */
void
advanceChunked(HeteroSystem &sys, Cycle cycles, Cycle chunk,
               std::vector<double> &chunkMs, std::vector<double> &probeMs,
               double &advanceS, HostProbe *probe, Tracer *tr, int parent)
{
    Interval before = tr ? heteroCounters(sys) : Interval{};
    for (Cycle done = 0; done < cycles;) {
        const Cycle n = std::min(chunk, cycles - done);
        const std::int64_t t0 = nowNs();
        {
            Scope s(tr, "advance", parent);
            sys.advance(n);
        }
        const double ms = static_cast<double>(nowNs() - t0) * 1e-6;
        chunkMs.push_back(ms);
        advanceS += ms * 1e-3;
        done += n;
        probeMs.push_back(probeAfter(probe, tr, parent));
        if (tr) {
            const Interval after = heteroCounters(sys);
            tr->intervals.push_back(
                {tr->run, sys.now(), ms, after.memBlocked - before.memBlocked,
                 after.delegations - before.delegations,
                 after.gpuInstructions - before.gpuInstructions,
                 after.flits - before.flits});
            before = after;
        }
    }
}

Rep
heteroRep(const Workload &w, const SystemConfig &cfg, HostProbe *probe,
          Tracer *tr)
{
    Rep rep;
    Scope root(tr, "rep", -1);
    const int p = root.index();

    std::vector<double> setupS;
    std::unique_ptr<HeteroSystem> sys;
    for (int i = 0; i < kSetupSamples; ++i) {
        if (sys) {
            Scope s(tr, "~HeteroSystem", p);
            sys.reset();
        }
        const std::int64_t t0 = nowNs();
        {
            Scope s(tr, "HeteroSystem", p);
            sys = std::make_unique<HeteroSystem>(cfg, w.gpu, w.cpu);
        }
        setupS.push_back(secondsSince(t0));
    }

    std::vector<double> chunkMs, probeMs;
    double advanceS = 0.0;
    advanceChunked(*sys, cfg.warmupCycles, w.chunk, chunkMs, probeMs,
                   advanceS, probe, tr, p);
    {
        Scope s(tr, "resetAllStats", p);
        sys->resetAllStats();
    }
    if (tr) {
        // Mark the reset: the next deltas start from zeroed counters.
        tr->intervals.push_back({tr->run, sys->now(), 0.0, 0, 0, 0, 0});
    }
    advanceChunked(*sys, cfg.simCycles, w.chunk, chunkMs, probeMs, advanceS,
                   probe, tr, p);

    const std::int64_t t0 = nowNs();
    RunResults r;
    {
        Scope s(tr, "collect", p);
        r = sys->collect(cfg.simCycles);
    }
    StatsReport report;
    {
        Scope s(tr, "StatsReport::capture", p);
        report = StatsReport::capture(*sys, cfg.simCycles);
    }
    const double reportS = secondsSince(t0);
    {
        Scope s(tr, "checkInvariants", p);
        sys->checkInvariants();  // panics (aborts) on a violation
    }

    Hasher h;
    for (const StatEntry &e : report.entries())
        h.add(e.path, e.value);

    rep.json.list("setups_s", setupS)
        .num("advance_s", advanceS)
        .num("report_s", reportS)
        .num("cycles", static_cast<double>(cfg.warmupCycles +
                                           cfg.simCycles))
        .list("chunks_ms", chunkMs)
        .list("probes_ms", probeMs)
        .str("hash", h.hex())
        .boolean("ok", true)
        .num("gpu_ipc", r.gpuIpc)
        .num("cpu_latency_cycles", r.cpuLatency)
        .num("mem_blocking_rate", r.memBlockingRate)
        .num("packet_latency_cycles",
             heteroPacketLatency(sys->interconnect()))
        .num("forwarded_fraction", r.forwardedFraction())
        .num("idle_skipped_cycles",
             static_cast<double>(sys->idleSkippedCycles()));
    if (tr)
        heteroLayers(*sys, r, rep.layers);
    {
        Scope s(tr, "~HeteroSystem", p);
        sys.reset();
    }
    return rep;
}

/** The raw-network parameters the way Interconnect builds its AVCP net. */
NetworkParams
nocParams(const SystemConfig &cfg)
{
    NetworkParams params;
    params.name = "hotspot";
    params.numVcs = cfg.noc.sharedReqVcs + cfg.noc.sharedReplyVcs;
    params.layout = sharedNetLayout(cfg.noc);
    params.vnPriority = cfg.noc.vnets;
    params.vcDepthFlits = cfg.noc.vcDepthFlits;
    params.routerStages = cfg.noc.routerStages;
    params.routing = cfg.noc.requestRouting;
    params.threads = cfg.noc.threads;
    params.seed = cfg.seed * 7919 + 1;
    params.ejBufferFlits =
        std::max(cfg.noc.ejBufferFlits,
                 params.numVcs *
                     cfg.flitsFor(MsgType::ReadReply, TrafficClass::Gpu));
    params.injBufferFlits.assign(cfg.nodeCount(),
                                 cfg.noc.coreInjBufferFlits);
    return params;
}

Rep
nocRep(const Workload &w, const SystemConfig &cfg, HostProbe *probe,
       Tracer *tr)
{
    Rep rep;
    Scope root(tr, "rep", -1);
    const int p = root.index();
    const int nodes = cfg.nodeCount();

    std::vector<double> setupS;
    std::unique_ptr<Topology> topo;
    std::unique_ptr<Network> net;
    for (int i = 0; i < kSetupSamples; ++i) {
        if (net) {
            Scope s(tr, "~Network", p);
            net.reset();
            topo.reset();
        }
        const std::int64_t t0 = nowNs();
        {
            Scope s(tr, "Topology+Network", p);
            topo = std::make_unique<Topology>(
                Topology::makeMesh(cfg.noc.meshWidth, cfg.noc.meshHeight));
            net = std::make_unique<Network>(nocParams(cfg), *topo);
        }
        setupS.push_back(secondsSince(t0));
    }

    const SyntheticTraffic traffic(TrafficPattern::Hotspot, nodes,
                                   cfg.noc.meshWidth, w.hotspots);
    Rng rng(cfg.seed * 31 + 7);
    std::uint64_t id = 1;
    std::uint64_t attempts = 0, refused = 0, injected = 0, popped = 0;
    std::uint64_t totalInjected = 0, totalPopped = 0;
    std::int64_t injectNs = 0, tickNs = 0, popNs = 0;
    const int requestFlits =
        cfg.flitsFor(MsgType::ReadReq, TrafficClass::Gpu);
    const int replyFlits =
        cfg.flitsFor(MsgType::ReadReply, TrafficClass::Gpu);

    const auto injectAll = [&](Cycle now) {
        for (NodeId src = 0; src < nodes; ++src) {
            if (!rng.chance(w.rate))
                continue;
            // Spread over all four VNs: request-side classes carry
            // read requests, reply-side classes read replies, each as
            // many flits as the chip's GPU traffic uses.
            const VirtualNet vn =
                static_cast<VirtualNet>(rng.next() % numVnets);
            const bool reqSide = vn == VirtualNet::Request ||
                                 vn == VirtualNet::ForwardedRequest;
            const int flits = reqSide ? requestFlits : replyFlits;
            ++attempts;
            if (!net->canInject(src, flits)) {
                ++refused;
                continue;
            }
            Message m;
            m.type = reqSide ? MsgType::ReadReq : MsgType::ReadReply;
            m.cls = TrafficClass::Gpu;
            m.src = src;
            m.dst = traffic.dest(src, rng);
            m.id = id++;
            net->inject(m, flits, now, vn);
            ++injected;
        }
    };
    const auto popAll = [&] {
        for (NodeId n = 0; n < nodes; ++n) {
            for (const NetKind kind : {NetKind::Reply, NetKind::Request}) {
                while (net->hasMessage(n, kind)) {
                    net->popMessage(n, kind);
                    ++popped;
                }
            }
        }
    };

    std::vector<double> chunkMs, probeMs;
    double advanceS = 0.0;
    Cycle now = 0;
    std::uint64_t prevFlits = 0;  // flitsDelivered at the last interval
    const auto runCycles = [&](Cycle cycles) {
        for (Cycle done = 0; done < cycles;) {
            const Cycle n = std::min(w.chunk, cycles - done);
            const std::int64_t c0 = nowNs();
            const int chunkSpan = tr ? tr->open("chunk", p) : -1;
            if (!tr) {
                for (Cycle end = now + n; now < end; ++now) {
                    injectAll(now);
                    net->tick(now);
                    popAll();
                }
            } else {
                const std::int64_t i0 = injectNs, k0 = tickNs, q0 = popNs;
                for (Cycle end = now + n; now < end; ++now) {
                    std::int64_t a = nowNs();
                    injectAll(now);
                    std::int64_t b = nowNs();
                    net->tick(now);
                    std::int64_t c = nowNs();
                    popAll();
                    injectNs += b - a;
                    tickNs += c - b;
                    popNs += nowNs() - c;
                }
                tr->close(chunkSpan);
                const std::int64_t cs0 = tr->spans[chunkSpan].startNs;
                const std::int64_t cs1 = tr->spans[chunkSpan].endNs;
                for (const auto &[name, busy] :
                     {std::pair<const char *, std::int64_t>{
                          "Network::canInject+inject", injectNs - i0},
                      {"Network::tick", tickNs - k0},
                      {"Network::popMessage", popNs - q0}}) {
                    tr->spans.push_back({name, tr->run, chunkSpan, cs0,
                                         cs1, busy,
                                         static_cast<std::uint64_t>(n)});
                }
                const std::uint64_t flits =
                    net->stats().flitsDelivered.value();
                tr->intervals.push_back(
                    {tr->run, now, static_cast<double>(cs1 - cs0) * 1e-6,
                     0, 0, 0, flits - prevFlits});
                prevFlits = flits;
            }
            const double ms = static_cast<double>(nowNs() - c0) * 1e-6;
            chunkMs.push_back(ms);
            advanceS += ms * 1e-3;
            done += n;
            probeMs.push_back(probeAfter(probe, tr, p));
        }
    };

    runCycles(cfg.warmupCycles);
    {
        Scope s(tr, "Network::resetStats", p);
        net->resetStats();
    }
    prevFlits = 0;
    totalInjected += injected;
    totalPopped += popped;
    attempts = refused = injected = popped = 0;
    injectNs = tickNs = popNs = 0;
    runCycles(cfg.simCycles);
    totalInjected += injected;
    totalPopped += popped;

    // Snapshot the measured window before the drain adds to it.
    const std::int64_t t0 = nowNs();
    const NetworkStats st = net->stats();
    const std::uint64_t links = net->totalLinkTraversals();
    const std::uint64_t switches = net->totalSwitchTraversals();
    const std::uint64_t bufWrites = net->totalBufferWrites();
    const std::uint64_t measuredPops = popped;
    const double reportS = secondsSince(t0);

    // Drain to quiescence: every injected packet must come out.
    bool ok = true;
    Cycle drainCycles = 0;
    {
        Scope s(tr, "drain", p);
        while (totalPopped + (popped - measuredPops) < totalInjected) {
            if (++drainCycles > 1000000) {
                ok = false;
                break;
            }
            net->tick(now++);
            popAll();
        }
        totalPopped += popped - measuredPops;
        ok = ok && totalPopped == totalInjected && net->quiescent() &&
             net->flitsInFlight() == 0;
    }
    {
        Scope s(tr, "Network::checkAllInvariants", p);
        net->checkAllInvariants();  // panics (aborts) on a violation
    }

    Hasher h;
    h.add("packetsInjected", static_cast<double>(st.packetsInjected.value()));
    h.add("packetsDelivered",
          static_cast<double>(st.packetsDelivered.value()));
    h.add("flitsDelivered", static_cast<double>(st.flitsDelivered.value()));
    h.add("packetLatency.sum", st.packetLatency.sum());
    h.add("packetLatency.count",
          static_cast<double>(st.packetLatency.count()));
    h.add("warmupStraddlers",
          static_cast<double>(st.warmupStraddlers.value()));
    for (int vn = 0; vn < numVnets; ++vn) {
        const std::string v = vnetName(static_cast<VirtualNet>(vn));
        h.add(v + ".packetsInjected",
              static_cast<double>(st.vnPacketsInjected[vn].value()));
        h.add(v + ".flitsDelivered",
              static_cast<double>(st.vnFlitsDelivered[vn].value()));
        h.add(v + ".injectionStalls",
              static_cast<double>(st.vnInjectionStalls[vn].value()));
        h.add(v + ".peakFlits", static_cast<double>(st.vnPeakFlits[vn]));
    }
    h.add("linkTraversals", static_cast<double>(links));
    h.add("switchTraversals", static_cast<double>(switches));
    h.add("bufferWrites", static_cast<double>(bufWrites));
    h.add("attempts", static_cast<double>(attempts));
    h.add("refused", static_cast<double>(refused));
    h.add("drainCycles", static_cast<double>(drainCycles));
    h.add("totalInjected", static_cast<double>(totalInjected));

    rep.json.list("setups_s", setupS)
        .num("advance_s", advanceS)
        .num("report_s", reportS)
        .num("cycles", static_cast<double>(cfg.warmupCycles +
                                           cfg.simCycles))
        .list("chunks_ms", chunkMs)
        .list("probes_ms", probeMs)
        .str("hash", h.hex())
        .boolean("ok", ok)
        .num("packet_latency_cycles", st.packetLatency.mean())
        .num("inject_refused_ratio",
             ratio(static_cast<double>(refused),
                   static_cast<double>(attempts)))
        .num("drain_cycles", static_cast<double>(drainCycles));

    if (tr) {
        const double cyc = static_cast<double>(cfg.simCycles);
        JsonObject &o = rep.layers;
        o.num("noc.tick_ns_per_cycle", ratio(static_cast<double>(tickNs), cyc))
            .num("noc.inject_ns_per_packet",
                 ratio(static_cast<double>(injectNs),
                       static_cast<double>(injected)))
            .num("noc.eject_ns_per_packet",
                 ratio(static_cast<double>(popNs),
                       static_cast<double>(measuredPops)))
            .num("noc.host_ns_per_flit_hop",
                 ratio(static_cast<double>(tickNs),
                       static_cast<double>(links)))
            .num("noc.inject_refused_ratio",
                 ratio(static_cast<double>(refused),
                       static_cast<double>(attempts)))
            .num("noc.link_traversals", static_cast<double>(links))
            .num("noc.switch_traversals", static_cast<double>(switches))
            .num("noc.buffer_writes", static_cast<double>(bufWrites))
            .num("noc.packet_latency", st.packetLatency.mean());
        for (int vn = 0; vn < numVnets; ++vn)
            o.num(std::string("noc.injection_stalls.") +
                      vnetName(static_cast<VirtualNet>(vn)),
                  static_cast<double>(st.vnInjectionStalls[vn].value()));
    }
    {
        Scope s(tr, "~Network", p);
        net.reset();
        topo.reset();
    }
    return rep;
}

Rep
runRep(const Workload &w, const SystemConfig &cfg, HostProbe *probe,
       Tracer *tr)
{
    return w.kind == "noc" ? nocRep(w, cfg, probe, tr)
                           : heteroRep(w, cfg, probe, tr);
}

/**
 * Peak resident set of this program. VmHWM belongs to the address space
 * exec() created; getrusage's ru_maxrss survives exec() and can report
 * the peak of the forking parent instead.
 */
double
peakRssMb()
{
    std::ifstream in("/proc/self/status");
    std::string line;
    while (std::getline(in, line)) {
        if (line.rfind("VmHWM:", 0) == 0)
            return std::strtod(line.c_str() + 6, nullptr) / 1024.0;
    }
    return 0.0;
}

int
affinityCores()
{
    cpu_set_t set;
    CPU_ZERO(&set);
    if (sched_getaffinity(0, sizeof set, &set) != 0)
        return 0;
    return CPU_COUNT(&set);
}

} // namespace

int
main(int argc, char **argv)
{
    std::string configPath, traceOut, horizon = "full";
    long long seed = -1, goldenSeed = 0, minReps = 3;
    double seconds = -1.0;
    int trace = 0;
    for (int i = 1; i < argc; ++i) {
        const std::string a = argv[i];
        if (i + 1 >= argc)
            usage("missing value for " + a);
        const std::string v = argv[++i];
        if (a == "--config") configPath = v;
        else if (a == "--seed") seed = toInt("seed", v);
        else if (a == "--seconds") seconds = std::strtod(v.c_str(), nullptr);
        else if (a == "--trace") trace = static_cast<int>(toInt("trace", v));
        else if (a == "--horizon") horizon = v;
        else if (a == "--golden-seed") goldenSeed = toInt("golden-seed", v);
        else if (a == "--min-reps") minReps = toInt("min-reps", v);
        else if (a == "--trace-out") traceOut = v;
        else usage("unknown argument " + a);
    }
    if (configPath.empty() || seed < 0 || seconds < 0.0 ||
        (trace != 0 && trace != 1) || minReps < 1 ||
        (horizon != "full" && horizon != "tiny"))
        usage("bad arguments");

    // A checked or unoptimized build is a different program: refuse.
    const std::string buildType = DRBENCH_BUILD_TYPE;
#ifdef NDEBUG
    const bool ndebug = true;
#else
    const bool ndebug = false;
#endif
    if (checkedBuild() || buildType != "Release" || !ndebug) {
        std::cerr << "drbench: refusing to report from a '" << buildType
                  << "'" << (checkedBuild() ? " DR_CHECKED" : "")
                  << " build; configure with CMAKE_BUILD_TYPE=Release\n";
        return 3;
    }

    Workload w = loadWorkload(configPath);
    SystemConfig cfg = w.cfg;
    if (horizon == "tiny") {
        cfg.warmupCycles = w.tinyWarmup;
        cfg.simCycles = w.tinyCycles;
    }
    cfg.seed = static_cast<std::uint64_t>(seed);

    double load1 = 0.0;
    getloadavg(&load1, 1);
    emit(JsonObject()
             .str("type", "host")
             .num("affinity_cores", affinityCores())
             .num("loadavg_1min", load1)
             .str("compiler", __VERSION__)
             .str("build_type", buildType)
             .boolean("dr_checked", checkedBuild()));
    std::ostringstream cfgText;
    writeConfig(cfg, cfgText);
    emit(JsonObject().str("type", "config").str("text", cfgText.str()));

    if (goldenSeed > 0) {
        SystemConfig g = cfg;
        g.seed = static_cast<std::uint64_t>(goldenSeed);
        Rep rep = runRep(w, g, nullptr, nullptr);
        emit(rep.json.str("type", "golden"));
    }

    // An untimed first repetition pays the page faults and cache misses
    // of a fresh process, and sets the peak resident set before the
    // probe's tree exists.
    Rep warm = runRep(w, cfg, nullptr, nullptr);
    emit(warm.json.str("type", "rep").str("mode", "warm"));
    const double peakRss = peakRssMb();
    HostProbe probe;

    Tracer tracer;
    const Mode cycle[] = {Mode::Traced, Mode::Untraced, Mode::Threads2};
    const std::int64_t start = nowNs();
    for (long long i = 0; i < minReps || secondsSince(start) < seconds;
         ++i) {
        const Mode mode = trace ? cycle[i % 3] : Mode::Timed;
        SystemConfig c = cfg;
        if (mode == Mode::Threads2)
            c.noc.threads = 2;
        tracer.run = static_cast<int>(i);
        Rep rep =
            runRep(w, c, &probe, mode == Mode::Traced ? &tracer : nullptr);
        rep.json.str("type", "rep").str("mode", modeName(mode));
        if (mode == Mode::Traced)
            rep.json.raw("layers", rep.layers.text());
        emit(rep.json);
    }

    if (trace && !traceOut.empty())
        tracer.write(traceOut);

    emit(JsonObject().str("type", "end").num("peak_rss_mb", peakRss));
    return 0;
}
