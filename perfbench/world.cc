#include <cstring>
#include <type_traits>

#include "bench.hh"

namespace perfbench {

using namespace anic;

bool Tracer::on = false;
SpanTotals Tracer::totals;

const char *
spanName(SpanId id)
{
    switch (id) {
      case SpanId::RunFor:
        return "sim.runFor";
      case SpanId::Connect:
        return "tcp.connect";
      case SpanId::TlsSend:
        return "tls.send";
      case SpanId::TlsRecv:
        return "tls.recv";
      case SpanId::StorageSubmit:
        return "storage.submit";
      case SpanId::Payload:
        return "app.payload";
      case SpanId::Count:
        break;
    }
    return "?";
}

uint64_t
mixSeed(uint64_t a, uint64_t b)
{
    // splitmix64 finaliser over the pair.
    uint64_t z = a * 0x9e3779b97f4a7c15ull + b + 0x632be59bd9b4e019ull;
    z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ull;
    z = (z ^ (z >> 27)) * 0x94d049bb133111ebull;
    return z ^ (z >> 31);
}

bool
verifyContent(ByteView data, uint64_t seed, uint64_t offset,
              uint64_t &verified)
{
    Span span(SpanId::Payload);
    static thread_local Bytes expected;
    if (expected.size() < data.size())
        expected.resize(data.size());
    ByteSpan want(expected.data(), data.size());
    fillDeterministic(want, seed, offset);
    verified += data.size();
    return std::memcmp(want.data(), data.data(), data.size()) == 0;
}

Snapshot
takeSnapshot(const sim::StatsRegistry &reg)
{
    Snapshot s;
    reg.forEach([&s](const std::string &path, const sim::InstrumentRef &ref) {
        std::visit(
            [&](auto *inst) {
                using T = std::remove_cv_t<std::remove_pointer_t<decltype(inst)>>;
                if constexpr (std::is_same_v<T, sim::Distribution>) {
                    s[path] = inst->mean() * static_cast<double>(inst->count());
                } else if constexpr (std::is_same_v<T, sim::RateMeter>) {
                    s[path] = static_cast<double>(inst->total());
                } else {
                    s[path] = static_cast<double>(inst->value());
                }
            },
            ref);
    });
    return s;
}

double
sumLeaf(const Snapshot &s, const std::string &leaf)
{
    double total = 0;
    std::string dotted = "." + leaf;
    for (const auto &[path, v] : s) {
        if (path == leaf ||
            (path.size() > dotted.size() &&
             path.compare(path.size() - dotted.size(), dotted.size(),
                          dotted) == 0))
            total += v;
    }
    return total;
}

Snapshot
diff(const Snapshot &after, const Snapshot &before)
{
    Snapshot d;
    for (const auto &[path, v] : after) {
        auto it = before.find(path);
        d[path] = v - (it == before.end() ? 0.0 : it->second);
    }
    return d;
}

namespace {

net::Link::Config
linkConfig(const WorldConfig &c, net::PacketPool &pool)
{
    net::Link::Config l;
    l.dir[0] = c.toSrv; // port 0 (generator) -> port 1 (server)
    l.dir[1] = c.toGen;
    l.seed = mixSeed(c.seed, 0x11f);
    l.pool = &pool;
    return l;
}

core::Node::Config
nodeConfig(sim::RunContext &ctx, const char *name, int cores,
           const nic::Nic::Config &nicCfg,
           const tcp::TcpConnection::Config &tcpCfg, uint64_t stackSeed,
           net::PacketPool &pool)
{
    core::Node::Config n;
    n.name = name;
    n.cores = cores;
    n.nicCfg = nicCfg;
    // Pin every knob that would otherwise resolve from the environment.
    n.nicCfg.ctxPolicy = nic::CtxPolicy::Lru;
    n.tcpCfg = tcpCfg;
    n.tcpCfg.cc = tcp::CcAlgo::Reno;
    n.stackSeed = stackSeed;
    n.pool = &pool;
    n.bindRun(ctx);
    return n;
}

} // namespace

World::World(sim::RunContext &ctx, const WorldConfig &cfg)
    : link(sim, linkConfig(cfg, pool)),
      gen(sim, nodeConfig(ctx, "gen", cfg.genCores, nic::Nic::Config{},
                          cfg.genTcp, mixSeed(cfg.seed, 0x9e), pool)),
      srv(sim, nodeConfig(ctx, "srv", cfg.srvCores, cfg.srvNic, cfg.srvTcp,
                          mixSeed(cfg.seed, 0x5e), pool)),
      drive(sim, host::NvmeDrive::Config{}),
      files(drive.config().contentSeed)
{
    pool.linkStats(sim::StatsScope(ctx.registry(), "sim.alloc"));
    gen.attachPort(link, 0, kGenIp);
    srv.attachPort(link, 1, kSrvIp);
}

uint64_t
World::wirePackets() const
{
    return link.stats(0).delivered + link.stats(1).delivered;
}

void
expect(Round &r, bool ok, const std::string &what)
{
    if (!ok && r.errors.size() < 16)
        r.errors.push_back(what);
}

PhaseMarks
markPhase(World &w, sim::RunContext &ctx)
{
    PhaseMarks m;
    m.snap = takeSnapshot(ctx.registry());
    m.srvCycles = w.srv.cycleSnapshot();
    m.spans = Tracer::totals;
    m.wire = w.wirePackets();
    m.dropped = w.link.stats(0).dropped + w.link.stats(1).dropped;
    m.events = w.sim.eventsExecuted();
    m.now = w.sim.now();
    return m;
}

void
snapCyclesAt(World &w, Tick windowEnd, std::vector<double> &out)
{
    w.sim.scheduleAt(windowEnd, [&w, &out] { out = w.srv.cycleSnapshot(); });
}

void
closePhase(Round &r, World &w, const PhaseMarks &start, const PhaseMarks &end,
           Tick windowEnd, const std::vector<double> &windowCycles)
{
    r.window = windowEnd > start.now ? windowEnd - start.now : 0;
    r.wirePkts = end.wire - start.wire;
    r.droppedPkts = end.dropped - start.dropped;
    for (int i = 0; i < static_cast<int>(SpanId::Count); i++) {
        r.spans.ns[i] = end.spans.ns[i] - start.spans.ns[i];
        r.spans.calls[i] = end.spans.calls[i] - start.spans.calls[i];
    }
    r.events = end.events - start.events;
    expect(r, windowCycles.size() == start.srvCycles.size(),
           "no busy-cycle snapshot at the window's end");
    r.srvCycles = 0;
    for (size_t i = 0; i < windowCycles.size(); i++)
        r.srvCycles += windowCycles[i] - start.srvCycles[i];
    r.srvCores = w.srv.coreCount();
    r.srvGhz = w.srv.model().cpuGhz;
    r.linkGbps = w.srv.nicDev().config().gbps;
    r.layer = diff(end.snap, start.snap);

    // Properties the model must have whatever its inputs.
    expect(r, r.window > 0, "measured phase has zero simulated length");
    double gbps = r.window > 0 ? static_cast<double>(r.payloadBytes) * 8.0 /
                                     (sim::ticksToSeconds(r.window) * 1e9)
                               : 0.0;
    expect(r, gbps <= r.linkGbps,
           "verified payload rate exceeds the link rate");
    // A work item's cycles are charged when it starts, so the busy
    // total may run one item past the window; 50 us covers any item.
    double capacity = static_cast<double>(r.srvCores) * r.srvGhz *
                      (sim::ticksToSeconds(r.window) * 1e9 + 50e3);
    expect(r, r.srvCycles <= capacity,
           "DUT busy cycles exceed cores x simulated time");
}

} // namespace perfbench
