/**
 * @file
 * Shared pieces of the repository benchmark: the two-node world every
 * workload runs on, the per-round result, registry snapshots, the
 * benchmark-side spans and the content oracle.
 *
 * A workload runs in rounds. Each round builds a fresh world at the
 * run's seed, brings its connections up (the set-up phase), runs a
 * fixed amount of simulated work (the measured phase), checks every
 * output and tears the world down. Simulated results are a pure
 * function of the seed, so every round of one run must agree on them.
 */

#ifndef ANIC_PERFBENCH_BENCH_HH
#define ANIC_PERFBENCH_BENCH_HH

#include <chrono>
#include <cstdint>
#include <ctime>
#include <map>
#include <string>
#include <vector>

#include "core/node.hh"
#include "host/storage.hh"
#include "net/link.hh"
#include "net/packet_pool.hh"
#include "sim/run_context.hh"

namespace perfbench {

using anic::sim::Tick;

// ------------------------------------------------------------ timing

/** CPU seconds consumed by the calling thread. */
inline double
threadCpuSeconds()
{
    timespec ts{};
    clock_gettime(CLOCK_THREAD_CPUTIME_ID, &ts);
    return static_cast<double>(ts.tv_sec) + 1e-9 * static_cast<double>(ts.tv_nsec);
}

/** Benchmark-side spans: host time spent inside calls the benchmark
 *  makes into one layer's public functions. Recorded only in the
 *  traced run; the untraced run pays one branch per span. */
enum class SpanId : int
{
    RunFor,        ///< sim::Simulator::runFor (the event loop and all below)
    Connect,       ///< tcp::TcpStack::connect
    TlsSend,       ///< tls::TlsSocket::send
    TlsRecv,       ///< tls::TlsSocket drain (readable/pop)
    StorageSubmit, ///< NVMe-TCP / iSCSI read and write submission
    Payload,       ///< content generation and verification
    Count,
};

const char *spanName(SpanId id);

struct SpanTotals
{
    double ns[static_cast<int>(SpanId::Count)] = {};
    uint64_t calls[static_cast<int>(SpanId::Count)] = {};
};

/** The process-wide span sink (the benchmark is single-threaded). */
struct Tracer
{
    static bool on;
    static SpanTotals totals;
};

class Span
{
  public:
    explicit Span(SpanId id) : id_(id)
    {
        if (Tracer::on)
            t0_ = std::chrono::steady_clock::now();
    }
    ~Span()
    {
        if (!Tracer::on)
            return;
        auto dt = std::chrono::steady_clock::now() - t0_;
        int i = static_cast<int>(id_);
        Tracer::totals.ns[i] += static_cast<double>(
            std::chrono::duration_cast<std::chrono::nanoseconds>(dt).count());
        Tracer::totals.calls[i]++;
    }
    Span(const Span &) = delete;
    Span &operator=(const Span &) = delete;

  private:
    SpanId id_;
    std::chrono::steady_clock::time_point t0_{};
};

// ---------------------------------------------------------- content

/** Mixes two 64-bit values into a well-spread seed. */
uint64_t mixSeed(uint64_t a, uint64_t b);

/**
 * Regenerates the content at (@p seed, @p offset) independently of
 * the transport that delivered @p data and compares byte for byte.
 * Counts the bytes into @p verified; returns false on a mismatch.
 */
bool verifyContent(anic::ByteView data, uint64_t seed, uint64_t offset,
                   uint64_t &verified);

// ------------------------------------------------------------ world

/** Registry values keyed by path; distributions give their sum. */
using Snapshot = std::map<std::string, double>;

Snapshot takeSnapshot(const anic::sim::StatsRegistry &reg);

/** Sum over every path that ends in "." + @p leaf (or equals it). */
double sumLeaf(const Snapshot &s, const std::string &leaf);

/** @p after - @p before, path by path. */
Snapshot diff(const Snapshot &after, const Snapshot &before);

struct WorldConfig
{
    uint64_t seed = 1;
    int genCores = 4;
    int srvCores = 1;
    anic::net::Impairments toSrv; ///< generator -> server direction
    anic::net::Impairments toGen; ///< server -> generator direction
    anic::nic::Nic::Config srvNic;
    anic::tcp::TcpConnection::Config srvTcp;
    anic::tcp::TcpConnection::Config genTcp;
};

/**
 * Two nodes back to back: the server is the device under test, the
 * generator drives load (and hosts the drive and storage targets).
 * Members are declared so that the pool outlives everything holding
 * packets, as in app::MacroWorld.
 */
struct World
{
    static constexpr anic::net::IpAddr kGenIp = anic::net::makeIp(10, 9, 0, 1);
    static constexpr anic::net::IpAddr kSrvIp = anic::net::makeIp(10, 9, 0, 2);

    World(anic::sim::RunContext &ctx, const WorldConfig &cfg);

    /** Link packets delivered in both directions. */
    uint64_t wirePackets() const;

    anic::net::PacketPool pool;
    anic::sim::Simulator sim;
    anic::net::Link link;
    anic::core::Node gen;
    anic::core::Node srv;
    anic::host::NvmeDrive drive;
    anic::host::FileStore files;
};

// ------------------------------------------------------------ round

/** What one round measured and found. */
struct Round
{
    // Host-side measurements (vary run to run).
    double setupCpuS = 0;      ///< mean over the round's set-ups
    double measuredCpuS = 0;
    double totalCpuS = 0;
    SpanTotals spans;

    // Simulated results (fixed by the seed).
    uint64_t ops = 0;          ///< operations attempted (messages, IOs, requests)
    uint64_t failedOps = 0;    ///< operations that did not complete correctly
    uint64_t payloadBytes = 0; ///< application payload verified
    Tick window = 0;           ///< simulated length of the measured window
    uint64_t wirePkts = 0;     ///< link packets delivered in the phase
    uint64_t droppedPkts = 0;  ///< link packets lost in the phase
    uint64_t events = 0;       ///< simulator events in the phase
    double srvCycles = 0;      ///< DUT busy cycles in the window
    int srvCores = 1;
    double srvGhz = 2.0;
    double linkGbps = 100.0;
    std::vector<double> latencyUs; ///< one sample per operation
    uint64_t setupConns = 0;       ///< connections brought up in set-up
    double heapBytesPerFlow = 0;   ///< tls-flows-zipf only

    // Per-layer counts over the measured phase (registry snapshot diff)
    // plus counts the benchmark keeps itself (set by each workload).
    Snapshot layer;
    /** Per-layer metrics a workload computes itself, by metric name. */
    Snapshot own;
    uint64_t gcmBytes = 0;     ///< bytes AES-GCM processed on the host
    uint64_t crcBytes = 0;     ///< bytes CRC32C processed on the host
    uint64_t genBytes = 0;     ///< content bytes generated
    uint64_t verifiedBytes = 0; ///< content bytes regenerated and compared
    uint64_t sendBytes = 0;    ///< plaintext through the TlsSend span
    uint64_t recvBytes = 0;    ///< plaintext through the TlsRecv span
    uint64_t submits = 0;      ///< storage submissions

    std::vector<std::string> errors; ///< failed output checks
};

/** Check helper: records @p what in @p r.errors unless @p ok. */
void expect(Round &r, bool ok, const std::string &what);

/** State recorded at the start and at the end of a measured phase. */
struct PhaseMarks
{
    Snapshot snap;
    std::vector<double> srvCycles;
    SpanTotals spans;
    uint64_t wire = 0;
    uint64_t dropped = 0;
    uint64_t events = 0;
    Tick now = 0;
};

PhaseMarks markPhase(World &w, anic::sim::RunContext &ctx);

/**
 * Schedules a snapshot of the DUT's per-core busy cycles into @p out
 * at @p windowEnd, so that cycles and payload are counted over the
 * same window even when the phase drains past it.
 */
void snapCyclesAt(World &w, Tick windowEnd, std::vector<double> &out);

/**
 * Fills the sim-side fields of @p r from two phase marks and the busy
 * cycles at the window's end (see snapCyclesAt), and checks the bounds
 * every workload must respect: verified payload rate at most the link
 * rate, DUT busy cycles at most cores x simulated time. Set
 * r.payloadBytes (payload completed inside the window) before calling.
 */
void closePhase(Round &r, World &w, const PhaseMarks &start,
                const PhaseMarks &end, Tick windowEnd,
                const std::vector<double> &windowCycles);

/**
 * One round of workload @p Bench, timed in host CPU seconds: builds
 * Bench(ctx, args..., round) on a fresh run context (trace ring on iff
 * @p traced), then runs its setup(), measure() and check(). The total
 * includes tearing the world down.
 *
 * A sub-millisecond set-up timed once is mostly cold-cache and
 * page-fault noise, so the round first builds and sets up
 * @p setups - 1 further worlds and discards them; r.setupCpuS is the
 * mean over all @p setups set-ups. The discarded ones' teardown is
 * not timed, and the total covers the measured round only.
 */
template <typename Bench, typename... Args>
Round
timeRound(bool traced, int setups, const Args &...args)
{
    Round r;
    anic::sim::RunConfig rc;
    rc.traceEnabled = traced;
    double setupSum = 0;
    for (int i = 1; i < setups; i++) {
        Round spare;
        anic::sim::RunContext ctx(rc);
        double c0 = threadCpuSeconds();
        Bench b(ctx, args..., spare);
        b.setup();
        setupSum += threadCpuSeconds() - c0;
        for (const std::string &e : spare.errors)
            expect(r, false, "repeated set-up: " + e);
    }
    double c0 = threadCpuSeconds();
    {
        anic::sim::RunContext ctx(rc);
        Bench b(ctx, args..., r);
        b.setup();
        r.setupCpuS = (setupSum + threadCpuSeconds() - c0) / setups;
        double c1 = threadCpuSeconds();
        b.measure();
        r.measuredCpuS = threadCpuSeconds() - c1;
        b.check();
    }
    r.totalCpuS = threadCpuSeconds() - c0;
    return r;
}

// -------------------------------------------------------- workloads

Round runTcpBulk(uint64_t seed, bool traced);
Round runTlsStreamLossy(uint64_t seed, bool traced);
Round runStorageRwLossy(uint64_t seed, bool traced);
Round runTlsFlowsZipf(uint64_t seed, bool traced);

// ------------------------------------------------------- unit costs

/** Isolated per-unit host costs of public library functions, timed
 *  at the sizes the workloads use. */
struct UnitCosts
{
    double gcmNsPerKib = 0;
    double crcNsPerKib = 0;
    double payloadNsPerKib = 0; ///< generate + regenerate-and-compare
    double eventNs = 0;         ///< schedule + dispatch of one event
};

UnitCosts measureUnitCosts();

} // namespace perfbench

#endif // ANIC_PERFBENCH_BENCH_HH
