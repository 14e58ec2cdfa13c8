/**
 * @file
 * The repository benchmark's entry point.
 *
 *   perfbench --workload NAME --seed N --seconds S --trace 0|1
 *
 * Runs rounds of one workload on this one OS thread until S seconds
 * of wall time have passed (at least one round), checks every round's
 * outputs, and prints as its last line one JSON object:
 *
 *   {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}
 *
 * With --trace 0 the metrics are the end-to-end ones: host figures
 * are medians over the rounds, simulated figures come from the seed
 * alone and must agree across rounds. With --trace 1 rounds alternate
 * untraced and traced (trace ring and spans on); the metrics are the
 * per-layer ones, printed first as a table together with the spans,
 * the isolated unit costs and the tracing overhead. The traced run
 * also runs one round at seed + 1, which must simulate differently.
 *
 * Exit status: 0 when every check passed, 1 when an output check
 * failed (the JSON line says "correct": false), 2 on a usage error.
 */

#include <sys/resource.h>

#include <algorithm>
#include <cinttypes>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <functional>
#include <string>

#include "bench.hh"

using namespace perfbench;

namespace {

struct Workload
{
    const char *name;
    Round (*run)(uint64_t seed, bool traced);
};

constexpr Workload kWorkloads[] = {
    {"tcp-bulk", runTcpBulk},
    {"tls-stream-lossy", runTlsStreamLossy},
    {"storage-rw-lossy", runStorageRwLossy},
    {"tls-flows-zipf", runTlsFlowsZipf},
};

struct Args
{
    const Workload *workload = nullptr;
    uint64_t seed = 1;
    double seconds = 10;
    bool trace = false;
};

[[noreturn]] void
usage(const char *msg)
{
    std::fprintf(stderr, "perfbench: %s\n", msg);
    std::fprintf(stderr, "usage: perfbench --workload NAME --seed N "
                         "--seconds S --trace 0|1\nworkloads:");
    for (const Workload &w : kWorkloads)
        std::fprintf(stderr, " %s", w.name);
    std::fprintf(stderr, "\n");
    std::exit(2);
}

Args
parseArgs(int argc, char **argv)
{
    Args a;
    for (int i = 1; i < argc; i++) {
        std::string k = argv[i];
        if (i + 1 >= argc)
            usage(("missing value for " + k).c_str());
        const char *v = argv[++i];
        char *end = nullptr;
        if (k == "--workload") {
            for (const Workload &w : kWorkloads)
                if (std::strcmp(w.name, v) == 0)
                    a.workload = &w;
            if (a.workload == nullptr)
                usage((std::string("unknown workload ") + v).c_str());
        } else if (k == "--seed") {
            a.seed = std::strtoull(v, &end, 10);
            if (end == v || *end != '\0')
                usage("--seed takes an unsigned integer");
        } else if (k == "--seconds") {
            a.seconds = std::strtod(v, &end);
            if (end == v || *end != '\0' || !(a.seconds > 0) ||
                a.seconds > 3600)
                usage("--seconds takes a number in (0, 3600]");
        } else if (k == "--trace") {
            if (std::strcmp(v, "0") != 0 && std::strcmp(v, "1") != 0)
                usage("--trace takes 0 or 1");
            a.trace = v[0] == '1';
        } else {
            usage(("unknown option " + k).c_str());
        }
    }
    if (a.workload == nullptr)
        usage("--workload is required");
    return a;
}

double
wallSeconds()
{
    timespec ts{};
    clock_gettime(CLOCK_MONOTONIC, &ts);
    return static_cast<double>(ts.tv_sec) + 1e-9 * static_cast<double>(ts.tv_nsec);
}

double
median(std::vector<double> v)
{
    if (v.empty())
        return 0;
    std::sort(v.begin(), v.end());
    size_t n = v.size();
    return n % 2 == 1 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

/** Nearest-rank percentile of sorted @p v. */
double
percentile(const std::vector<double> &v, double p)
{
    size_t rank = static_cast<size_t>(std::ceil(p * static_cast<double>(v.size())));
    return v[std::max<size_t>(rank, 1) - 1];
}

double
ratio(double num, double den)
{
    return den > 0 ? num / den : 0.0;
}

/** Everything the seed fixes, as one comparable string: the check
 *  that rounds of one run (traced or not) simulate identically. */
std::string
fingerprint(const Round &r)
{
    std::string s;
    char buf[96];
    std::snprintf(buf, sizeof buf, "%" PRIu64 "/%" PRIu64 "/%" PRIu64 "/%" PRIu64
                  "/%" PRIu64 "/%" PRIu64 "/%.17g;",
                  r.ops, r.payloadBytes, r.window, r.wirePkts, r.droppedPkts,
                  r.events, r.srvCycles);
    s += buf;
    for (double l : r.latencyUs) {
        std::snprintf(buf, sizeof buf, "%.17g,", l);
        s += buf;
    }
    for (const Snapshot *m : {&r.layer, &r.own}) {
        for (const auto &[k, v] : *m) {
            std::snprintf(buf, sizeof buf, "=%.17g;", v);
            s += k + buf;
        }
    }
    return s;
}

struct Metric
{
    std::string name;
    const char *unit;
    double value;
};

const double kMiB = 1024.0 * 1024.0;

std::vector<Metric>
endToEnd(const std::vector<Round> &rounds, std::vector<std::string> &errors)
{
    std::vector<double> setup, cpu, pps;
    for (const Round &r : rounds) {
        setup.push_back(r.setupCpuS);
        cpu.push_back(r.totalCpuS);
        pps.push_back(ratio(static_cast<double>(r.wirePkts), r.measuredCpuS));
    }
    const Round &r0 = rounds.front();
    rusage ru{};
    getrusage(RUSAGE_SELF, &ru);

    std::vector<double> lat = r0.latencyUs;
    std::sort(lat.begin(), lat.end());
    double p50 = 0, p99 = 0;
    if (lat.empty()) {
        errors.push_back("no latency samples");
    } else {
        p50 = percentile(lat, 0.50);
        p99 = percentile(lat, 0.99);
        size_t beyond = static_cast<size_t>(
            lat.end() - std::upper_bound(lat.begin(), lat.end(), p99));
        if (beyond < 10)
            errors.push_back("fewer than ten latency samples beyond p99 (" +
                             std::to_string(beyond) + " of " +
                             std::to_string(lat.size()) + ")");
    }
    double windowS = anic::sim::ticksToSeconds(r0.window);
    return {
        {"setup_s", "s", median(setup)},
        {"cpu_s", "s", median(cpu)},
        {"pkts_per_cpu_s", "pkts/s", median(pps)},
        {"peak_rss_mib", "MiB", static_cast<double>(ru.ru_maxrss) / 1024.0},
        {"sim_gbps", "Gbit/s",
         ratio(static_cast<double>(r0.payloadBytes) * 8.0, windowS * 1e9)},
        {"srv_cycles_per_kib", "cycles/KiB",
         ratio(r0.srvCycles, static_cast<double>(r0.payloadBytes) / 1024.0)},
        {"p50_latency_us", "us", p50},
        {"p99_latency_us", "us", p99},
    };
}

/** Host time the event loop spent outside every nested span and
 *  outside the calibrated crypto kernels, per event. */
double
loopNsPerEvent(const Round &r, const UnitCosts &u)
{
    auto ns = [&r](SpanId id) { return r.spans.ns[static_cast<int>(id)]; };
    double self = ns(SpanId::RunFor) - ns(SpanId::TlsSend) -
                  ns(SpanId::TlsRecv) - ns(SpanId::StorageSubmit) -
                  ns(SpanId::Payload) -
                  u.gcmNsPerKib * static_cast<double>(r.gcmBytes) / 1024.0 -
                  u.crcNsPerKib * static_cast<double>(r.crcBytes) / 1024.0;
    return ratio(std::max(self, 0.0), static_cast<double>(r.events));
}

std::vector<Metric>
perLayer(const std::vector<Round> &traced, const std::vector<Round> &untraced,
         const UnitCosts &u)
{
    const Round &r = traced.front();
    auto sum = [&r](const std::string &leaf) { return sumLeaf(r.layer, leaf); };
    auto srv = [&r](const std::string &leaf) {
        auto it = r.layer.find("srv.nic0." + leaf);
        return it == r.layer.end() ? 0.0 : it->second;
    };
    auto own = [&r](const char *name) {
        auto it = r.own.find(name);
        return it == r.own.end() ? 0.0 : it->second;
    };
    auto med = [&traced](const std::function<double(const Round &)> &f) {
        std::vector<double> v;
        for (const Round &t : traced)
            v.push_back(f(t));
        return median(v);
    };
    auto spanPer = [](const Round &t, SpanId id, double units) {
        return ratio(t.spans.ns[static_cast<int>(id)], units);
    };
    double pkts = static_cast<double>(r.wirePkts);
    double ops = static_cast<double>(r.ops);
    auto engineMib = [&sum](const std::string &kind) {
        return (sum("engine." + kind + ".bytesTransformed") +
                sum("engine." + kind + ".bytesChecked")) /
               kMiB;
    };
    std::vector<double> tcpu, ucpu;
    for (const Round &t : traced)
        tcpu.push_back(t.totalCpuS);
    for (const Round &t : untraced)
        ucpu.push_back(t.totalCpuS);

    return {
        {"sim.events_per_pkt", "events/pkt", ratio(static_cast<double>(r.events), pkts)},
        {"sim.loop_ns_per_event", "ns",
         med([&u](const Round &t) { return loopNsPerEvent(t, u); })},
        {"sim.event_ns", "ns", u.eventNs},
        {"net.wire_pkts", "count", pkts},
        {"net.pkts_dropped", "count", static_cast<double>(r.droppedPkts)},
        {"net.pool_misses_per_kpkt", "count/kpkt",
         ratio(sum("sim.alloc.poolMisses"), pkts / 1000.0)},
        {"nic.irqs_per_kpkt", "count/kpkt",
         ratio(srv("irqsFired"), (srv("pktsRx") + srv("pktsTx")) / 1000.0)},
        {"nic.offloaded_pkts", "count",
         sum("rxOffloadedPkts") + sum("txOffloadedPkts")},
        {"nic.fsm.resync_requests", "count", sum("fsm.resyncRequests")},
        {"nic.fsm.resync_confirmed", "count", sum("fsm.resyncConfirmed")},
        {"nic.fsm.searching_us", "us",
         (sum("fsm.dwellSearchingNs") + sum("fsm.dwellTrackingNs")) / 1000.0},
        {"nic.engine.tls.verified_mib", "MiB", engineMib("tls")},
        {"nic.engine.nvme.verified_mib", "MiB", engineMib("nvme")},
        {"nic.engine.iscsi.verified_mib", "MiB", engineMib("iscsi")},
        {"nic.engine.placed_mib", "MiB", sum("engine.bytesPlaced") / kMiB},
        {"nic.offload_mib", "MiB",
         (sum("engine.bytesTransformed") + sum("engine.bytesChecked")) / kMiB},
        {"nic.ctx_misses_per_kreq", "count/kreq",
         ratio(srv("ctxCacheMisses"), ops / 1000.0)},
        {"nic.pcie_ctx_bytes_per_req", "B",
         ratio(srv("pcie.ctxFetchBytes") + srv("pcie.ctxWritebackBytes") +
                   srv("pcie.ctxRecoveryBytes"),
               ops)},
        {"tcp.retransmits", "count", sum("tcp.retransmits")},
        {"tcp.ooo_pkts", "count", sum("tcp.oooPktsRcvd")},
        {"tcp.conn_setup_us", "us",
         med([](const Round &t) {
             return ratio(t.setupCpuS * 1e6, static_cast<double>(t.setupConns));
         })},
        {"tls.records_full", "count", sum("tls.rxFullyOffloaded")},
        {"tls.records_partial", "count", sum("tls.rxPartiallyOffloaded")},
        {"tls.records_none", "count", sum("tls.rxNotOffloaded")},
        {"tls.send_ns_per_kib", "ns/KiB",
         med([&spanPer](const Round &t) {
             return spanPer(t, SpanId::TlsSend, static_cast<double>(t.sendBytes) / 1024.0);
         })},
        {"tls.recv_ns_per_kib", "ns/KiB",
         med([&spanPer](const Round &t) {
             return spanPer(t, SpanId::TlsRecv, static_cast<double>(t.recvBytes) / 1024.0);
         })},
        {"crypto.gcm_ns_per_kib", "ns/KiB", u.gcmNsPerKib},
        {"crypto.crc32c_ns_per_kib", "ns/KiB", u.crcNsPerKib},
        {"crypto.gcm_mib", "MiB", static_cast<double>(r.gcmBytes) / kMiB},
        {"crypto.crc32c_mib", "MiB", static_cast<double>(r.crcBytes) / kMiB},
        {"nvme.digest_offloaded", "count", own("nvme.digest_offloaded")},
        {"nvme.digest_software", "count", own("nvme.digest_software")},
        {"iscsi.digest_offloaded", "count", own("iscsi.digest_offloaded")},
        {"iscsi.digest_software", "count", own("iscsi.digest_software")},
        {"nvme.bytes_copied", "B", own("nvme.bytes_copied")},
        {"iscsi.bytes_copied", "B", own("iscsi.bytes_copied")},
        {"nvme.r2t_grants", "count", own("nvme.r2t_grants")},
        {"storage.submit_ns_per_io", "ns",
         med([&spanPer](const Round &t) {
             return spanPer(t, SpanId::StorageSubmit, static_cast<double>(t.submits));
         })},
        {"host.srv_busy_cores", "cores",
         ratio(r.srvCycles, r.srvGhz * anic::sim::ticksToSeconds(r.window) * 1e9)},
        {"util.payload_ns_per_kib", "ns/KiB", u.payloadNsPerKib},
        {"util.payload_mib", "MiB",
         static_cast<double>(r.genBytes + r.verifiedBytes) / kMiB},
        {"util.heap_bytes_per_flow", "B", r.heapBytesPerFlow},
        {"trace.overhead_cpu_s", "s", median(tcpu) - median(ucpu)},
    };
}

void
printSpanTable(const std::vector<Round> &traced, const UnitCosts &u)
{
    std::printf("%-18s %12s %12s   (measured phase, median round)\n", "span",
                "ms", "calls");
    for (int i = 0; i < static_cast<int>(SpanId::Count); i++) {
        std::vector<double> ms;
        for (const Round &t : traced)
            ms.push_back(t.spans.ns[i] / 1e6);
        std::printf("%-18s %12.3f %12" PRIu64 "\n",
                    spanName(static_cast<SpanId>(i)), median(ms),
                    traced.front().spans.calls[i]);
    }
    std::printf("\nisolated unit costs: AES-GCM %.1f ns/KiB, CRC32C %.1f "
                "ns/KiB, payload gen+verify %.1f ns/KiB, event %.1f ns\n\n",
                u.gcmNsPerKib, u.crcNsPerKib, u.payloadNsPerKib, u.eventNs);
}

void
printJson(bool correct, uint64_t attempted, uint64_t failed,
          const std::vector<Metric> &metrics)
{
    std::string out = "{\"correct\": ";
    out += correct ? "true" : "false";
    out += ", \"attempted\": " + std::to_string(attempted);
    out += ", \"failed\": " + std::to_string(failed);
    out += ", \"metrics\": {";
    char buf[64];
    for (size_t i = 0; i < metrics.size(); i++) {
        std::snprintf(buf, sizeof buf, "%.17g", metrics[i].value);
        out += (i > 0 ? ", \"" : "\"") + metrics[i].name +
               "\": {\"value\": " + buf + ", \"unit\": \"" + metrics[i].unit +
               "\"}";
    }
    out += "}}";
    std::printf("%s\n", out.c_str());
    std::fflush(stdout);
}

/** Runs one round with the span sink reset and on iff @p traced. */
Round
runRound(const Workload &w, uint64_t seed, bool traced)
{
    Tracer::on = traced;
    Tracer::totals = SpanTotals{};
    Round r = w.run(seed, traced);
    Tracer::on = false;
    return r;
}

} // namespace

int
main(int argc, char **argv)
{
    Args a = parseArgs(argc, argv);
    const Workload &w = *a.workload;
    double deadline = wallSeconds() + a.seconds;

    UnitCosts units;
    if (a.trace)
        units = measureUnitCosts();

    // Untraced rounds give the end-to-end figures; in the traced run
    // they pair with traced rounds to measure the tracing overhead.
    std::vector<Round> untraced, traced;
    do {
        untraced.push_back(runRound(w, a.seed, false));
        if (a.trace)
            traced.push_back(runRound(w, a.seed, true));
    } while (wallSeconds() < deadline);

    std::vector<std::string> errors;
    uint64_t attempted = 0, failed = 0;
    std::string fp = fingerprint(untraced.front());
    auto account = [&](const Round &r, const char *what) {
        attempted += r.ops;
        failed += r.failedOps;
        for (const std::string &e : r.errors)
            errors.push_back(std::string(what) + ": " + e);
        if (fingerprint(r) != fp)
            errors.push_back(std::string(what) +
                             ": simulated results differ between rounds "
                             "at one seed");
    };
    for (const Round &r : untraced)
        account(r, "round");
    for (const Round &r : traced)
        account(r, "traced round");

    std::vector<Metric> metrics;
    if (a.trace) {
        // Another seed draws other inputs and, on the lossy workloads,
        // another loss pattern, so it must simulate differently. (Equal
        // drop counts alone can happen by chance.)
        Round other = runRound(w, a.seed + 1, false);
        attempted += other.ops;
        failed += other.failedOps;
        for (const std::string &e : other.errors)
            errors.push_back("seed+1 round: " + e);
        if (fingerprint(other) == fp)
            errors.push_back("a different seed simulated identically");

        printSpanTable(traced, units);
        metrics = perLayer(traced, untraced, units);
        std::printf("%-32s %16s  %s\n", "per-layer metric", "value", "unit");
        for (const Metric &m : metrics)
            std::printf("%-32s %16.4f  %s\n", m.name.c_str(), m.value, m.unit);
        std::printf("rounds: %zu untraced, %zu traced\n", untraced.size(),
                    traced.size());
    } else {
        metrics = endToEnd(untraced, errors);
        std::fprintf(stderr, "rounds: %zu\n", untraced.size());
    }

    for (const std::string &e : errors)
        std::fprintf(stderr, "perfbench: %s: CHECK FAILED: %s\n", w.name,
                     e.c_str());
    bool correct = errors.empty();
    printJson(correct, attempted, failed, metrics);
    return correct ? 0 : 1;
}
