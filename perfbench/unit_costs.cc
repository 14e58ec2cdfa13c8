/**
 * @file
 * Isolated per-unit host costs of public library functions, timed at
 * the sizes the workloads use: AES-GCM over one 16 KiB TLS record,
 * CRC32C over one 64 KiB data PDU, content generation plus
 * regenerate-and-compare over one 64 KiB message, and the schedule
 * and dispatch of one simulator event. Each is the median of several
 * timed batches, so one preempted batch does not move it.
 */

#include <algorithm>
#include <functional>

#include "bench.hh"
#include "crypto/crc32c.hh"
#include "crypto/gcm.hh"

namespace perfbench {

using namespace anic;

namespace {

/** Median ns per call of @p fn over @p batches batches of @p reps. */
template <typename Fn>
double
timePerCall(Fn fn, int reps, int batches = 7)
{
    std::vector<double> per;
    for (int b = 0; b < batches; b++) {
        auto t0 = std::chrono::steady_clock::now();
        for (int i = 0; i < reps; i++)
            fn();
        std::chrono::duration<double, std::nano> dt =
            std::chrono::steady_clock::now() - t0;
        per.push_back(dt.count() / reps);
    }
    std::sort(per.begin(), per.end());
    return per[per.size() / 2];
}

} // namespace

UnitCosts
measureUnitCosts()
{
    UnitCosts u;
    volatile uint64_t sink = 0;

    {
        constexpr size_t kRecord = 16 << 10;
        Bytes key(16), iv(12), aad(13), in(kRecord), out(kRecord);
        fillDeterministic(key, 1, 0);
        fillDeterministic(iv, 2, 0);
        fillDeterministic(in, 3, 0);
        crypto::AesGcm gcm(key);
        uint8_t tag[16];
        double ns = timePerCall(
            [&] {
                gcm.start(iv, aad);
                gcm.encryptUpdate(in, out);
                gcm.finishTag(ByteSpan(tag, 16));
                sink = sink + tag[0];
            },
            64);
        u.gcmNsPerKib = ns / (kRecord / 1024.0);
    }
    {
        constexpr size_t kPdu = 64 << 10;
        Bytes in(kPdu);
        fillDeterministic(in, 4, 0);
        double ns = timePerCall(
            [&] { sink = sink + crypto::Crc32c::compute(in); }, 64);
        u.crcNsPerKib = ns / (kPdu / 1024.0);
    }
    {
        constexpr size_t kMsg = 64 << 10;
        Bytes msg(kMsg);
        uint64_t off = 0, verified = 0;
        double ns = timePerCall(
            [&] {
                fillDeterministic(msg, 5, off);
                sink = sink + verifyContent(msg, 5, off, verified);
                off += kMsg;
            },
            32);
        u.payloadNsPerKib = ns / (kMsg / 1024.0);
    }
    {
        // Steady state: a backlog of pending events, each of which
        // schedules its successor a short, varying delay ahead.
        constexpr int kBacklog = 1024;
        constexpr uint64_t kEvents = 200000;
        sim::Simulator s;
        uint64_t fired = 0;
        std::function<void()> tick = [&] {
            if (++fired < kEvents)
                s.schedule(static_cast<Tick>(1 + fired % 97) * sim::kNanosecond,
                           [&] { tick(); });
        };
        double ns = timePerCall(
            [&] {
                fired = 0;
                for (int i = 0; i < kBacklog; i++)
                    s.schedule(static_cast<Tick>(i) * sim::kNanosecond,
                               [&] { tick(); });
                s.run();
            },
            1);
        sink = sink + fired;
        u.eventNs = ns / static_cast<double>(fired);
    }
    return u;
}

} // namespace perfbench
