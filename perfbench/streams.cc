/**
 * @file
 * The two bulk-stream workloads. Generator-side streams stay backlogged
 * for a fixed simulated window (a closed loop: each writes its next
 * 4-32 KiB application message as soon as the socket takes the last),
 * towards the server (the device under test), whose receiver
 * regenerates and compares every byte. A message's latency runs from
 * the application write of its first byte to the receipt of its last.
 *
 *  tcp-bulk          plain TCP, clean wire, no L5 offload: the event
 *                    queue, link, pool, NIC queues, TCP and payload
 *                    generation carry all host work.
 *  tls-stream-lossy  kTLS with NIC tx offload at the sender and rx
 *                    offload at the receiver, one saturated server
 *                    core, loss and reordering on the wire (the
 *                    regime of the paper's Figures 16-18).
 */

#include <deque>
#include <memory>

#include "bench.hh"
#include "tls/ktls.hh"
#include "util/rand.hh"

namespace perfbench {

using namespace anic;

namespace {

constexpr uint16_t kBasePort = 5201;
constexpr uint64_t kTlsSecret = 0x7e57;
constexpr Tick kPoll = 1 * sim::kMillisecond;
constexpr Tick kSetupLimit = 200 * sim::kMillisecond;
constexpr int kSetups = 16; ///< set-ups per round, see timeRound

struct StreamSpec
{
    bool tls = false;
    int streams = 1;
    Tick window = 0; ///< simulated length of the measured phase
    WorldConfig world;

    StreamSpec()
    {
        // A small send buffer keeps a message's latency close to its
        // transfer time instead of the time it queues behind earlier
        // messages, and bounds how many messages one stall delays.
        world.genTcp.sndBufSize = 64 << 10;
    }
};

class StreamBench
{
  public:
    StreamBench(sim::RunContext &ctx, const StreamSpec &spec, uint64_t seed,
                Round &r)
        : ctx_(ctx), spec_(spec), w_(ctx, spec.world), r_(r),
          rxScope_(w_.srv.subScope("bench")), txScope_(w_.gen.subScope("bench"))
    {
        tls::linkTlsStats(rxScope_, "tls", rxAgg_);
        tls::linkTlsStats(txScope_, "tls", txAgg_);
        for (int i = 0; i < spec.streams; i++) {
            auto st = std::make_unique<Stream>();
            st->seed = mixSeed(seed, 1000 + i);
            st->sizes.reseed(mixSeed(seed, 2000 + i));
            streams_.push_back(std::move(st));
        }
    }

    /** Connects every stream; returns once all are up. */
    void
    setup()
    {
        for (size_t i = 0; i < streams_.size(); i++)
            listen(i);
        for (size_t i = 0; i < streams_.size(); i++)
            connect(i);
        runUntil([this] { return up_ == streams_.size() * 2; }, kSetupLimit);
        expect(r_, up_ == streams_.size() * 2, "streams failed to connect");
        r_.setupConns = streams_.size();
    }

    /** Streams for the fixed simulated window; the senders stop
     *  writing when it closes. */
    void
    measure()
    {
        PhaseMarks start = markPhase(w_, ctx_);
        for (auto &sp : streams_) {
            Stream *s = sp.get();
            s->tx->core().post([this, s] { pump(*s); });
        }
        Tick end = w_.sim.now() + spec_.window;
        std::vector<double> windowCycles;
        snapCyclesAt(w_, end, windowCycles);
        runUntil([this, end] { return w_.sim.now() >= end; }, end);
        stopped_ = true;
        PhaseMarks marks = markPhase(w_, ctx_);
        uint64_t bytes = 0;
        for (auto &s : streams_)
            bytes += s->received;
        r_.payloadBytes = bytes;
        closePhase(r_, w_, start, marks, end, windowCycles);
    }

    void
    check()
    {
        r_.ops = latency_.size();
        r_.failedOps = 0;
        for (auto &s : streams_) {
            expect(r_, s->received > 0, "a stream delivered nothing");
            expect(r_, s->corrupt == 0, "stream payload mismatch");
            r_.failedOps += s->corrupt;
        }
        r_.latencyUs = std::move(latency_);

        if (spec_.tls) {
            uint64_t recs = rxAgg_.recordsRx;
            uint64_t classified = rxAgg_.rxFullyOffloaded +
                                  rxAgg_.rxPartiallyOffloaded +
                                  rxAgg_.rxNotOffloaded;
            expect(r_, recs > 0 && classified == recs,
                   "TLS records do not balance: full+partial+none != received");
            expect(r_, rxAgg_.tagFailures == 0 && txAgg_.tagFailures == 0,
                   "TLS tag failures on a wire that does not corrupt");
            // Records the NIC did not fully decrypt are decrypted in
            // software; NIC encrypt/decrypt work is in the engine counts.
            uint64_t soft = recs > 0 ? rxAgg_.plaintextBytesRx *
                                           (recs - rxAgg_.rxFullyOffloaded) /
                                           recs
                                     : 0;
            r_.gcmBytes = soft + static_cast<uint64_t>(
                                     sumLeaf(r_.layer, "engine.tls.bytesTransformed"));
        }
    }

  private:
    struct Message
    {
        Tick start = 0;   ///< application write of its first byte
        uint64_t end = 0; ///< stream offset one past its last byte
    };

    struct Stream
    {
        uint64_t seed = 0; ///< content seed
        Rng sizes;         ///< message sizes
        std::unique_ptr<tls::TlsSocket> txTls;
        std::unique_ptr<tls::TlsSocket> rxTls;
        tcp::StreamSocket *tx = nullptr;
        tcp::StreamSocket *rx = nullptr;
        uint64_t sent = 0;
        uint64_t received = 0;
        uint64_t corrupt = 0;
        std::deque<Message> inFlight; ///< written, not yet fully received
        Bytes buf;
    };

    template <typename Done>
    void
    runUntil(Done done, Tick limit)
    {
        while (!done() && w_.sim.now() < limit) {
            Span span(SpanId::RunFor);
            w_.sim.runFor(kPoll);
        }
    }

    void
    listen(size_t i)
    {
        // One port per stream, so the accepting side knows which
        // stream (and content seed) a connection carries whatever
        // order the handshakes complete in.
        w_.srv.stack().listen(
            static_cast<uint16_t>(kBasePort + i), w_.srv.tcpConfig(),
            [this, i](tcp::TcpConnection &c) {
                Stream &s = *streams_[i];
                if (spec_.tls) {
                    tls::TlsConfig cfg;
                    cfg.rxOffload = true;
                    cfg.aggregate = &rxAgg_;
                    // Installed on the SYN so the NIC starts in sync
                    // with record 0.
                    s.rxTls = std::make_unique<tls::TlsSocket>(
                        c, tls::SessionKeys::derive(kTlsSecret, false), cfg);
                    s.rxTls->enableOffload(w_.srv.device());
                    s.rx = s.rxTls.get();
                } else {
                    s.rx = &c;
                }
                s.rx->setOnReadable([this, &s] { drain(s); });
                up_++;
            });
    }

    void
    connect(size_t i)
    {
        tcp::TcpConnection *c;
        {
            Span span(SpanId::Connect);
            c = &w_.gen.stack().connect(World::kGenIp, World::kSrvIp,
                                        static_cast<uint16_t>(kBasePort + i),
                                        w_.gen.tcpConfig());
        }
        c->setOnConnected([this, i, c] {
            Stream &s = *streams_[i];
            if (spec_.tls) {
                tls::TlsConfig cfg;
                cfg.txOffload = true;
                cfg.aggregate = &txAgg_;
                s.txTls = std::make_unique<tls::TlsSocket>(
                    *c, tls::SessionKeys::derive(kTlsSecret, true), cfg);
                s.txTls->enableOffload(w_.gen.device());
                s.tx = s.txTls.get();
            } else {
                s.tx = c;
            }
            Stream *sp = &s;
            s.tx->setOnWritable([this, sp] { pump(*sp); });
            up_++;
        });
    }

    /**
     * One application write per work item, re-posted while the socket
     * takes whole messages, so ack processing on the same core
     * interleaves (as app::IperfRun does). Messages are 4-32 KiB,
     * drawn from the stream's seed.
     */
    void
    pump(Stream &s)
    {
        if (stopped_)
            return;
        if (s.inFlight.empty() || s.inFlight.back().end == s.sent) {
            uint64_t len = (4u << 10) * (1 + s.sizes.below(8));
            s.inFlight.push_back({w_.sim.now(), s.sent + len});
        }
        size_t n = static_cast<size_t>(s.inFlight.back().end - s.sent);
        s.buf.resize(n);
        {
            Span span(SpanId::Payload);
            fillDeterministic(s.buf, s.seed, s.sent);
            r_.genBytes += n;
        }
        size_t acc;
        if (spec_.tls) {
            Span span(SpanId::TlsSend);
            acc = s.tx->send(s.buf);
            r_.sendBytes += acc;
        } else {
            acc = s.tx->send(s.buf);
            if (acc > 0) {
                // Plain TCP: charge the send syscall and user copy the
                // socket layer does not model (as app::IperfRun does).
                const host::CycleModel &m = s.tx->core().model();
                s.tx->core().charge(m.syscallCost + m.copyLlcPerByte * acc);
            }
        }
        s.sent += acc;
        if (acc == n) {
            Stream *sp = &s;
            s.tx->core().post([this, sp] { pump(*sp); });
        }
    }

    void
    drain(Stream &s)
    {
        while (s.rx->readable()) {
            tcp::RxSegment seg;
            if (spec_.tls) {
                Span span(SpanId::TlsRecv);
                seg = s.rx->pop();
                r_.recvBytes += seg.data.size();
            } else {
                seg = s.rx->pop();
            }
            if (stopped_)
                continue;
            if (seg.streamOff != s.received ||
                !verifyContent(seg.data, s.seed, seg.streamOff,
                               r_.verifiedBytes))
                s.corrupt++;
            s.received += seg.data.size();
            while (!s.inFlight.empty() && s.inFlight.front().end <= s.received) {
                latency_.push_back(
                    static_cast<double>(w_.sim.now() - s.inFlight.front().start) /
                    static_cast<double>(sim::kMicrosecond));
                s.inFlight.pop_front();
            }
        }
    }

    sim::RunContext &ctx_;
    StreamSpec spec_;
    World w_;
    Round &r_;
    sim::StatsScope rxScope_;
    sim::StatsScope txScope_;
    tls::TlsStats rxAgg_;
    tls::TlsStats txAgg_;
    std::vector<std::unique_ptr<Stream>> streams_;
    size_t up_ = 0;
    bool stopped_ = false;
    std::vector<double> latency_;
};

} // namespace

Round
runTcpBulk(uint64_t seed, bool traced)
{
    StreamSpec spec;
    spec.tls = false;
    spec.streams = 8;
    spec.window = 120 * sim::kMillisecond;
    spec.world.seed = seed;
    spec.world.genCores = 4;
    spec.world.srvCores = 1;
    return timeRound<StreamBench>(traced, kSetups, spec, seed);
}

Round
runTlsStreamLossy(uint64_t seed, bool traced)
{
    StreamSpec spec;
    spec.tls = true;
    spec.streams = 16;
    spec.window = 100 * sim::kMillisecond;
    spec.world.seed = seed;
    spec.world.genCores = 4;
    spec.world.srvCores = 1;
    spec.world.toSrv.lossRate = 0.005;
    spec.world.toSrv.reorderRate = 0.01;
    spec.world.toGen.lossRate = 0.002;
    return timeRound<StreamBench>(traced, kSetups, spec, seed);
}

} // namespace perfbench
