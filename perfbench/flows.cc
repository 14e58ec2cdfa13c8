/**
 * @file
 * tls-flows-zipf: tens of thousands of request/response TLS flows,
 * several times the server NIC's context-cache capacity, with NIC tx
 * offload on every server connection (one NIC context per flow).
 *
 * The load is an open loop: requests arrive as a Poisson process at a
 * fixed offered rate, each to a flow drawn by Zipf popularity, whether
 * or not earlier requests have been answered (a flow pipelines them).
 * A request's latency runs from when it was due to the receipt of the
 * last byte of its response, so a stall also delays the requests
 * queued behind it. Churn closes idle flows' connections and opens new
 * ones at once, under a fresh port and content seed; mild loss makes
 * the server retransmit
 * from evicted contexts. Every response byte is regenerated from
 * (flow seed, response-stream offset) and compared.
 */

#include <malloc.h>

#include <cmath>
#include <deque>
#include <memory>

#include "bench.hh"
#include "tls/ktls.hh"
#include "util/rand.hh"

namespace perfbench {

using namespace anic;

namespace {

constexpr int kFlows = 20000;
constexpr size_t kCtxCache = 4096; ///< server NIC contexts (flows / 4.9)
constexpr int kListenPorts = 16;
constexpr uint16_t kBasePort = 8443;
constexpr uint64_t kTlsSecret = 0xf10f;
constexpr size_t kReqBytes = 16; ///< flow seed (8), response length (4), pad
constexpr double kOfferedPerSec = 800e3;
constexpr Tick kLoadWindow = 40 * sim::kMillisecond;
constexpr double kChurnPerSec = 0.2; ///< share of flows cycled per second
/** Zipf skew of flow popularity. At 0.8 the hottest flow carries 3% of
 *  the requests, so one retransmission timeout on it (about 10 ms of
 *  pipelined requests stalled) stays below 1% of the sample, and p99
 *  does not flip between seeds with and without such a timeout. */
constexpr double kZipfSkew = 0.8;
constexpr Tick kStagger = 200 * sim::kNanosecond;
constexpr Tick kReaperTick = 2 * sim::kMillisecond;
constexpr Tick kPoll = 1 * sim::kMillisecond;
constexpr Tick kSetupLimit = 2 * sim::kSecond;
constexpr Tick kRunLimit = 30 * sim::kSecond;

uint64_t
heapInUse()
{
    struct mallinfo2 mi = mallinfo2();
    return mi.uordblks + mi.hblkhd;
}

class FlowsBench
{
  public:
    FlowsBench(sim::RunContext &ctx, uint64_t seed, Round &r)
        : ctx_(ctx), seed_(seed), w_(ctx, worldConfig(seed)), r_(r),
          srvScope_(w_.srv.subScope("bench")), cliScope_(w_.gen.subScope("bench")),
          zipf_(kFlows, kZipfSkew, mixSeed(seed, 0x21bf)),
          arrivals_(mixSeed(seed, 0xa441)), churnRng_(mixSeed(seed, 0xc4c4))
    {
        srvTls_.txOffload = true;
        srvTls_.aggregate = &srvAgg_;
        cliTls_.aggregate = &cliAgg_;
        tls::linkTlsStats(srvScope_, "tls", srvAgg_);
        tls::linkTlsStats(cliScope_, "tls", cliAgg_);
        for (int i = 0; i < kFlows; i++)
            slots_.push_back(std::make_unique<Slot>());
        for (int p = 0; p < kListenPorts; p++) {
            w_.srv.stack().listen(static_cast<uint16_t>(kBasePort + p),
                                  w_.srv.tcpConfig(),
                                  [this](tcp::TcpConnection &c) { accept(c); });
        }
    }

    static WorldConfig
    worldConfig(uint64_t seed)
    {
        WorldConfig wc;
        wc.seed = seed;
        wc.srvCores = 4;
        wc.genCores = 8;
        wc.srvNic.ctxCacheCapacity = kCtxCache;
        wc.toGen.lossRate = 0.001;
        wc.toSrv.lossRate = 0.0005;
        // Small per-flow buffers, as bench_flowscale sizes them: at
        // this flow count the send rings dominate the heap.
        wc.srvTcp.sndBufSize = 8 << 10;
        wc.srvTcp.rcvBufSize = 8 << 10;
        wc.genTcp.sndBufSize = 2 << 10;
        wc.genTcp.rcvBufSize = 16 << 10;
        return wc;
    }

    /** Opens every flow (staggered) and waits until all are up. */
    void
    setup()
    {
        uint64_t heapBefore = heapInUse();
        for (size_t i = 0; i < slots_.size(); i++)
            w_.sim.schedule(static_cast<Tick>(i) * kStagger,
                            [this, i] { open(i); });
        runUntil([this] { return established_ == kFlows; },
                 w_.sim.now() + kSetupLimit);
        expect(r_, established_ == kFlows,
               "flows failed to connect: " + std::to_string(established_) +
                   " of " + std::to_string(kFlows));
        r_.setupConns = kFlows;
        r_.heapBytesPerFlow = static_cast<double>(heapInUse() - heapBefore) / kFlows;
    }

    void
    measure()
    {
        PhaseMarks start = markPhase(w_, ctx_);
        loadEnd_ = w_.sim.now() + kLoadWindow;
        std::vector<double> windowCycles;
        snapCyclesAt(w_, loadEnd_, windowCycles);
        scheduleArrival();
        reaperTick();
        runUntil([this] { return w_.sim.now() >= loadEnd_ && outstanding_ == 0; },
                 w_.sim.now() + kRunLimit);
        PhaseMarks end = markPhase(w_, ctx_);
        // The rate counts responses completed while the load ran; the
        // drain after it still completes and checks every request.
        r_.payloadBytes = respBytesInWindow_;
        closePhase(r_, w_, start, end, loadEnd_, windowCycles);
    }

    void
    check()
    {
        r_.ops = issued_;
        r_.failedOps = issued_ - completed_ + corrupt_;
        r_.latencyUs = std::move(latency_);
        expect(r_, issued_ > 0 && completed_ == issued_,
               "requests incomplete: " + std::to_string(completed_) + " of " +
                   std::to_string(issued_));
        expect(r_, corrupt_ == 0, "response payload mismatch");
        expect(r_, churns_ > 0, "no flow was churned");
        expect(r_, srvAgg_.tagFailures == 0 && cliAgg_.tagFailures == 0,
               "TLS tag failures on a wire that does not corrupt");
        uint64_t recs = cliAgg_.recordsRx;
        expect(r_, recs > 0 && cliAgg_.rxFullyOffloaded + cliAgg_.rxPartiallyOffloaded +
                                       cliAgg_.rxNotOffloaded == recs,
               "TLS records do not balance: full+partial+none != received");
        // The clients encrypt requests and decrypt responses in
        // software; the server NIC encrypts every response.
        r_.gcmBytes = cliAgg_.plaintextBytesRx + cliAgg_.plaintextBytesTx +
                      srvAgg_.plaintextBytesRx +
                      static_cast<uint64_t>(
                          sumLeaf(r_.layer, "engine.tls.bytesTransformed"));
    }

  private:
    enum class State : uint8_t
    {
        Connecting,
        Up,
    };

    struct Request
    {
        Tick due = 0;
        uint32_t len = 0;
    };

    struct Slot
    {
        State state = State::Connecting;
        tcp::TcpConnection *raw = nullptr;
        std::unique_ptr<tls::TlsSocket> tls;
        uint64_t generation = 0;
        uint64_t seed = 0;           ///< content seed of this connection
        std::deque<Request> pending; ///< due, response not yet complete
        size_t unsent = 0;           ///< tail of pending not yet written
        uint32_t gotFront = 0;       ///< bytes of pending.front() received
        uint64_t respOff = 0;        ///< response-stream bytes received
    };

    struct SrvConn
    {
        tcp::TcpConnection *raw = nullptr;
        std::unique_ptr<tls::TlsSocket> tls;
        Bytes req;             ///< partial request bytes
        uint64_t seed = 0;
        uint64_t owed = 0;     ///< response bytes not yet accepted by TLS
        uint64_t respOff = 0;  ///< response-stream bytes accepted
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

    // ------------------------------------------------- client side

    void
    open(size_t i)
    {
        Slot &s = *slots_[i];
        s.state = State::Connecting;
        s.generation++;
        s.seed = mixSeed(seed_, (static_cast<uint64_t>(i) << 20) + s.generation);
        s.respOff = 0;
        s.gotFront = 0;
        s.unsent = s.pending.size();
        tcp::TcpConnection *c;
        {
            Span span(SpanId::Connect);
            c = &w_.gen.stack().connect(
                World::kGenIp, World::kSrvIp,
                static_cast<uint16_t>(kBasePort + i % kListenPorts),
                w_.gen.tcpConfig());
        }
        s.raw = c;
        c->setOnConnected([this, i, c] {
            Slot &sl = *slots_[i];
            sl.tls = std::make_unique<tls::TlsSocket>(
                *c, tls::SessionKeys::derive(kTlsSecret, true), cliTls_);
            sl.tls->setOnReadable([this, i] { onResponse(i); });
            sl.tls->setOnWritable([this, i] { flushRequests(*slots_[i]); });
            sl.state = State::Up;
            established_++;
            flushRequests(sl);
        });
    }

    /** Writes every pending request the connection has not carried. */
    void
    flushRequests(Slot &s)
    {
        if (s.state != State::Up)
            return;
        while (s.unsent > 0) {
            const Request &q = s.pending[s.pending.size() - s.unsent];
            uint8_t req[kReqBytes] = {};
            putBe64(req, s.seed);
            putBe32(req + 8, q.len);
            Span span(SpanId::TlsSend);
            if (s.tls->sendSpace() < kReqBytes + 64)
                return; // resumes from the writable callback
            size_t acc = s.tls->send(ByteView(req, kReqBytes));
            ANIC_ASSERT(acc == kReqBytes, "request split across writes");
            r_.sendBytes += acc;
            s.unsent--;
        }
    }

    void
    onResponse(size_t i)
    {
        Slot &s = *slots_[i];
        while (s.tls != nullptr && s.tls->readable()) {
            tcp::RxSegment seg;
            {
                Span span(SpanId::TlsRecv);
                seg = s.tls->pop();
                r_.recvBytes += seg.data.size();
            }
            if (seg.streamOff != s.respOff ||
                !verifyContent(seg.data, s.seed, s.respOff, r_.verifiedBytes))
                corrupt_++;
            s.respOff += seg.data.size();
            size_t left = seg.data.size();
            while (left > 0 && !s.pending.empty()) {
                Request &q = s.pending.front();
                size_t n = std::min<size_t>(left, q.len - s.gotFront);
                s.gotFront += static_cast<uint32_t>(n);
                left -= n;
                if (s.gotFront == q.len) {
                    latency_.push_back(static_cast<double>(w_.sim.now() - q.due) /
                                       static_cast<double>(sim::kMicrosecond));
                    if (w_.sim.now() <= loadEnd_)
                        respBytesInWindow_ += q.len;
                    s.pending.pop_front();
                    s.gotFront = 0;
                    completed_++;
                    outstanding_--;
                }
            }
            if (left > 0)
                corrupt_++; // bytes nobody asked for
        }
    }

    /** The open-loop driver: one event per arrival, Poisson spaced. */
    void
    scheduleArrival()
    {
        double gapS = -std::log(1.0 - arrivals_.uniform()) / kOfferedPerSec;
        Tick at = w_.sim.now() + sim::secondsToTicks(gapS);
        if (at >= loadEnd_)
            return;
        w_.sim.scheduleAt(at, [this] {
            arrive();
            scheduleArrival();
        });
    }

    void
    arrive()
    {
        size_t i = zipf_.next();
        Slot &s = *slots_[i];
        Request q;
        q.due = w_.sim.now();
        q.len = static_cast<uint32_t>(256 + arrivals_.below(3841));
        s.pending.push_back(q);
        s.unsent++;
        issued_++;
        outstanding_++;
        flushRequests(s);

        churnCredit_ += kFlows * kChurnPerSec / kOfferedPerSec;
        while (churnCredit_ >= 1.0) {
            churnCredit_ -= 1.0;
            size_t ci = churnRng_.below(kFlows);
            Slot &c = *slots_[ci];
            if (c.state != State::Up || !c.pending.empty())
                continue; // only idle flows are cycled
            // The client closes the idle connection and reconnects at
            // once; the old one drains in the background.
            c.tls->setOnReadable([] {});
            c.tls->setOnWritable([] {});
            c.tls->close();
            retired_.push_back({c.raw, std::move(c.tls)});
            established_--;
            churns_++;
            open(ci);
        }
    }

    /** Destroys fully closed connections on both sides (the server's
     *  TLS socket releases its NIC context). */
    void
    reaperTick()
    {
        size_t kept = 0;
        for (Retired &old : retired_) {
            if (old.raw->state() == tcp::TcpConnection::State::Closed) {
                old.tls.reset();
                w_.gen.stack().destroy(*old.raw);
            } else {
                retired_[kept++] = std::move(old);
            }
        }
        retired_.resize(kept);

        kept = 0;
        for (size_t i : srvClosing_) {
            SrvConn &sc = *srvConns_[i];
            if (sc.raw->state() == tcp::TcpConnection::State::Closed) {
                sc.tls.reset();
                w_.srv.stack().destroy(*sc.raw);
                srvConns_[i].reset();
                srvFree_.push_back(i);
            } else {
                srvClosing_[kept++] = i;
            }
        }
        srvClosing_.resize(kept);
        if (w_.sim.now() < loadEnd_ || !retired_.empty() || !srvClosing_.empty())
            w_.sim.schedule(kReaperTick, [this] { reaperTick(); });
    }

    // ------------------------------------------------- server side

    void
    accept(tcp::TcpConnection &c)
    {
        size_t idx;
        if (!srvFree_.empty()) {
            idx = srvFree_.back();
            srvFree_.pop_back();
        } else {
            idx = srvConns_.size();
            srvConns_.emplace_back();
        }
        srvConns_[idx] = std::make_unique<SrvConn>();
        SrvConn &sc = *srvConns_[idx];
        sc.raw = &c;
        sc.tls = std::make_unique<tls::TlsSocket>(
            c, tls::SessionKeys::derive(kTlsSecret, false), srvTls_);
        sc.tls->enableOffload(w_.srv.device()); // one NIC context per flow
        sc.tls->setOnReadable([this, idx] { onRequest(idx); });
        sc.tls->setOnWritable([this, idx] { respond(idx); });
        sc.tls->setOnPeerClosed([this, idx] {
            srvConns_[idx]->tls->close();
            srvClosing_.push_back(idx);
        });
    }

    void
    onRequest(size_t idx)
    {
        SrvConn &sc = *srvConns_[idx];
        while (sc.tls->readable()) {
            tcp::RxSegment seg = sc.tls->pop();
            sc.req.insert(sc.req.end(), seg.data.begin(), seg.data.end());
        }
        size_t off = 0;
        for (; sc.req.size() - off >= kReqBytes; off += kReqBytes) {
            sc.seed = getBe64(sc.req.data() + off);
            sc.owed += getBe32(sc.req.data() + off + 8);
        }
        sc.req.erase(sc.req.begin(), sc.req.begin() + static_cast<long>(off));
        respond(idx);
    }

    /** Sends owed response bytes, generated at their stream offset. */
    void
    respond(size_t idx)
    {
        SrvConn &sc = *srvConns_[idx];
        while (sc.owed > 0) {
            size_t n = static_cast<size_t>(std::min<uint64_t>(sc.owed, 4096));
            sc.buf.resize(n);
            {
                Span span(SpanId::Payload);
                fillDeterministic(sc.buf, sc.seed, sc.respOff);
                r_.genBytes += n;
            }
            size_t acc = sc.tls->send(sc.buf);
            sc.owed -= acc;
            sc.respOff += acc;
            if (acc < n)
                return; // resumes from the writable callback
        }
    }

    sim::RunContext &ctx_;
    uint64_t seed_;
    World w_;
    Round &r_;
    sim::StatsScope srvScope_;
    sim::StatsScope cliScope_;
    ZipfGen zipf_;
    Rng arrivals_;
    Rng churnRng_;
    tls::TlsConfig srvTls_;
    tls::TlsConfig cliTls_;
    tls::TlsStats srvAgg_;
    tls::TlsStats cliAgg_;

    std::vector<std::unique_ptr<Slot>> slots_;
    struct Retired
    {
        tcp::TcpConnection *raw = nullptr;
        std::unique_ptr<tls::TlsSocket> tls;
    };
    std::vector<Retired> retired_; ///< churned client connections closing
    std::vector<std::unique_ptr<SrvConn>> srvConns_;
    std::vector<size_t> srvFree_;
    std::vector<size_t> srvClosing_;

    int established_ = 0;
    Tick loadEnd_ = 0;
    double churnCredit_ = 0;
    uint64_t issued_ = 0;
    uint64_t completed_ = 0;
    uint64_t outstanding_ = 0;
    uint64_t corrupt_ = 0;
    uint64_t churns_ = 0;
    uint64_t respBytesInWindow_ = 0;
    std::vector<double> latency_;
};

} // namespace

Round
runTlsFlowsZipf(uint64_t seed, bool traced)
{
    // One set-up takes about half a second: timed once per round.
    return timeRound<FlowsBench>(traced, 1, seed);
}

} // namespace perfbench
