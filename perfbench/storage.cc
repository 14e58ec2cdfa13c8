/**
 * @file
 * storage-rw-lossy: NVMe-TCP and iSCSI sessions side by side on one
 * lossy link. The server (device under test) is the initiator of every
 * session; the targets and the drive sit on the generator. Digest
 * offload (rx and tx) and zero-copy placement are on at both ends.
 *
 * Each session is a closed loop at a fixed queue depth that submits
 * seed-drawn IOs for a fixed simulated window, then completes what is
 * outstanding: 60% reads, 40% writes, sizes 4-64 KiB inside the
 * session's own file extent. Every read is compared with the drive
 * content recomputed from (content seed, LBA offset).
 *
 * The drive keeps no written content (reads always return the content
 * of the seed), so reading a written range back would check nothing
 * of the write. Instead, on NVMe-TCP sessions half of the reads become
 * COMPAREs of a range the session wrote earlier: the host sends that
 * range's content down the same data-out path as a write (R2T credit,
 * H2CData, digest and placement offload) and the target matches the
 * payload it received against the drive, so a dropped, misplaced or
 * altered data-out byte fails the IO. iSCSI has no COMPARE; its writes
 * are checked by their data digests and by the target's count of
 * writes and bytes written. The rate counts the IOs completed inside
 * the window; the latency sample holds every IO.
 */

#include <memory>

#include "bench.hh"
#include "iscsi/session.hh"
#include "nvmetcp/host_queue.hh"
#include "nvmetcp/target.hh"
#include "util/rand.hh"

namespace perfbench {

using namespace anic;

namespace {

constexpr int kNvmeSessions = 4;
constexpr int kIscsiSessions = 4;
constexpr int kQueueDepth = 4;
constexpr Tick kWindow = 80 * sim::kMillisecond; ///< submissions stop after
constexpr uint64_t kExtentBytes = 64ull << 20;
constexpr uint16_t kNvmePort = 4420;
constexpr uint16_t kIscsiPort = 3260;
constexpr Tick kPoll = 1 * sim::kMillisecond;
constexpr Tick kSetupLimit = 200 * sim::kMillisecond;
constexpr int kSetups = 8; ///< set-ups per round, see timeRound
constexpr Tick kRunLimit = 30 * sim::kSecond;

struct Io
{
    bool write = false;
    bool compare = false; ///< NVMe COMPARE of an earlier write's range
    uint64_t slba = 0;
    uint32_t len = 0;
    Tick submitted = 0;
};

class StorageBench
{
  public:
    StorageBench(sim::RunContext &ctx, uint64_t seed, Round &r)
        : ctx_(ctx), w_(ctx, worldConfig(seed)), r_(r)
    {
        for (int i = 0; i < kNvmeSessions + kIscsiSessions; i++) {
            auto s = std::make_unique<Session>();
            s->nvme = i < kNvmeSessions;
            s->rng.reseed(mixSeed(seed, 0x5e55 + i));
            sessions_.push_back(std::move(s));
        }
    }

    static WorldConfig
    worldConfig(uint64_t seed)
    {
        WorldConfig wc;
        wc.seed = seed;
        wc.genCores = 4;
        wc.srvCores = 2;
        wc.toSrv.lossRate = 0.001;
        wc.toSrv.reorderRate = 0.005;
        wc.toGen.lossRate = 0.001;
        return wc;
    }

    void
    setup()
    {
        for (size_t i = 0; i < sessions_.size(); i++) {
            // One file extent per session: its IOs stay inside it.
            sessions_[i]->extent = w_.files.create(kExtentBytes).lba;
            listen(i);
            connect(i);
        }
        runUntil([this] { return up_ == sessions_.size() * 2; }, kSetupLimit);
        expect(r_, up_ == sessions_.size() * 2, "storage sessions failed to connect");
        r_.setupConns = sessions_.size();
    }

    void
    measure()
    {
        PhaseMarks start = markPhase(w_, ctx_);
        windowEnd_ = w_.sim.now() + kWindow;
        std::vector<double> windowCycles;
        snapCyclesAt(w_, windowEnd_, windowCycles);
        for (auto &s : sessions_)
            for (int k = 0; k < kQueueDepth; k++)
                submitNext(*s);
        // Submissions stop when the window closes; the IOs still
        // outstanding then must complete too, but only what completed
        // inside the window counts towards the rate.
        runUntil([this] { return w_.sim.now() >= windowEnd_ && done_ == issued_; },
                 w_.sim.now() + kRunLimit);
        PhaseMarks end = markPhase(w_, ctx_);
        r_.payloadBytes = bytesInWindow_;
        closePhase(r_, w_, start, end, windowEnd_, windowCycles);
    }

    void
    check()
    {
        uint64_t total = issued_;
        r_.ops = total;
        r_.failedOps = total - okIos_;
        r_.latencyUs = std::move(latency_);
        expect(r_, done_ == total,
               "IOs incomplete: " + std::to_string(done_) + " of " +
                   std::to_string(total));
        expect(r_, okIos_ == total, "IOs failed or returned wrong content");
        expect(r_, compares_ > 0, "no written range was compared");

        uint64_t nvOff = 0, nvSoft = 0, nvFail = 0, nvCopied = 0, r2t = 0;
        uint64_t isOff = 0, isSoft = 0, isFail = 0, isCopied = 0;
        uint64_t comparesServed = 0, mismatches = 0;
        bool desync = false, writesLost = false;
        for (auto &s : sessions_) {
            if (s->nvme) {
                const nvmetcp::NvmeHostStats &h = s->nvmeHost->stats();
                const nvmetcp::NvmeTargetStats &t = s->nvmeTarget->stats();
                comparesServed += t.comparesServed;
                mismatches += t.compareMismatches;
                writesLost |= t.writesServed != s->writesDone.size() ||
                              t.bytesWritten != s->writeBytes;
                nvOff += h.crcSkipped + t.h2cDigestSkipped;
                nvSoft += h.crcSoftware + t.h2cDigestSoftware;
                nvFail += h.crcFailures + t.digestFailures;
                nvCopied += h.bytesCopied + t.h2cBytesCopied;
                r2t += h.r2tPdusRx;
                desync |= s->nvmeHost->desynced() || s->nvmeTarget->desynced();
            } else {
                const iscsi::IscsiInitiatorStats &h = s->iscsiInit->stats();
                const iscsi::IscsiTargetStats &t = s->iscsiTarget->stats();
                writesLost |= t.writesServed != s->writesDone.size() ||
                              t.bytesWritten != s->writeBytes;
                isOff += h.digestSkipped + t.digestSkipped;
                isSoft += h.digestSoftware + t.digestSoftware;
                isFail += h.digestFailures + t.digestFailures;
                isCopied += h.bytesCopied + t.bytesCopied;
                desync |= s->iscsiInit->desynced() || s->iscsiTarget->desynced();
            }
        }
        expect(r_, nvFail == 0 && isFail == 0,
               "data digest failures on a wire that does not corrupt");
        expect(r_, !desync, "a storage session lost PDU framing");
        expect(r_, comparesServed == compares_ && mismatches == 0,
               "NVMe COMPARE of a written range did not match");
        expect(r_, !writesLost,
               "targets served other writes than the initiators completed");
        r_.own["nvme.digest_offloaded"] = static_cast<double>(nvOff);
        r_.own["nvme.digest_software"] = static_cast<double>(nvSoft);
        r_.own["iscsi.digest_offloaded"] = static_cast<double>(isOff);
        r_.own["iscsi.digest_software"] = static_cast<double>(isSoft);
        r_.own["nvme.bytes_copied"] = static_cast<double>(nvCopied);
        r_.own["iscsi.bytes_copied"] = static_cast<double>(isCopied);
        r_.own["nvme.r2t_grants"] = static_cast<double>(r2t);
        // CRC32C on the host: the NIC engines' digest work plus the
        // software-verified share of the payload.
        uint64_t digests = nvOff + nvSoft + isOff + isSoft;
        r_.crcBytes = static_cast<uint64_t>(
            sumLeaf(r_.layer, "engine.nvme.bytesChecked") +
            sumLeaf(r_.layer, "engine.iscsi.bytesChecked") +
            (digests > 0 ? static_cast<double>(bytesOk_) *
                               static_cast<double>(nvSoft + isSoft) /
                               static_cast<double>(digests)
                         : 0.0));
    }

  private:
    struct Session
    {
        bool nvme = true;
        Rng rng;
        uint64_t extent = 0;
        tcp::TcpConnection *conn = nullptr;
        std::unique_ptr<nvmetcp::NvmeTarget> nvmeTarget;
        std::unique_ptr<nvmetcp::NvmeHostQueue> nvmeHost;
        std::unique_ptr<iscsi::IscsiTarget> iscsiTarget;
        std::unique_ptr<iscsi::IscsiInitiator> iscsiInit;
        std::vector<Io> writesDone; ///< completed writes, for COMPAREs
        uint64_t writeBytes = 0;    ///< bytes of writesDone
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

    uint16_t
    port(size_t i) const
    {
        return static_cast<uint16_t>(
            sessions_[i]->nvme ? kNvmePort + i : kIscsiPort + i);
    }

    void
    listen(size_t i)
    {
        w_.gen.stack().listen(port(i), w_.gen.tcpConfig(),
                              [this, i](tcp::TcpConnection &c) {
            Session &s = *sessions_[i];
            if (s.nvme) {
                s.nvmeTarget = std::make_unique<nvmetcp::NvmeTarget>(
                    c, w_.drive, nvmetcp::WireConfig{});
                nvmetcp::NvmeOffloadConfig o;
                o.crcRx = o.copyRx = o.crcTx = true;
                s.nvmeTarget->enableOffload(w_.gen.device(), c, o);
            } else {
                s.iscsiTarget = std::make_unique<iscsi::IscsiTarget>(
                    c, w_.drive, iscsi::IscsiWireConfig{});
                iscsi::IscsiOffloadConfig o;
                o.crcRx = o.copyRx = o.crcTx = true;
                s.iscsiTarget->enableOffload(w_.gen.device(), c, o);
            }
            up_++;
        });
    }

    void
    connect(size_t i)
    {
        tcp::TcpConnection *c;
        {
            Span span(SpanId::Connect);
            c = &w_.srv.stack().connect(World::kSrvIp, World::kGenIp, port(i),
                                        w_.srv.tcpConfig());
        }
        sessions_[i]->conn = c;
        c->setOnConnected([this, i, c] {
            Session &s = *sessions_[i];
            if (s.nvme) {
                nvmetcp::NvmeOffloadConfig o;
                o.crcRx = o.copyRx = o.crcTx = true;
                s.nvmeHost = std::make_unique<nvmetcp::NvmeHostQueue>(
                    *c, nvmetcp::WireConfig{}, o);
                s.nvmeHost->enableOffload(w_.srv.device(), *c);
            } else {
                iscsi::IscsiOffloadConfig o;
                o.crcRx = o.copyRx = o.crcTx = true;
                s.iscsiInit = std::make_unique<iscsi::IscsiInitiator>(
                    *c, iscsi::IscsiWireConfig{}, o);
                s.iscsiInit->enableOffload(w_.srv.device(), *c);
            }
            up_++;
        });
    }

    /** Draws the session's next IO; the draw depends only on the
     *  session's seed and its (deterministic) completion history. */
    Io
    draw(Session &s)
    {
        Io io;
        io.write = s.rng.chance(0.4);
        io.len = static_cast<uint32_t>(4u << s.rng.below(5)) << 10;
        if (!io.write && s.nvme && !s.writesDone.empty() && s.rng.chance(0.5)) {
            const Io &wr = s.writesDone[s.rng.below(s.writesDone.size())];
            io.compare = true;
            io.slba = wr.slba;
            io.len = wr.len;
        } else {
            uint64_t blocks = (kExtentBytes - io.len) / 4096;
            io.slba = s.extent + 4096 * s.rng.below(blocks + 1);
        }
        return io;
    }

    void
    submitNext(Session &s)
    {
        if (w_.sim.now() >= windowEnd_)
            return;
        issued_++;
        Io io = draw(s);
        io.submitted = w_.sim.now();
        Session *sp = &s;
        uint64_t seed = w_.drive.config().contentSeed;
        Span span(SpanId::StorageSubmit);
        r_.submits++;
        if (io.write || io.compare) {
            auto done = [this, sp, io](bool ok) { complete(*sp, io, ok, nullptr); };
            if (io.compare)
                s.nvmeHost->compare(io.slba, io.len, seed, done);
            else if (s.nvme)
                s.nvmeHost->write(io.slba, io.len, seed, done);
            else
                s.iscsiInit->write(io.slba, io.len, seed, done);
        } else {
            auto done = [this, sp, io](bool ok, host::BlockBufferPtr buf) {
                complete(*sp, io, ok, buf.get());
            };
            if (s.nvme)
                s.nvmeHost->read(io.slba, io.len, done);
            else
                s.iscsiInit->read(io.slba, io.len, done);
        }
    }

    void
    complete(Session &s, const Io &io, bool ok, const host::BlockBuffer *buf)
    {
        if (ok && !io.write && !io.compare) {
            ok = buf != nullptr && buf->data.size() == io.len &&
                 verifyContent(buf->data, w_.drive.config().contentSeed,
                               io.slba, r_.verifiedBytes);
        }
        if (ok && (io.write || io.compare))
            r_.genBytes += io.len; // the initiator generated it
        if (ok && io.write) {
            s.writesDone.push_back(io);
            s.writeBytes += io.len;
        }
        compares_ += ok && io.compare;
        if (ok) {
            okIos_++;
            bytesOk_ += io.len;
            if (w_.sim.now() <= windowEnd_)
                bytesInWindow_ += io.len;
        }
        latency_.push_back(static_cast<double>(w_.sim.now() - io.submitted) /
                           static_cast<double>(sim::kMicrosecond));
        done_++;
        // The next submission runs as its own work item on the
        // session's core, outside the completing queue's call stack.
        Session *sp = &s;
        s.conn->core().post([this, sp] { submitNext(*sp); });
    }

    sim::RunContext &ctx_;
    World w_;
    Round &r_;
    std::vector<std::unique_ptr<Session>> sessions_;
    size_t up_ = 0;
    Tick windowEnd_ = 0;
    uint64_t issued_ = 0;
    uint64_t done_ = 0;
    uint64_t okIos_ = 0;
    uint64_t bytesInWindow_ = 0;
    uint64_t bytesOk_ = 0;
    uint64_t compares_ = 0; ///< COMPAREs completed with status 0
    std::vector<double> latency_;
};

} // namespace

Round
runStorageRwLossy(uint64_t seed, bool traced)
{
    return timeRound<StorageBench>(traced, kSetups, seed);
}

} // namespace perfbench
