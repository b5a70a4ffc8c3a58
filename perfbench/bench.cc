/**
 * @file
 * tmemc benchmark program: one memslap-shaped workload per run, measured
 * end to end (untraced) or layer by layer (traced).
 *
 *   tmemc_perfbench --workload NAME --seed N --seconds S --trace 0|1
 *                   [--trace-file PATH]
 *
 * It reaches the program only through public entry points:
 * workload::formatKey, mc::makeShardedCache and CacheIface, net::Server
 * and net::Client, tm::Runtime::snapshot, the obs histograms, plus the
 * process's getrusage and /proc/self/io. It checks every outcome with
 * gen.h's checker and cross-checks its own counts against the
 * program's counters. The last line of stdout is the result object.
 */

#include <dirent.h>
#include <sched.h>
#include <sys/resource.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cmath>
#include <cinttypes>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "gen.h"
#include "mc/binary_protocol.h"
#include "mc/cache_iface.h"
#include "net/client.h"
#include "net/server.h"
#include "obs/metrics.h"
#include "tm/runtime.h"
#include "trace.h"
#include "workload/memslap.h"

using namespace tmemc;
using perfbench::KeyChecker;
using perfbench::SpanKind;
using perfbench::Tracer;
using perfbench::Verdict;

namespace
{

constexpr std::size_t kMiB = 1024 * 1024;
constexpr std::size_t kKeySize = 23;        // memslap default
constexpr std::size_t kSmallValue = 100;    // memslap default
constexpr std::size_t kMidValue = 700;
constexpr std::size_t kLargeValue = 3000;
constexpr std::size_t kSpansKept = 1 << 15;  // per thread
/** Ledger tolerance: wall time no child span covers (the loop's own
 *  bookkeeping between roots, thread start and join), as a share of
 *  the phase's wall time. */
constexpr double kLedgerTolerance = 0.05;

/** One workload's inputs; see README.md for why each exists. */
struct Workload
{
    const char *name;
    const char *branch;
    bool loopback;
    std::uint32_t threads;       //!< Load threads (= connections).
    std::uint32_t serverLoops;   //!< Event loops (loopback only).
    std::uint32_t window;        //!< Requests in flight per connection.
    std::uint32_t keysPerThread;
    double setFraction;
    double zipfTheta;            //!< 0 = uniform.
    std::size_t maxBytes;        //!< Cache memory limit.
    bool churnSizes;             //!< 100/700/3000 B values, else 100 B.
    bool fitsInMemory;           //!< No eviction may happen.
};

constexpr Workload kWorkloads[] = {
    {"loopback-tm", "IP-onCommit", true, 2, 2, 4, 20000, 0.1, 0.0,
     64 * kMiB, false, true},
    {"inproc-tm", "IP-onCommit", false, 2, 0, 1, 20000, 0.1, 0.0,
     64 * kMiB, false, true},
    {"inproc-lock", "Baseline", false, 2, 0, 1, 20000, 0.1, 0.0,
     64 * kMiB, false, true},
    {"churn-tm", "IP-onCommit", false, 2, 0, 1, 24000, 0.3, 0.99,
     16 * kMiB, true, false},
};

std::uint64_t
nowNs()
{
    return static_cast<std::uint64_t>(
        std::chrono::duration_cast<std::chrono::nanoseconds>(
            std::chrono::steady_clock::now().time_since_epoch())
            .count());
}

/** CPUs this process may run on, in order. */
std::vector<int>
allowedCpus()
{
    cpu_set_t set;
    CPU_ZERO(&set);
    std::vector<int> cpus;
    if (sched_getaffinity(0, sizeof set, &set) == 0) {
        for (int c = 0; c < CPU_SETSIZE; ++c) {
            if (CPU_ISSET(c, &set))
                cpus.push_back(c);
        }
    }
    return cpus;
}

/**
 * Load thread t (or connection t, and the event loop that serves it)
 * runs on the t-th allowed CPU. A client and its server loop sharing a
 * CPU hand each request over without a cross-CPU wakeup, whose latency
 * on a virtual machine varies from run to run; pinned in-process
 * threads do not migrate. Without a CPU per thread nothing is pinned.
 */
const std::vector<int> kCpus = allowedCpus();

void
pinTask(int tid, std::uint32_t t, std::uint32_t threads)
{
    if (kCpus.size() < threads)
        return;
    cpu_set_t set;
    CPU_ZERO(&set);
    CPU_SET(kCpus[t], &set);
    sched_setaffinity(tid, sizeof set, &set);
}

/** Thread ids of this process, ascending (= creation order). */
std::vector<int>
taskIds()
{
    std::vector<int> ids;
    if (DIR *d = opendir("/proc/self/task")) {
        while (dirent *e = readdir(d)) {
            if (e->d_name[0] != '.')
                ids.push_back(std::atoi(e->d_name));
        }
        closedir(d);
    }
    std::sort(ids.begin(), ids.end());
    return ids;
}

/** The workload's inputs, fixed by the seed. */
struct Inputs
{
    const Workload &w;
    std::uint64_t seed;
    std::vector<std::string> keys;  //!< [thread * keysPerThread + idx]

    Inputs(const Workload &wl, std::uint64_t s) : w(wl), seed(s)
    {
        keys.reserve(std::size_t{w.threads} * w.keysPerThread);
        char buf[kKeySize + 1];
        for (std::uint32_t t = 0; t < w.threads; ++t) {
            for (std::uint32_t i = 0; i < w.keysPerThread; ++i) {
                workload::formatKey(buf, kKeySize, t, i);
                keys.emplace_back(buf, kKeySize);
            }
        }
    }

    const std::string &
    key(std::uint32_t t, std::uint32_t idx) const
    {
        return keys[std::size_t{t} * w.keysPerThread + idx];
    }

    std::size_t
    valueLen(std::uint32_t key_id, std::uint32_t seq) const
    {
        if (!w.churnSizes)
            return kSmallValue;
        switch (perfbench::mix2(seed ^ key_id, seq) % 8) {
          case 0: return kLargeValue;
          case 1: return kMidValue;
          default: return kSmallValue;
        }
    }
};

/** First failed check of a thread or of the run. */
struct Failure
{
    std::uint64_t count = 0;
    std::string first;

    void
    note(const std::string &what)
    {
        if (count++ == 0)
            first = what;
    }

    void
    merge(const Failure &o)
    {
        if (count == 0 && o.count != 0)
            first = o.first;
        count += o.count;
    }
};

/** Everything one setup builds; destroyed clients, server, cache. */
struct Rig
{
    std::unique_ptr<mc::CacheIface> cache;
    std::unique_ptr<net::Server> server;
    std::vector<std::unique_ptr<net::Client>> clients;
    std::vector<KeyChecker> checkers;
    std::uint64_t requestsSent = 0;
    std::uint64_t preloadFailures = 0;
    /** Resident set before the program's part of the rig was built:
     *  the generator's inputs, checkers and phase records. */
    double baseRssKiB = 0;

    void
    teardown()
    {
        clients.clear();
        if (server)
            server->stop();
        server.reset();
        cache.reset();
    }
};

struct Usage
{
    double userUs = 0, sysUs = 0;
    double vcsw = 0, ivcsw = 0;
    double maxRssKiB = 0;
};

/** Current resident set size (VmRSS), KiB. */
double
vmRssKiB()
{
    std::ifstream f("/proc/self/status");
    std::string line;
    while (std::getline(f, line)) {
        if (line.rfind("VmRSS:", 0) == 0)
            return std::strtod(line.c_str() + 6, nullptr);
    }
    return 0.0;
}

Usage
usageNow()
{
    rusage ru{};
    getrusage(RUSAGE_SELF, &ru);
    Usage u;
    u.userUs = double(ru.ru_utime.tv_sec) * 1e6 + double(ru.ru_utime.tv_usec);
    u.sysUs = double(ru.ru_stime.tv_sec) * 1e6 + double(ru.ru_stime.tv_usec);
    u.vcsw = double(ru.ru_nvcsw);
    u.ivcsw = double(ru.ru_nivcsw);
    u.maxRssKiB = double(ru.ru_maxrss);
    return u;
}

/**
 * A measured phase is cut into equal windows; each end-to-end figure is
 * the median over the windows, so one disturbed second moves it less.
 */
constexpr unsigned kWindows = 20;

struct PhaseClock
{
    std::uint64_t start = 0;
    std::uint64_t windowNs = 0;

    std::uint64_t deadline() const { return start + kWindows * windowNs; }

    unsigned
    window(std::uint64_t t) const
    {
        const std::uint64_t w = (t - start) / windowNs;
        return w < kWindows ? static_cast<unsigned>(w) : kWindows - 1;
    }
};

struct Window
{
    std::uint64_t ops = 0;
    obs::HistCounts get, set;

    void
    merge(const Window &o)
    {
        ops += o.ops;
        get.add(o.get);
        set.add(o.set);
    }
};

/** One thread's (or connection's) share of a measured phase. */
struct ThreadOut
{
    std::uint64_t ops = 0, gets = 0, sets = 0, hits = 0;
    std::uint64_t setAcks = 0;
    std::uint64_t failures = 0;  //!< Stores refused, requests lost.
    std::uint64_t sent = 0;      //!< Loopback requests sent.
    std::uint64_t tEnd = 0;
    std::vector<Window> win = std::vector<Window>(kWindows);
    Failure bad;
    std::unique_ptr<Tracer> tracer;
};

struct PhaseOut
{
    double wallS = 0.0;
    std::uint64_t tStart = 0;
    std::uint64_t tJoined = 0;  //!< Main thread's clock, after the join.
    std::uint64_t ops = 0, gets = 0, sets = 0, hits = 0;
    std::uint64_t setAcks = 0, failures = 0;
    std::vector<Window> win = std::vector<Window>(kWindows);
    std::vector<Usage> usage;  //!< At start and after each window.
    Failure bad;
    std::vector<ThreadOut> threads;

    double opsPerS() const { return wallS > 0 ? double(ops) / wallS : 0.0; }
};

// ----------------------------------------------------------------------
// Loopback: one connection's batches of binary frames.
// ----------------------------------------------------------------------

struct Slot
{
    std::uint32_t idx = 0;
    std::uint32_t seq = 0;  //!< Set only.
    bool isSet = false;
};

/** Frame one request; opaque carries the request id. */
void
appendFrame(std::string &batch, const Inputs &in, std::uint32_t t,
            KeyChecker &kc, const Slot &s, std::uint32_t opaque,
            std::vector<char> &val)
{
    const std::string &key = in.key(t, s.idx);
    if (s.isSet) {
        const std::size_t len = in.valueLen(kc.keyId(s.idx), s.seq);
        perfbench::deriveValue(val.data(), len, kc.keyId(s.idx), s.seq);
        batch += mc::binRequest(mc::BinOp::Set, key,
                                std::string(val.data(), len),
                                std::string(8, '\0'), 0, opaque);
    } else {
        batch += mc::binRequest(mc::BinOp::Get, key, "", "", 0, opaque);
    }
}

/** Judge one parsed binary reply. */
void
judgeReply(const Inputs &in, KeyChecker &kc, const Slot &s,
           std::uint32_t opaque, const mc::BinResponse &r, ThreadOut &o)
{
    char what[160];
    if (r.opaque != opaque ||
        r.opcode != (s.isSet ? mc::BinOp::Set : mc::BinOp::Get)) {
        std::snprintf(what, sizeof what,
                      "reply out of order: opaque %u opcode %u for request %u",
                      r.opaque, unsigned(r.opcode), opaque);
        o.bad.note(what);
        return;
    }
    if (s.isSet) {
        ++o.sets;
        if (r.status == mc::BinStatus::Ok) {
            kc.ack(s.idx, s.seq);
            ++o.setAcks;
        } else
            ++o.failures;
        return;
    }
    ++o.gets;
    Verdict v;
    if (r.status == mc::BinStatus::Ok) {
        ++o.hits;
        v = kc.hit(s.idx, r.value.data(), r.value.size(),
                   in.valueLen(kc.keyId(s.idx), kc.acked(s.idx)));
    } else if (r.status == mc::BinStatus::KeyNotFound) {
        v = kc.miss(s.idx);
    } else {
        ++o.failures;
        return;
    }
    if (v != Verdict::Ok) {
        std::snprintf(what, sizeof what, "GET key %u: %s",
                      kc.keyId(s.idx), perfbench::verdictName(v));
        o.bad.note(what);
    }
}

/**
 * Drive connection @p t until the phase ends (or, with @p preload, store
 * every key once). Each batch frames `window` requests, sends them with
 * one sendAll, then reads the replies in order.
 */
void
loopbackWorker(const Inputs &in, Rig &rig, std::uint32_t t,
               std::uint64_t seed, const PhaseClock &clk, bool preload,
               ThreadOut &o)
{
    const Workload &w = in.w;
    net::Client &client = *rig.clients[t];
    KeyChecker &kc = rig.checkers[t];
    perfbench::Rng rng(perfbench::mix2(seed, t));
    std::vector<char> val(kLargeValue);
    std::vector<Slot> slots(w.window);
    std::string batch, reply;
    mc::BinResponse resp;
    Tracer *tr = o.tracer.get();
    std::uint32_t next_preload = 0;
    std::uint32_t req = t << 28;

    for (;;) {
        const std::uint64_t t0 = nowNs();
        if (preload ? next_preload >= w.keysPerThread : t0 >= clk.deadline())
            break;
        if (tr)
            tr->openRoot(SpanKind::Batch, t0, req);
        batch.clear();
        std::uint32_t n = 0;
        for (; n < w.window; ++n) {
            Slot &s = slots[n];
            if (preload) {
                if (next_preload >= w.keysPerThread)
                    break;
                s.idx = next_preload++;
                s.isSet = true;
            } else {
                s.idx = static_cast<std::uint32_t>(rng.below(w.keysPerThread));
                s.isSet = rng.unit() < w.setFraction;
            }
            if (s.isSet)
                s.seq = kc.issue(s.idx);
            appendFrame(batch, in, t, kc, s, req + n, val);
        }
        const std::uint64_t t1 = nowNs();
        if (tr)
            tr->child(SpanKind::Gen, t0, t1, req);
        if (!client.sendAll(batch)) {
            o.failures += n;
            o.bad.note("sendAll failed");
            break;
        }
        o.sent += n;
        std::uint64_t ta = nowNs();
        if (tr)
            tr->child(SpanKind::Send, t1, ta, req);
        for (std::uint32_t j = 0; j < n; ++j) {
            const bool ok = client.recvBinary(reply);
            const std::uint64_t tb = nowNs();
            if (!ok) {
                o.failures += n - j;
                o.bad.note("recvBinary failed");
                return;
            }
            if (tr)
                tr->child(SpanKind::Recv, ta, tb, req + j);
            const bool parsed = mc::binParseResponse(reply, resp) != 0;
            const std::uint64_t tc = nowNs();
            if (!parsed) {
                o.bad.note("unparseable reply");
                continue;
            }
            Window &win = o.win[preload ? 0 : clk.window(tc)];
            perfbench::record(slots[j].isSet ? win.set : win.get, tc - t1);
            ++win.ops;
            judgeReply(in, kc, slots[j], req + j, resp, o);
            ta = nowNs();
            if (tr)
                tr->child(SpanKind::Check, tb, ta, req + j);
        }
        if (tr)
            tr->closeRoot(ta);
        o.ops += n;
        req += n;
    }
    o.tEnd = nowNs();
}

// ----------------------------------------------------------------------
// In-process: CacheIface calls from the load thread.
// ----------------------------------------------------------------------

void
inprocWorker(const Inputs &in, Rig &rig, std::uint32_t t,
             std::uint64_t seed, const PhaseClock &clk, ThreadOut &o)
{
    const Workload &w = in.w;
    mc::CacheIface &cache = *rig.cache;
    KeyChecker &kc = rig.checkers[t];
    perfbench::Rng rng(perfbench::mix2(seed, t));
    const perfbench::Zipf zipf(w.zipfTheta > 0 ? w.keysPerThread : 1,
                               w.zipfTheta > 0 ? w.zipfTheta : 1.0);
    std::vector<char> val(kLargeValue);
    std::vector<char> out(kLargeValue + 1024);
    Tracer *tr = o.tracer.get();
    std::uint64_t req = std::uint64_t{t} << 40;
    char what[160];

    for (;;) {
        const std::uint64_t t0 = tr ? nowNs() : 0;
        if (tr)
            tr->openRoot(SpanKind::Op, t0, req);
        const std::uint32_t idx = static_cast<std::uint32_t>(
            w.zipfTheta > 0 ? zipf.sample(rng) : rng.below(w.keysPerThread));
        const bool is_set = rng.unit() < w.setFraction;
        const std::string &key = in.key(t, idx);
        const std::uint32_t key_id = kc.keyId(idx);
        std::uint32_t seq = 0;
        std::size_t len = 0;
        if (is_set) {
            seq = kc.issue(idx);
            len = in.valueLen(key_id, seq);
            perfbench::deriveValue(val.data(), len, key_id, seq);
        }
        mc::OpStatus st = mc::OpStatus::Ok;
        mc::CacheIface::GetResult gr;
        const std::uint64_t t1 = nowNs();
        if (is_set)
            st = cache.store(t, key.data(), kKeySize, val.data(), len);
        else
            gr = cache.get(t, key.data(), kKeySize, out.data(), out.size());
        const std::uint64_t t2 = nowNs();
        if (tr) {
            tr->child(SpanKind::Gen, t0, t1, req);
            tr->child(is_set ? SpanKind::CacheStore : SpanKind::CacheGet, t1,
                      t2, req);
        }
        Verdict v = Verdict::Ok;
        Window &win = o.win[clk.window(t2)];
        ++win.ops;
        if (is_set) {
            ++o.sets;
            perfbench::record(win.set, t2 - t1);
            if (st == mc::OpStatus::Ok) {
                kc.ack(idx, seq);
                ++o.setAcks;
            } else {
                ++o.failures;
            }
        } else {
            ++o.gets;
            perfbench::record(win.get, t2 - t1);
            if (gr.status == mc::OpStatus::Ok) {
                ++o.hits;
                v = kc.hit(idx, out.data(), gr.vlen,
                           in.valueLen(key_id, kc.acked(idx)));
            } else {
                v = kc.miss(idx);
            }
        }
        if (v != Verdict::Ok) {
            std::snprintf(what, sizeof what, "GET key %u: %s", key_id,
                          perfbench::verdictName(v));
            o.bad.note(what);
        }
        ++o.ops;
        ++req;
        std::uint64_t t3 = t2;
        if (tr) {
            t3 = nowNs();
            tr->child(SpanKind::Check, t2, t3, req - 1);
            tr->closeRoot(t3);
        }
        if (t3 >= clk.deadline())
            break;
    }
    o.tEnd = nowNs();
}

// ----------------------------------------------------------------------
// Set-up and phases
// ----------------------------------------------------------------------

/** Build cache (+ server and connections), then store every key once. */
Rig
setUp(const Inputs &in)
{
    const Workload &w = in.w;
    Rig rig;
    for (std::uint32_t t = 0; t < w.threads; ++t)
        rig.checkers.emplace_back(t * w.keysPerThread, w.keysPerThread,
                                  !w.fitsInMemory);
    std::vector<ThreadOut> outs(w.threads);
    rig.baseRssKiB = vmRssKiB();
    mc::Settings settings;
    settings.maxBytes = w.maxBytes;
    rig.cache = mc::makeShardedCache(w.branch, settings,
                                     w.loopback ? w.serverLoops : w.threads,
                                     1);
    if (!rig.cache) {
        std::fprintf(stderr, "perfbench: unknown branch %s\n", w.branch);
        std::exit(2);
    }
    if (w.loopback) {
        net::ServerCfg cfg;
        cfg.port = 0;
        cfg.workers = w.serverLoops;
        rig.server = std::make_unique<net::Server>(*rig.cache, cfg);
        const std::vector<int> before = taskIds();
        if (!rig.server->start()) {
            std::fprintf(stderr, "perfbench: server start failed\n");
            std::exit(2);
        }
        // start() spawns loop 0, loop 1, ..., then the accept thread;
        // connection t is accepted onto loop t (round robin).
        std::vector<int> fresh;
        for (int id : taskIds()) {
            if (!std::binary_search(before.begin(), before.end(), id))
                fresh.push_back(id);
        }
        for (std::uint32_t i = 0; i < w.serverLoops && i < fresh.size(); ++i)
            pinTask(fresh[i], i, w.serverLoops);
        for (std::uint32_t t = 0; t < w.threads; ++t) {
            auto c = std::make_unique<net::Client>();
            if (!c->connect("127.0.0.1", rig.server->port(), 5000)) {
                std::fprintf(stderr, "perfbench: connect failed\n");
                std::exit(2);
            }
            c->setRecvTimeout(10000);
            rig.clients.push_back(std::move(c));
        }
    }

    std::vector<std::thread> ths;
    for (std::uint32_t t = 0; t < w.threads; ++t) {
        ths.emplace_back([&, t] {
            pinTask(0, t, w.threads);
            if (w.loopback) {
                loopbackWorker(in, rig, t, 0, PhaseClock{}, true, outs[t]);
                return;
            }
            KeyChecker &kc = rig.checkers[t];
            std::vector<char> val(kLargeValue);
            for (std::uint32_t i = 0; i < w.keysPerThread; ++i) {
                const std::uint32_t seq = kc.issue(i);
                const std::size_t len = in.valueLen(kc.keyId(i), seq);
                perfbench::deriveValue(val.data(), len, kc.keyId(i), seq);
                const std::string &key = in.key(t, i);
                if (rig.cache->store(t, key.data(), kKeySize, val.data(),
                                     len) == mc::OpStatus::Ok)
                    kc.ack(i, seq);
                else
                    ++outs[t].failures;
            }
        });
    }
    for (auto &th : ths)
        th.join();
    for (const ThreadOut &o : outs) {
        rig.requestsSent += o.sent;
        rig.preloadFailures += o.failures + o.bad.count;
    }
    return rig;
}

/** The records of one phase, allocated (and their pages touched)
 *  before it runs. */
PhaseOut
newPhase(const Workload &w, bool traced)
{
    PhaseOut p;
    p.threads.resize(w.threads);
    if (traced) {
        for (ThreadOut &o : p.threads)
            o.tracer = std::make_unique<Tracer>(kSpansKept);
    }
    return p;
}

void
runPhase(const Inputs &in, Rig &rig, std::uint64_t seed, double seconds,
         PhaseOut &p)
{
    const Workload &w = in.w;
    std::atomic<std::uint32_t> ready{0};
    std::atomic<std::uint64_t> start{0};
    PhaseClock clk;
    clk.windowNs = static_cast<std::uint64_t>(seconds * 1e9 / kWindows);
    std::vector<std::thread> ths;
    for (std::uint32_t t = 0; t < w.threads; ++t) {
        ths.emplace_back([&, t] {
            pinTask(0, t, w.threads);
            ready.fetch_add(1, std::memory_order_acq_rel);
            while (start.load(std::memory_order_acquire) == 0)
                std::this_thread::yield();
            if (w.loopback)
                loopbackWorker(in, rig, t, seed, clk, false, p.threads[t]);
            else
                inprocWorker(in, rig, t, seed, clk, p.threads[t]);
        });
    }
    while (ready.load(std::memory_order_acquire) != w.threads)
        std::this_thread::yield();
    clk.start = p.tStart = nowNs();
    p.usage.push_back(usageNow());
    start.store(p.tStart, std::memory_order_release);
    for (unsigned i = 1; i <= kWindows; ++i) {
        std::this_thread::sleep_until(std::chrono::steady_clock::time_point(
            std::chrono::nanoseconds(clk.start + i * clk.windowNs)));
        p.usage.push_back(usageNow());
    }
    for (auto &th : ths)
        th.join();
    p.tJoined = nowNs();
    std::uint64_t t_end = p.tStart;
    for (ThreadOut &o : p.threads) {
        t_end = std::max(t_end, o.tEnd);
        p.ops += o.ops;
        p.gets += o.gets;
        p.sets += o.sets;
        p.hits += o.hits;
        p.setAcks += o.setAcks;
        p.failures += o.failures;
        for (unsigned i = 0; i < kWindows; ++i)
            p.win[i].merge(o.win[i]);
        p.bad.merge(o.bad);
        rig.requestsSent += o.sent;
    }
    p.wallS = double(t_end - p.tStart) / 1e9;
}

// ----------------------------------------------------------------------
// Process and program counters
// ----------------------------------------------------------------------

/** /proc/self/io: rchar, wchar, syscr, syscw. */
struct Io
{
    std::int64_t v[4] = {0, 0, 0, 0};
};

Io
ioNow()
{
    Io io;
    std::ifstream f("/proc/self/io");
    std::string name;
    std::int64_t value = 0;
    static const char *kNames[4] = {"rchar:", "wchar:", "syscr:", "syscw:"};
    while (f >> name >> value) {
        for (int i = 0; i < 4; ++i) {
            if (name == kNames[i])
                io.v[i] = value;
        }
    }
    return io;
}

/**
 * Reading /proc/self/io is itself I/O. The snapshot taken right after
 * a calibration snapshot measures what one read costs, and that cost
 * is subtracted, so a phase with no program I/O reads zero.
 */
struct IoMeter
{
    Io base, cost;

    void
    start()
    {
        const Io a = ioNow();
        base = ioNow();
        for (int i = 0; i < 4; ++i)
            cost.v[i] = base.v[i] - a.v[i];
    }

    Io
    delta() const
    {
        const Io now = ioNow();
        Io d;
        for (int i = 0; i < 4; ++i)
            d.v[i] = std::max<std::int64_t>(0, now.v[i] - base.v[i] -
                                                   cost.v[i]);
        return d;
    }
};

/** Program-side counters read around the traced phase. */
struct ProgramSnap
{
    mc::GlobalStats global;
    std::vector<mc::LockProfileRow> locks;
    tm::StatBlock tm;

    static ProgramSnap
    take(mc::CacheIface &cache)
    {
        ProgramSnap s;
        s.global = cache.globalStats();
        s.locks = cache.lockProfile();
        s.tm = tm::Runtime::get().snapshot().total;
        return s;
    }
};

/** Acquisitions and contended acquisitions of one named lock family. */
std::pair<double, double>
lockDelta(const ProgramSnap &a, const ProgramSnap &b, const char *prefix)
{
    auto find = [&](const ProgramSnap &s) -> std::pair<double, double> {
        for (const auto &r : s.locks) {
            if (r.name.rfind(prefix, 0) == 0)
                return {double(r.acquisitions), double(r.contended)};
        }
        return {0.0, 0.0};
    };
    const auto x = find(a);
    const auto y = find(b);
    return {y.first - x.first, y.second - x.second};
}

// ----------------------------------------------------------------------
// Output
// ----------------------------------------------------------------------

struct Metric
{
    std::string name;
    double value;
    const char *unit;
};

std::string
jsonNum(double v)
{
    char buf[64];
    std::snprintf(buf, sizeof buf, "%.15g", v);
    return buf;
}

std::string
jsonStr(const std::string &s)
{
    std::string out = "\"";
    for (char c : s) {
        if (c == '"' || c == '\\')
            out += '\\';
        if (static_cast<unsigned char>(c) >= 0x20)
            out += c;
    }
    return out + "\"";
}

double
median(std::vector<double> v)
{
    std::sort(v.begin(), v.end());
    const std::size_t n = v.size();
    return n % 2 ? v[n / 2] : (v[n / 2 - 1] + v[n / 2]) / 2.0;
}

double
per(double x, double n)
{
    return n > 0 ? x / n : 0.0;
}

void
writeSpans(const std::string &path, const PhaseOut &p)
{
    std::FILE *f = std::fopen(path.c_str(), "w");
    if (f == nullptr) {
        std::fprintf(stderr, "perfbench: cannot write %s\n", path.c_str());
        return;
    }
    std::fprintf(f, "thread,id,parent,req,name,start_ns,end_ns\n");
    for (std::size_t t = 0; t < p.threads.size(); ++t) {
        for (const auto &s : p.threads[t].tracer->kept()) {
            std::fprintf(f, "%zu,%u,%u,%" PRIu64 ",%s,%" PRIu64 ",%" PRIu64
                            "\n",
                         t, s.id, s.parent, s.req,
                         perfbench::spanKindName(s.kind), s.t0 - p.tStart,
                         s.t1 - p.tStart);
        }
    }
    std::fclose(f);
}

struct Args
{
    std::string workload;
    std::uint64_t seed = 1;
    double seconds = 10.0;
    bool trace = false;
    std::string traceFile;
};

[[noreturn]] void
usage()
{
    std::fprintf(stderr,
                 "usage: tmemc_perfbench --workload NAME --seed N "
                 "--seconds S --trace 0|1 [--trace-file PATH]\nworkloads:");
    for (const Workload &w : kWorkloads)
        std::fprintf(stderr, " %s", w.name);
    std::fprintf(stderr, "\n");
    std::exit(2);
}

Args
parseArgs(int argc, char **argv)
{
    Args a;
    for (int i = 1; i < argc; ++i) {
        const std::string k = argv[i];
        if (i + 1 >= argc)
            usage();
        const char *v = argv[++i];
        if (k == "--workload")
            a.workload = v;
        else if (k == "--seed")
            a.seed = std::strtoull(v, nullptr, 10);
        else if (k == "--seconds")
            a.seconds = std::strtod(v, nullptr);
        else if (k == "--trace")
            a.trace = std::string(v) == "1";
        else if (k == "--trace-file")
            a.traceFile = v;
        else
            usage();
    }
    if (a.workload.empty() || !(a.seconds > 0))
        usage();
    return a;
}

/** Outcome totals of a run, across its rigs and phases. */
struct Run
{
    std::uint64_t attempted = 0, failed = 0;
    Failure bad;
    std::vector<double> setupS;

    Rig
    timedSetUp(const Inputs &in)
    {
        const std::uint64_t t0 = nowNs();
        Rig r = setUp(in);
        setupS.push_back(double(nowNs() - t0) / 1e9);
        if (r.preloadFailures != 0)
            bad.note("preload stores failed");
        return r;
    }
};

/** What the generator counted on one rig, for the cross-checks. */
struct RigCounts
{
    std::uint64_t gets = 0, sets = 0, hits = 0, setAcks = 0;

    void
    add(const PhaseOut &p, Run &run)
    {
        gets += p.gets;
        sets += p.sets;
        hits += p.hits;
        setAcks += p.setAcks;
        run.attempted += p.ops;
        run.failed += p.failures;
        run.bad.merge(p.bad);
    }
};

/**
 * Cross-check the generator's counts against the program's own
 * counters, then tear the rig down.
 */
void
finishRig(const Workload &w, Rig &rig, const mc::ThreadStatsBlock &stats0,
          const RigCounts &c, Failure &bad)
{
    auto verdict = [&](const char *what, bool ok) {
        if (!ok)
            bad.note(std::string("cross-check failed: ") + what);
        return ok ? "ok" : "MISMATCH";
    };
    auto cross = [&](const char *what, double ours, double theirs) {
        std::fprintf(stdout, "check %-34s generator=%.0f program=%.0f %s\n",
                     what, ours, theirs, verdict(what, ours == theirs));
    };
    // A binary SET may read its new CAS id back through CacheIface::get,
    // which the program then counts as one more GET hit per stored item;
    // memcached takes the CAS from the stored item and counts no GET.
    // Over loopback both are accepted, and which held is printed.
    auto gets = [&](const char *what, double ours, double theirs) {
        const double extra = theirs - ours;
        const bool readback = w.loopback && extra == double(c.setAcks);
        std::fprintf(stdout, "check %-34s generator=%.0f program=%.0f %s%s\n",
                     what, ours, theirs,
                     verdict(what, extra == 0.0 || readback),
                     readback && extra != 0.0 ? " (+1 per SET: CAS read-back)"
                                              : "");
    };
    const mc::ThreadStatsBlock stats1 = rig.cache->threadStats();
    gets("threadStats cmd_get delta", double(c.gets),
         double(stats1.cmdGet - stats0.cmdGet));
    cross("threadStats cmd_set delta", double(c.sets),
          double(stats1.cmdSet - stats0.cmdSet));
    gets("threadStats get_hits delta", double(c.hits),
         double(stats1.getHits - stats0.getHits));
    rig.cache->quiesceMaintenance();
    const mc::GlobalStats g = rig.cache->globalStats();
    cross("curr_items == linked items", double(g.currItems),
          double(rig.cache->linkedItemCount()));
    if (w.fitsInMemory)
        cross("evictions (fits in memory)", 0.0, double(g.evictions));
    std::uint64_t missed = 0;
    for (const KeyChecker &kc : rig.checkers)
        missed += kc.missedVersions();
    const bool explained = perfbench::missesExplained(missed, g.evictions);
    std::fprintf(stdout,
                 "check %-34s missed=%" PRIu64 " evictions=%" PRIu64 " %s\n",
                 "missed versions <= evictions", missed, g.evictions,
                 explained ? "ok" : "MISMATCH");
    if (!explained)
        bad.note("more versions missed than evicted");
    if (w.loopback) {
        rig.clients.clear();
        rig.server->stop();
        cross("requests sent == requestsServed", double(rig.requestsSent),
              double(rig.server->requestsServed()));
    }
    rig.teardown();
}

/** Rigs per untraced run; each is set up, measured for a third of the
 *  run and checked, so state that lasts as long as one rig (where its
 *  pages landed) is sampled three times. */
constexpr int kRigs = 3;

std::vector<Metric>
endToEnd(const Inputs &in, double seconds, std::uint64_t seed, Run &run)
{
    const Workload &w = in.w;
    std::vector<PhaseOut> phases;
    for (int r = 0; r < kRigs; ++r)
        phases.push_back(newPhase(w, false));
    double rss_mib = 0.0;
    for (int r = 0; r < kRigs; ++r) {
        Rig rig = run.timedSetUp(in);
        const mc::ThreadStatsBlock stats0 = rig.cache->threadStats();
        runPhase(in, rig, perfbench::mix2(seed, r), seconds / kRigs,
                 phases[r]);
        // Peak RSS of the first rig, before the next is built (later
        // rigs reuse or add allocator arenas depending on timing), less
        // what the generator held before the rig's program part existed.
        if (r == 0)
            rss_mib = (phases[r].usage.back().maxRssKiB - rig.baseRssKiB) /
                      1024.0;
        RigCounts c;
        c.add(phases[r], run);
        finishRig(w, rig, stats0, c, run.bad);
    }

    const double win_s = seconds / kRigs / kWindows;
    auto over_windows = [&](auto f) {
        std::vector<double> v;
        for (const PhaseOut &p : phases) {
            for (unsigned i = 0; i < kWindows; ++i)
                v.push_back(f(p.win[i], p.usage[i], p.usage[i + 1]));
        }
        return median(v);
    };
    auto q = [&](obs::HistCounts Window::*h, double quantile) {
        return over_windows([&](const Window &x, const Usage &, const Usage &) {
            return perfbench::quantileNs(x.*h, quantile) / 1e3;
        });
    };
    std::fprintf(stdout, "windows ops");
    for (const PhaseOut &p : phases) {
        for (const Window &x : p.win)
            std::fprintf(stdout, " %" PRIu64, x.ops);
    }
    std::fprintf(stdout, "\n");
    return {
        {"ops_per_s",
         over_windows([&](const Window &x, const Usage &, const Usage &) {
             return double(x.ops) / win_s;
         }),
         "ops/s"},
        {"get_p50_us", q(&Window::get, 0.50), "us"},
        {"get_p99_us", q(&Window::get, 0.99), "us"},
        {"set_p50_us", q(&Window::set, 0.50), "us"},
        {"set_p99_us", q(&Window::set, 0.99), "us"},
        {"cpu_us_per_op",
         over_windows([&](const Window &x, const Usage &a, const Usage &b) {
             return per(b.userUs - a.userUs + b.sysUs - a.sysUs,
                        double(x.ops));
         }),
         "us"},
        {"rss_mib", rss_mib, "MiB"},
        {"setup_s", median(run.setupS), "s"},
    };
}

std::vector<Metric>
perLayer(const Inputs &in, double seconds, std::uint64_t seed,
         const std::string &trace_file, Run &run)
{
    std::vector<Metric> m;
    Rig rig = run.timedSetUp(in);
    const mc::ThreadStatsBlock stats0 = rig.cache->threadStats();
    RigCounts counts;
    Failure &bad = run.bad;
    // Untraced half first, for the tracing overhead; then the traced
    // half, around which every layer counter is read.
    PhaseOut plain = newPhase(in.w, false);
    PhaseOut p = newPhase(in.w, true);
    runPhase(in, rig, seed, seconds / 2, plain);
    counts.add(plain, run);
    obs::MetricsRegistry::get().resetHistograms();
    const ProgramSnap s0 = ProgramSnap::take(*rig.cache);
    IoMeter io;
    io.start();
    const Usage u0 = usageNow();
    runPhase(in, rig, perfbench::mix2(seed, 1), seconds / 2, p);
    const Usage u1 = usageNow();
    const Io iod = io.delta();
    const ProgramSnap s1 = ProgramSnap::take(*rig.cache);
    counts.add(p, run);
    const double ops = double(p.ops);

    // Ledger: per thread, the child spans (calls into the program plus
    // the generator's own steps) must tile their roots and cover the
    // phase's wall time on the main thread's clock.
    const std::uint64_t wall_ns = p.tJoined - p.tStart;
    double ledger_gap = 0.0, gen_ns = 0.0, prog_ns = 0.0;
    obs::HistCounts send, recv;
    for (std::size_t t = 0; t < p.threads.size(); ++t) {
        const Tracer &tr = *p.threads[t].tracer;
        const perfbench::Ledger ledger(tr, wall_ns, kLedgerTolerance);
        ledger_gap = std::max(ledger_gap, std::abs(ledger.gap()));
        if (!ledger.holds()) {
            char what[200];
            std::snprintf(what, sizeof what,
                          "ledger: thread %zu spans cover %.4f of wall "
                          "(tolerance %.2f), %" PRIu64 " overlaps, %" PRIu64
                          " holes",
                          t, 1.0 - ledger.gap(), kLedgerTolerance,
                          ledger.overlaps, ledger.holes);
            bad.note(what);
        }
        double prog = 0.0;
        for (unsigned k = 0; k < perfbench::kSpanKinds; ++k) {
            if (perfbench::isProgramSpan(SpanKind(k)))
                prog += double(tr.sumNs(SpanKind(k)));
        }
        // The generator's time is all the thread's wall time outside
        // calls into the program.
        gen_ns += double(wall_ns) - prog;
        prog_ns += prog;
        send.add(tr.durations(SpanKind::Send));
        recv.add(tr.durations(SpanKind::Recv));
    }
    std::fprintf(stdout, "ledger max_gap=%.5f tolerance=%.2f\n",
                 ledger_gap, kLedgerTolerance);
    if (!trace_file.empty())
        writeSpans(trace_file, p);

    const auto cmd = obs::hist(obs::HistKind::Command).snapshot().summary();
    const auto tx = obs::hist(obs::HistKind::Tx).snapshot().summary();
    const auto att =
        obs::hist(obs::HistKind::TxAttempts).snapshot().summary();
    const tm::StatBlock &a = s0.tm;
    const tm::StatBlock &b = s1.tm;
    auto tmd = [&](std::uint64_t tm::StatBlock::*f) {
        return per(double(b.*f - a.*f), ops);
    };
    m = {
        {"cpu.user_us_per_op", per(u1.userUs - u0.userUs, ops), "us"},
        {"cpu.sys_us_per_op", per(u1.sysUs - u0.sysUs, ops), "us"},
        {"cpu.vcsw_per_op", per(u1.vcsw - u0.vcsw, ops), "count"},
        {"cpu.ivcsw_per_op", per(u1.ivcsw - u0.ivcsw, ops), "count"},
        {"gen.self_us_per_op", per(gen_ns / 1e3, ops), "us"},
        {"net.read_calls_per_op", per(double(iod.v[2]), ops), "count"},
        {"net.write_calls_per_op", per(double(iod.v[3]), ops), "count"},
        {"net.read_bytes_per_op", per(double(iod.v[0]), ops), "B"},
        {"net.write_bytes_per_op", per(double(iod.v[1]), ops), "B"},
        {"net.send_us.p50", perfbench::quantileNs(send, 0.50) / 1e3, "us"},
        {"net.reply_wait_us.p50", perfbench::quantileNs(recv, 0.50) / 1e3,
         "us"},
        {"net.reply_wait_us.p99", perfbench::quantileNs(recv, 0.99) / 1e3,
         "us"},
        {"net.server_cmd_us.p50", cmd.p50Us, "us"},
        {"net.server_cmd_us.p99", cmd.p99Us, "us"},
        {"tm.txns_per_op", tmd(&tm::StatBlock::txns), "count"},
        {"tm.start_serial_per_op", tmd(&tm::StatBlock::startSerial),
         "count"},
        {"tm.inflight_switch_per_op", tmd(&tm::StatBlock::inflightSwitch),
         "count"},
        {"tm.abort_serial_per_op", tmd(&tm::StatBlock::abortSerial),
         "count"},
        {"tm.serial_commits_per_op", tmd(&tm::StatBlock::serialCommits),
         "count"},
        {"tm.ro_fast_commits_per_op", tmd(&tm::StatBlock::roFastCommits),
         "count"},
        {"tm.ro_promotions_per_op", tmd(&tm::StatBlock::roPromotions),
         "count"},
        {"tm.aborts_per_commit",
         per(double(b.aborts - a.aborts), double(b.commits - a.commits)),
         "ratio"},
        {"tm.tx_us.p50", tx.p50Us, "us"},
        {"tm.tx_us.p99", tx.p99Us, "us"},
        {"tm.attempts.p99", att.p99Us, "count"},
    };
    for (const char *lock : {"cache_lock", "slabs_lock", "stats_lock",
                             "item_locks", "thread_stats"}) {
        const auto d = lockDelta(s0, s1, lock);
        m.push_back({std::string("lock.") + lock + ".acq_per_op",
                     per(d.first, ops), "count"});
        m.push_back({std::string("lock.") + lock + ".contended_per_op",
                     per(d.second, ops), "count"});
    }
    m.push_back({"mc.hit_ratio", per(double(p.hits), double(p.gets)),
                 "ratio"});
    m.push_back({"mc.evictions_per_set",
                 per(double(s1.global.evictions - s0.global.evictions),
                     double(p.sets)),
                 "count"});
    m.push_back({"mc.slab_pages_moved", double(s1.global.slabPagesMoved),
                 "count"});
    m.push_back({"mc.hash_expansions", double(s1.global.hashExpansions),
                 "count"});
    m.push_back({"mc.bytes_per_item",
                 per(double(s1.global.currBytes),
                     double(s1.global.currItems)),
                 "B"});
    m.push_back({"trace.overhead", per(plain.opsPerS(), p.opsPerS()) - 1.0,
                 "ratio"});
    m.push_back({"trace.ledger_gap", ledger_gap, "ratio"});
    m.push_back({"trace.program_us_per_op", per(prog_ns / 1e3, ops),
                 "us"});
    finishRig(in.w, rig, stats0, counts, bad);
    return m;
}

} // namespace

int
main(int argc, char **argv)
{
    const Args args = parseArgs(argc, argv);
    const Workload *wp = nullptr;
    for (const Workload &w : kWorkloads) {
        if (args.workload == w.name)
            wp = &w;
    }
    if (wp == nullptr)
        usage();
    const Workload &w = *wp;

    for (const auto &[what, err] :
         {std::pair{"checker", perfbench::checkerSelfTest()},
          std::pair{"ledger", perfbench::ledgerSelfTest(kLedgerTolerance)}}) {
        if (!err.empty()) {
            std::fprintf(stderr, "perfbench: %s self-test failed: %s\n", what,
                         err.c_str());
            return 3;
        }
    }

    tm::Runtime::get().configure(mc::runtimeCfgFor(w.branch));
    const Inputs in(w, args.seed);
    const std::uint64_t phase_seed = perfbench::mix2(args.seed, 0x6d656d);
    Run run;
    const std::vector<Metric> m =
        args.trace
            ? perLayer(in, args.seconds, phase_seed, args.traceFile, run)
            : endToEnd(in, args.seconds, phase_seed, run);
    const Failure &bad = run.bad;
    const std::uint64_t attempted = run.attempted;
    const std::uint64_t failed = run.failed;

    if (bad.count != 0)
        std::fprintf(stderr, "perfbench: %" PRIu64 " failed checks; first: %s\n",
                     bad.count, bad.first.c_str());

    std::fprintf(stdout,
                 "fingerprint {\"build_type\": %s, \"compiler\": %s, "
                 "\"workload\": %s, \"branch\": %s, \"seed\": %" PRIu64
                 ", \"seconds\": %s, \"trace\": %d}\n",
                 jsonStr(PERFBENCH_BUILD_TYPE).c_str(),
                 jsonStr(PERFBENCH_COMPILER).c_str(), jsonStr(w.name).c_str(),
                 jsonStr(w.branch).c_str(), args.seed,
                 jsonNum(args.seconds).c_str(), args.trace ? 1 : 0);

    std::string out = "{\"correct\": ";
    out += bad.count == 0 ? "true" : "false";
    out += ", \"attempted\": " + std::to_string(attempted);
    out += ", \"failed\": " + std::to_string(failed);
    out += ", \"metrics\": {";
    for (std::size_t i = 0; i < m.size(); ++i) {
        out += (i ? ", " : "") + jsonStr(m[i].name) + ": {\"value\": " +
               jsonNum(m[i].value) + ", \"unit\": " + jsonStr(m[i].unit) + "}";
    }
    out += "}}";
    std::fprintf(stdout, "%s\n", out.c_str());
    return bad.count == 0 ? 0 : 1;
}
