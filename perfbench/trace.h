/**
 * @file
 * Latency recording and the spans the load generator records around
 * each call it makes into the program, for the traced run.
 *
 * Every unit of generator work (one operation in-process, one batch
 * over loopback) is a root span; its children are the generator's own
 * steps (gen, check) and the calls into a layer (CacheIface get/store,
 * Client::sendAll, Client::recvBinary). The children of a root are
 * stamped back to back, so they must tile it: a child that starts
 * before the previous one ended (double counted) or after it (a hole
 * where a span was dropped) is counted. Durations are summed and
 * bucketed per kind; the first `keep` spans of each thread are also
 * kept whole and written out when the run ends.
 */

#ifndef TMEMC_PERFBENCH_TRACE_H
#define TMEMC_PERFBENCH_TRACE_H

#include <array>
#include <cmath>
#include <cstdint>
#include <string>
#include <vector>

#include "obs/hist.h"

namespace perfbench
{

/** Record @p ns into @p h (the program's own log-linear buckets). */
inline void
record(tmemc::obs::HistCounts &h, std::uint64_t ns)
{
    ++h.buckets[tmemc::obs::bucketOf(ns)];
    ++h.count;
}

/**
 * Value (ns) at quantile @p q in [0, 1]; 0 when empty. Interpolates
 * linearly inside the bucket that holds the rank: HistCounts::quantile
 * returns bucket midpoints, which would make a median step between
 * values about 3 % apart instead of moving with the data.
 */
inline double
quantileNs(const tmemc::obs::HistCounts &h, double q)
{
    namespace obs = tmemc::obs;
    if (h.count == 0)
        return 0.0;
    const double rank = q * static_cast<double>(h.count - 1);
    std::uint64_t before = 0;
    for (unsigned i = 0; i + 1 < obs::kNumBuckets; ++i) {
        const std::uint64_t c = h.buckets[i];
        if (c == 0 || static_cast<double>(before + c) <= rank) {
            before += c;
            continue;
        }
        const double frac =
            (rank - static_cast<double>(before) + 0.5) / static_cast<double>(c);
        const double low = static_cast<double>(obs::bucketLow(i));
        return low + frac * (static_cast<double>(obs::bucketLow(i + 1)) - low);
    }
    return static_cast<double>(obs::bucketLow(obs::kNumBuckets - 1));
}

enum class SpanKind : std::uint8_t
{
    Op,          //!< Root: one in-process operation.
    Batch,       //!< Root: one loopback batch of requests.
    Gen,         //!< Generator: pick keys, derive values, build frames.
    CacheGet,    //!< Program: CacheIface::get.
    CacheStore,  //!< Program: CacheIface::store.
    Send,        //!< Program: Client::sendAll of one batch.
    Recv,        //!< Program: Client::recvBinary of one reply.
    Check,       //!< Generator: parse and judge one outcome.
};

constexpr unsigned kSpanKinds = 8;

inline const char *
spanKindName(SpanKind k)
{
    static constexpr const char *kNames[kSpanKinds] = {
        "op", "batch", "gen", "mc.get", "mc.store", "net.send",
        "net.recv", "check"};
    return kNames[static_cast<unsigned>(k)];
}

/** Calls into the program, as opposed to the generator's own work. */
constexpr bool
isProgramSpan(SpanKind k)
{
    return k == SpanKind::CacheGet || k == SpanKind::CacheStore ||
           k == SpanKind::Send || k == SpanKind::Recv;
}

constexpr bool
isRootSpan(SpanKind k)
{
    return k == SpanKind::Op || k == SpanKind::Batch;
}

struct Span
{
    std::uint64_t t0 = 0;      //!< ns, steady clock.
    std::uint64_t t1 = 0;
    std::uint64_t req = 0;     //!< Request id (first request of a batch).
    std::uint32_t id = 0;
    std::uint32_t parent = 0;  //!< 0 for roots.
    SpanKind kind = SpanKind::Op;
};

/** Per-thread span recorder; not shared between threads. */
class Tracer
{
  public:
    explicit Tracer(std::size_t keep) : keep_(keep) { kept_.reserve(keep); }

    void
    openRoot(SpanKind k, std::uint64_t t0, std::uint64_t req)
    {
        root_ = Span{t0, 0, req, ++nextId_, 0, k};
        tiledTo_ = t0;
    }

    void
    child(SpanKind k, std::uint64_t t0, std::uint64_t t1, std::uint64_t req)
    {
        tile(t0);
        tiledTo_ = t1;
        const std::uint64_t d = t1 - t0;
        sum_[idx(k)] += d;
        record(dur_[idx(k)], d);
        keep(Span{t0, t1, req, ++nextId_, root_.id, k});
    }

    void
    closeRoot(std::uint64_t t1)
    {
        tile(t1);
        root_.t1 = t1;
        sum_[idx(root_.kind)] += t1 - root_.t0;
        record(dur_[idx(root_.kind)], t1 - root_.t0);
        keep(root_);
    }

    /** Summed durations of the spans of kind @p k. */
    std::uint64_t sumNs(SpanKind k) const { return sum_[idx(k)]; }
    const tmemc::obs::HistCounts &
    durations(SpanKind k) const
    {
        return dur_[idx(k)];
    }
    /** Children that started before the previous one (or their root)
     *  ended: time counted twice. */
    std::uint64_t overlaps() const { return overlaps_; }
    /** Children that started after the previous one ended, or roots
     *  that outlasted their last child: time no span covers. */
    std::uint64_t holes() const { return holes_; }
    const std::vector<Span> &kept() const { return kept_; }

    /** Summed durations of every child span: generator steps plus
     *  calls into the program. */
    std::uint64_t
    childNs() const
    {
        std::uint64_t s = 0;
        for (unsigned k = 0; k < kSpanKinds; ++k) {
            if (!isRootSpan(SpanKind(k)))
                s += sum_[k];
        }
        return s;
    }

  private:
    static unsigned idx(SpanKind k) { return static_cast<unsigned>(k); }

    void
    tile(std::uint64_t t)
    {
        if (t < tiledTo_)
            ++overlaps_;
        else if (t > tiledTo_)
            ++holes_;
    }

    void
    keep(const Span &s)
    {
        if (kept_.size() < keep_)
            kept_.push_back(s);
    }

    std::size_t keep_;
    std::vector<Span> kept_;
    Span root_;
    std::uint64_t tiledTo_ = 0;
    std::uint64_t overlaps_ = 0;
    std::uint64_t holes_ = 0;
    std::uint32_t nextId_ = 0;
    std::array<std::uint64_t, kSpanKinds> sum_{};
    std::array<tmemc::obs::HistCounts, kSpanKinds> dur_{};
};

/**
 * Ledger of one thread of a traced phase. Its child spans, each taken
 * by the thread itself, are set against the wall time of the phase as
 * the main thread's clock gives it (start signal to join), so the time
 * between roots, a late start and a missing root all show as a gap.
 */
struct Ledger
{
    double tolerance;        //!< Largest |gap| allowed.
    std::uint64_t wallNs;
    std::uint64_t coveredNs;
    std::uint64_t overlaps;
    std::uint64_t holes;

    Ledger(const Tracer &tr, std::uint64_t wall_ns, double tol)
        : tolerance(tol), wallNs(wall_ns), coveredNs(tr.childNs()),
          overlaps(tr.overlaps()), holes(tr.holes())
    {
    }

    /** Share of the wall time no child span covers (negative when the
     *  spans add up to more than the wall). */
    double
    gap() const
    {
        return wallNs == 0 ? 1.0
                           : (double(wallNs) - double(coveredNs)) /
                                 double(wallNs);
    }

    bool
    holds() const
    {
        return overlaps == 0 && holes == 0 && std::abs(gap()) <= tolerance;
    }
};

/**
 * Drive a Tracer through a synthetic phase as a load loop would and
 * check that the ledger accepts it whole and rejects it with one span
 * dropped, one span recorded twice, or every program span missing.
 * Returns an empty string when all four verdicts are right.
 */
inline std::string
ledgerSelfTest(double tolerance)
{
    enum class Fault { None, DropOne, DoubleOne, DropProgram };
    auto phase = [&](Fault f) {
        Tracer tr(0);
        constexpr std::uint64_t kOps = 1000;
        std::uint64_t t = 1000;  // Phase start on the main thread's clock.
        for (std::uint64_t i = 0; i < kOps; ++i) {
            t += 20;  // Loop bookkeeping between roots.
            const std::uint64_t t0 = t, t1 = t0 + 100, t2 = t1 + 800,
                                t3 = t2 + 100;
            tr.openRoot(SpanKind::Op, t0, i);
            tr.child(SpanKind::Gen, t0, t1, i);
            const bool middle = i == kOps / 2;
            if (!(f == Fault::DropProgram ||
                  (f == Fault::DropOne && middle)))
                tr.child(SpanKind::CacheGet, t1, t2, i);
            if (f == Fault::DoubleOne && middle)
                tr.child(SpanKind::CacheGet, t1, t2, i);
            tr.child(SpanKind::Check, t2, t3, i);
            tr.closeRoot(t3);
            t = t3;
        }
        return Ledger(tr, t + 20 - 1000, tolerance).holds();
    };
    if (!phase(Fault::None))
        return "a whole phase was rejected";
    if (phase(Fault::DropOne))
        return "a phase with one span dropped was accepted";
    if (phase(Fault::DoubleOne))
        return "a phase with one span counted twice was accepted";
    if (phase(Fault::DropProgram))
        return "a phase without its program spans was accepted";
    return "";
}

} // namespace perfbench

#endif // TMEMC_PERFBENCH_TRACE_H
