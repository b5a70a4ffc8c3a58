/**
 * @file
 * The load generator's inputs and the output checker.
 *
 * Everything here is derived from the run's seed and computed apart
 * from the program: the generator never asks the cache what a value
 * should be. Keys are thread-partitioned as in memslap (the thread id
 * is part of the key), so every key has exactly one writer and that
 * writer knows the newest sequence the program has acknowledged for
 * it. A value is a pure function of (key id, sequence):
 *
 *   "KKKKKKKK:SSSSSSSS:" + letters from a keyed stream
 *
 * so the checker can tell a stale value (older stamp), a value of
 * another key (other key id), and a torn value (right stamp, wrong
 * bytes or length) from the correct one.
 */

#ifndef TMEMC_PERFBENCH_GEN_H
#define TMEMC_PERFBENCH_GEN_H

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstring>
#include <string>
#include <vector>

namespace perfbench
{

inline std::uint64_t
splitmix64(std::uint64_t &state)
{
    std::uint64_t z = (state += 0x9e3779b97f4a7c15ULL);
    z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
    z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
    return z ^ (z >> 31);
}

inline std::uint64_t
mix2(std::uint64_t a, std::uint64_t b)
{
    std::uint64_t s = a * 0xd1b54a32d192ed03ULL ^ b;
    return splitmix64(s);
}

/** xoshiro256** seeded through splitmix64. */
class Rng
{
  public:
    explicit Rng(std::uint64_t seed)
    {
        for (auto &w : s_)
            w = splitmix64(seed);
    }

    std::uint64_t
    next()
    {
        const std::uint64_t r = rotl(s_[1] * 5, 7) * 9;
        const std::uint64_t t = s_[1] << 17;
        s_[2] ^= s_[0];
        s_[3] ^= s_[1];
        s_[1] ^= s_[2];
        s_[0] ^= s_[3];
        s_[2] ^= t;
        s_[3] = rotl(s_[3], 45);
        return r;
    }

    /** Uniform in [0, 1). */
    double unit() { return static_cast<double>(next() >> 11) * 0x1.0p-53; }

    /** Uniform in [0, n). */
    std::uint64_t below(std::uint64_t n) { return next() % n; }

  private:
    static std::uint64_t
    rotl(std::uint64_t x, int k)
    {
        return (x << k) | (x >> (64 - k));
    }

    std::uint64_t s_[4];
};

/** Zipf(theta) over [0, n) by inverse CDF; rank 0 is the hottest. */
class Zipf
{
  public:
    Zipf(std::size_t n, double theta) : cdf_(n)
    {
        double sum = 0.0;
        for (std::size_t i = 0; i < n; ++i) {
            sum += 1.0 / std::pow(static_cast<double>(i + 1), theta);
            cdf_[i] = sum;
        }
        for (double &c : cdf_)
            c /= sum;
    }

    std::size_t
    sample(Rng &rng) const
    {
        const double u = rng.unit();
        const auto it = std::lower_bound(cdf_.begin(), cdf_.end(), u);
        return it == cdf_.end() ? cdf_.size() - 1
                                : static_cast<std::size_t>(it - cdf_.begin());
    }

  private:
    std::vector<double> cdf_;
};

constexpr std::size_t kValueHeader = 18;  // "KKKKKKKK:SSSSSSSS:"

/** Write the value of (key id, seq) into @p out[0, len). */
inline void
deriveValue(char *out, std::size_t len, std::uint32_t key_id,
            std::uint32_t seq)
{
    char head[kValueHeader];
    static constexpr char kHex[] = "0123456789abcdef";
    for (int i = 0; i < 8; ++i) {
        head[i] = kHex[(key_id >> (28 - 4 * i)) & 0xf];
        head[9 + i] = kHex[(seq >> (28 - 4 * i)) & 0xf];
    }
    head[8] = ':';
    head[17] = ':';
    std::memcpy(out, head, std::min(len, kValueHeader));
    std::uint64_t state = mix2(key_id, seq);
    for (std::size_t i = kValueHeader; i < len; i += 8) {
        std::uint64_t r = splitmix64(state);
        for (std::size_t j = i; j < len && j < i + 8; ++j, r >>= 8)
            out[j] = static_cast<char>('a' + (r & 0xff) % 26);
    }
}

/** What the checker concluded about one outcome. */
enum class Verdict
{
    Ok,
    Stale,          //!< Well-formed value with an older sequence.
    Unacked,        //!< Sequence newer than the newest acknowledged.
    ForeignKey,     //!< Value stamped with another key's id.
    Torn,           //!< Right stamp, wrong bytes or length.
    UnexpectedMiss, //!< Miss where no eviction could have happened.
};

inline const char *
verdictName(Verdict v)
{
    switch (v) {
      case Verdict::Ok: return "ok";
      case Verdict::Stale: return "stale value";
      case Verdict::Unacked: return "value never acknowledged";
      case Verdict::ForeignKey: return "value of another key";
      case Verdict::Torn: return "torn value";
      case Verdict::UnexpectedMiss: return "miss without eviction";
    }
    return "?";
}

/**
 * One writer's view of its keys: the newest sequence issued and the
 * newest the program acknowledged. GET outcomes are judged against
 * the acknowledged one; requests on one connection are executed and
 * answered in order, so every reply is judged after all replies that
 * precede it.
 */
class KeyChecker
{
  public:
    /**
     * @param first_key   Global id of this writer's key 0.
     * @param keys        Keys owned by this writer.
     * @param may_evict   Whether the workload's key space exceeds the
     *                    cache, so misses are legal (and budgeted by
     *                    the eviction counter at the end).
     */
    KeyChecker(std::uint32_t first_key, std::uint32_t keys, bool may_evict)
        : firstKey_(first_key), mayEvict_(may_evict), issued_(keys, 0),
          acked_(keys, 0), missedSeq_(keys, 0), scratch_(64)
    {
    }

    std::uint32_t keyId(std::uint32_t idx) const { return firstKey_ + idx; }

    /** Sequence for the next write of key @p idx. */
    std::uint32_t issue(std::uint32_t idx) { return ++issued_[idx]; }

    /** The program stored (key, seq). */
    void ack(std::uint32_t idx, std::uint32_t seq) { acked_[idx] = seq; }

    std::uint32_t acked(std::uint32_t idx) const { return acked_[idx]; }

    /** Judge a GET hit returning @p len bytes at @p data. */
    Verdict
    hit(std::uint32_t idx, const char *data, std::size_t len,
        std::size_t expect_len)
    {
        const std::uint32_t seq = acked_[idx];
        if (scratch_.size() < expect_len)
            scratch_.resize(expect_len);
        deriveValue(scratch_.data(), expect_len, keyId(idx), seq);
        if (len == expect_len && std::memcmp(data, scratch_.data(), len) == 0)
            return Verdict::Ok;
        unsigned got_key = 0;
        unsigned got_seq = 0;
        if (len >= kValueHeader &&
            std::sscanf(std::string(data, kValueHeader).c_str(), "%8x:%8x:",
                        &got_key, &got_seq) == 2) {
            if (got_key != keyId(idx))
                return Verdict::ForeignKey;
            if (got_seq < seq)
                return Verdict::Stale;
            if (got_seq > seq)
                return Verdict::Unacked;
        }
        return Verdict::Torn;
    }

    /** Judge a GET miss; counts each missed (key, seq) version once. */
    Verdict
    miss(std::uint32_t idx)
    {
        if (!mayEvict_)
            return Verdict::UnexpectedMiss;
        if (missedSeq_[idx] != acked_[idx]) {
            missedSeq_[idx] = acked_[idx];
            ++missedVersions_;
        }
        return Verdict::Ok;
    }

    /** Distinct acknowledged versions that a GET found missing. Each
     *  needs an eviction of its own, so the run-end check is
     *  missedVersions <= evictions. */
    std::uint64_t missedVersions() const { return missedVersions_; }

  private:
    std::uint32_t firstKey_;
    bool mayEvict_;
    std::vector<std::uint32_t> issued_;
    std::vector<std::uint32_t> acked_;
    std::vector<std::uint32_t> missedSeq_;
    std::uint64_t missedVersions_ = 0;
    std::vector<char> scratch_;
};

/** Run-end rule: every missed version needs an eviction. */
inline bool
missesExplained(std::uint64_t missed_versions, std::uint64_t evictions)
{
    return missed_versions <= evictions;
}

/**
 * Feed the checker one good outcome and four bad ones; each bad one
 * must be rejected with its own verdict. @return empty on success,
 * else what went wrong.
 */
inline std::string
checkerSelfTest()
{
    constexpr std::size_t kLen = 100;
    std::vector<char> v(kLen);
    KeyChecker kc(/*first_key=*/40, /*keys=*/4, /*may_evict=*/false);
    const std::uint32_t s1 = kc.issue(1);
    kc.ack(1, s1);
    const std::uint32_t s2 = kc.issue(1);
    kc.ack(1, s2);
    kc.ack(2, kc.issue(2));

    auto expect = [](Verdict got, Verdict want, const char *what) {
        if (got == want)
            return std::string();
        return std::string(what) + ": got '" + verdictName(got) +
               "', want '" + verdictName(want) + "'; ";
    };
    std::string err;
    deriveValue(v.data(), kLen, kc.keyId(1), s2);
    err += expect(kc.hit(1, v.data(), kLen, kLen), Verdict::Ok, "current value");
    deriveValue(v.data(), kLen, kc.keyId(1), s1);
    err += expect(kc.hit(1, v.data(), kLen, kLen), Verdict::Stale,
                  "older sequence stamp");
    std::vector<char> torn(kLen);
    deriveValue(torn.data(), kLen, kc.keyId(1), s2);
    std::memcpy(torn.data() + kLen / 2, v.data() + kLen / 2, kLen / 2);
    err += expect(kc.hit(1, torn.data(), kLen, kLen), Verdict::Torn,
                  "torn value");
    deriveValue(v.data(), kLen, kc.keyId(2), kc.acked(2));
    err += expect(kc.hit(1, v.data(), kLen, kLen), Verdict::ForeignKey,
                  "value of another key");
    err += expect(kc.miss(1), Verdict::UnexpectedMiss,
                  "miss that no eviction explains");

    // With evictions possible the miss is legal, but it still needs an
    // eviction to have happened by the end of the run.
    KeyChecker ke(0, 2, /*may_evict=*/true);
    ke.ack(0, ke.issue(0));
    err += expect(ke.miss(0), Verdict::Ok, "miss under eviction");
    if (missesExplained(ke.missedVersions(), /*evictions=*/0))
        err += "miss with zero evictions was accepted at run end; ";
    return err;
}

} // namespace perfbench

#endif // TMEMC_PERFBENCH_GEN_H
