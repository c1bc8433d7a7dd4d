/**
 * @file
 * Small helpers shared by the end-to-end benchmark's translation
 * units: the clock, a seeded generator that is independent of the
 * library's own RNG (so generated inputs never depend on the code
 * under test), order statistics, and a tiny JSON writer.
 */

#ifndef QRA_E2EBENCH_COMMON_HH
#define QRA_E2EBENCH_COMMON_HH

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <string>
#include <vector>

namespace e2e {

using Clock = std::chrono::steady_clock;

/** Nanoseconds on the steady clock (span timestamps). */
inline std::int64_t
nowNs()
{
    return std::chrono::duration_cast<std::chrono::nanoseconds>(
               Clock::now().time_since_epoch())
        .count();
}

/** splitmix64: the benchmark's own input generator. */
class InputRng
{
  public:
    explicit InputRng(std::uint64_t seed) : state_(seed) {}

    std::uint64_t next()
    {
        std::uint64_t z = (state_ += 0x9e3779b97f4a7c15ULL);
        z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
        z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
        return z ^ (z >> 31);
    }

    /** Uniform integer in [0, n). */
    std::size_t below(std::size_t n) { return next() % n; }

    /** Uniform double in [0, 1). */
    double uniform() { return (next() >> 11) * 0x1.0p-53; }

  private:
    std::uint64_t state_;
};

/** Independent stream @p index of @p seed (one per job / payload). */
inline std::uint64_t
streamSeed(std::uint64_t seed, std::uint64_t index)
{
    InputRng rng(seed ^ (0xd1b54a32d192ed03ULL * (index + 1)));
    return rng.next();
}

/** Linear-interpolated quantile q in [0, 1] of @p values. */
inline double
quantile(std::vector<double> values, double q)
{
    if (values.empty())
        return 0.0;
    std::sort(values.begin(), values.end());
    const double pos = q * static_cast<double>(values.size() - 1);
    const std::size_t lo = static_cast<std::size_t>(pos);
    const std::size_t hi = std::min(lo + 1, values.size() - 1);
    return values[lo] + (pos - lo) * (values[hi] - values[lo]);
}

inline double
median(std::vector<double> values)
{
    return quantile(std::move(values), 0.5);
}

inline double
mean(const std::vector<double> &values)
{
    if (values.empty())
        return 0.0;
    double sum = 0.0;
    for (double v : values)
        sum += v;
    return sum / static_cast<double>(values.size());
}

/**
 * The highest of the usual tail percentiles that still has at least
 * ten samples beyond it, as a fraction (0.99, 0.95, ...); 0.5 when
 * even the median has fewer than ten samples above it.
 */
inline double
tailLevel(std::size_t samples)
{
    for (double level : {0.999, 0.99, 0.95, 0.9, 0.75})
        if (static_cast<double>(samples) * (1.0 - level) >= 10.0)
            return level;
    return 0.5;
}

/** Wilson score interval half-width for k successes in n trials. */
inline double
wilsonHalfWidth(double k, double n, double z)
{
    if (n <= 0.0)
        return 1.0;
    const double p = k / n;
    const double z2 = z * z;
    const double denom = 1.0 + z2 / n;
    return z * std::sqrt(p * (1.0 - p) / n + z2 / (4.0 * n * n)) /
           denom;
}

/** Wilson score interval centre for k successes in n trials. */
inline double
wilsonCentre(double k, double n, double z)
{
    const double z2 = z * z;
    return (k + z2 / 2.0) / (n + z2);
}

/** Minimal streaming JSON object writer (flat or nested objects). */
class Json
{
  public:
    Json &key(const std::string &k)
    {
        comma();
        out_ += '"' + escape(k) + "\":";
        fresh_ = true;
        return *this;
    }

    Json &str(const std::string &v)
    {
        value('"' + escape(v) + '"');
        return *this;
    }

    Json &num(double v)
    {
        char buf[64];
        if (!std::isfinite(v))
            std::snprintf(buf, sizeof buf, "null");
        else
            std::snprintf(buf, sizeof buf, "%.17g", v);
        value(buf);
        return *this;
    }

    Json &integer(long long v)
    {
        value(std::to_string(v));
        return *this;
    }

    Json &boolean(bool v)
    {
        value(v ? "true" : "false");
        return *this;
    }

    /** Splice an already-serialised JSON value. */
    Json &raw(const std::string &json)
    {
        value(json);
        return *this;
    }

    Json &open()
    {
        value("{");
        fresh_ = true;
        return *this;
    }

    Json &close()
    {
        out_ += '}';
        fresh_ = false;
        return *this;
    }

    const std::string &text() const { return out_; }

  private:
    static std::string escape(const std::string &s)
    {
        std::string r;
        for (char c : s) {
            if (c == '"' || c == '\\')
                r += '\\';
            if (static_cast<unsigned char>(c) < 0x20)
                continue;
            r += c;
        }
        return r;
    }

    void comma()
    {
        if (!fresh_)
            out_ += ',';
    }

    void value(const std::string &v)
    {
        if (!fresh_)
            out_ += ',';
        out_ += v;
        fresh_ = false;
    }

    std::string out_;
    bool fresh_ = true;
};

} // namespace e2e

#endif // QRA_E2EBENCH_COMMON_HH
