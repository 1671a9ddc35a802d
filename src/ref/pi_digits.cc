#include "ref/pi_digits.hh"

#include <bit>
#include <limits>

#include "common/logging.hh"

namespace dlp::ref {

namespace {

/** Guard limbs below the returned words; see the error bound in the
 *  header. */
constexpr size_t kGuardLimbs = 4;

/** Largest divisor of a limb-wise long division: the remainder stays
 *  below it, so (rem << 32) | limb fits in 64 bits. */
constexpr uint64_t kMaxDivisor = std::numeric_limits<uint32_t>::max();

/** Upper bound on the terms per pass, which sizes the chain state. */
constexpr unsigned kMaxGroup = 8;

/** A fixed-point number in 32-bit limbs, most-significant first: limb 0
 *  is the integer part, the rest are the fraction. */
using Fixed = std::vector<uint32_t>;

/**
 * Long division by one divisor d < 2^32 through its reciprocal
 * inv = floor((2^64 - 1) / d). For n < 2^64, n * inv / 2^64 lies in
 * (n/d - 1, n/d], so its integer part is floor(n/d) or one less, and
 * one correction gives the same exact floor as a divide instruction, at
 * the cost of two multiplies.
 */
class Reciprocal
{
  public:
    Reciprocal() = default;

    explicit Reciprocal(uint64_t divisor) : d(divisor)
    {
        panic_if(d == 0 || d > kMaxDivisor,
                 "pi series divisor %llu does not fit in 32 bits",
                 static_cast<unsigned long long>(d));
        inv = ~uint64_t(0) / d;
    }

    /** floor((rem << 32 | limb) / d); rem < d becomes the new
     *  remainder. */
    uint32_t
    divide(uint64_t &rem, uint32_t limb) const
    {
        uint64_t n = (rem << 32) | limb;
        uint64_t q = static_cast<uint64_t>(
            (static_cast<unsigned __int128>(n) * inv) >> 64);
        uint64_t r = n - q * d;
        bool under = r >= d; // q was one less than the floor
        rem = under ? r - d : r;
        return static_cast<uint32_t>(q + under);
    }

  private:
    uint64_t d = 1;
    uint64_t inv = 0;
};

/** acc += delta (or -= delta), where delta holds one signed value per
 *  limb and is zero before `lead`. Wraps modulo 2^(32 * size) like
 *  unsigned arithmetic. */
void
accumulate(Fixed &acc, const std::vector<int64_t> &delta, size_t lead,
           bool subtract)
{
    int64_t carry = 0;
    for (size_t i = acc.size(); i-- > 0 && (i >= lead || carry);) {
        int64_t d = i >= lead ? delta[i] : 0;
        int64_t cur = int64_t(acc[i]) + (subtract ? -d : d) + carry;
        acc[i] = static_cast<uint32_t>(cur);
        carry = cur >> 32; // arithmetic shift: a borrow is -1
    }
}

/**
 * Gregory terms per pass for atan(1/x) over `limbs` limbs: the largest
 * M (at most kMaxGroup) whose divisors x^(2M) and x^(2j) (2k+2j+1),
 * j < M, fit in 32 bits for every term index k the series reaches. A
 * power coeff / x^(2k+1) is nonzero only while x^(2k+1) < 2^(32 limbs),
 * so 2k+1 < 32 limbs / floor(log2 x).
 */
unsigned
groupSize(uint32_t x, size_t limbs)
{
    panic_if(x < 2, "atan(1/%u): x must be at least 2", x);
    const uint64_t x2 = uint64_t(x) * x;
    const uint64_t maxOdd = 32 * uint64_t(limbs) / (std::bit_width(x) - 1);
    unsigned m = 0;
    uint64_t x2m = 1; // x^(2m)
    while (m < kMaxGroup && x2m * x2 <= kMaxDivisor &&
           x2m * (maxOdd + 2 * m) <= kMaxDivisor) {
        x2m *= x2;
        ++m;
    }
    panic_if(m == 0, "atan(1/%u) over %zu limbs: no divisor fits in 32 bits",
             x, limbs);
    return m;
}

/**
 * acc += coeff * atan(1/x) (or -=), by the Gregory series
 * sum_k (-1)^k / ((2k+1) x^(2k+1)). One pass over the power
 * coeff / x^(2k+1) yields M terms, term k+j being
 * power / (x^(2j) (2k+2j+1)), and the next power, power / x^(2M): M+1
 * independent remainder chains over the same limbs.
 */
void
addArctanInverse(Fixed &acc, uint32_t coeff, uint32_t x, bool subtract)
{
    const size_t n = acc.size();
    const unsigned m = groupSize(x, n);
    const uint64_t x2 = uint64_t(x) * x;
    Fixed power(n, 0);
    std::vector<int64_t> delta(n);
    power[0] = coeff;
    const Reciprocal byX(x);
    uint64_t rem0 = 0;
    for (uint32_t &limb : power)
        limb = byX.divide(rem0, limb); // coeff / x
    size_t lead = 0;
    for (uint64_t k = 0; lead < n; k += m) {
        Reciprocal by[kMaxGroup + 1]; // the M term divisors, then x^(2M)
        uint64_t x2j = 1;
        for (unsigned j = 0; j < m; ++j, x2j *= x2)
            by[j] = Reciprocal(x2j * (2 * k + 2 * j + 1));
        by[m] = Reciprocal(x2j);

        uint64_t rem[kMaxGroup + 1] = {};
        for (size_t i = lead; i < n; ++i) {
            int64_t sum = 0; // terms alternate in sign within the group
            for (unsigned j = 0; j < m; ++j) {
                int64_t q = by[j].divide(rem[j], power[i]);
                sum += j % 2 ? -q : q;
            }
            power[i] = by[m].divide(rem[m], power[i]);
            delta[i] = sum;
        }
        accumulate(acc, delta, lead, subtract != (k % 2 == 1));
        while (lead < n && power[lead] == 0)
            ++lead;
    }
}

} // namespace

std::vector<uint32_t>
piFractionWords(size_t count)
{
    Fixed pi(1 + count + kGuardLimbs, 0);
    addArctanInverse(pi, 16, 5, false);
    addArctanInverse(pi, 4, 239, true);

    std::vector<uint32_t> words(pi.begin() + 1, pi.begin() + 1 + count);
    panic_if(count > 0 && words[0] != 0x243F6A88u,
             "pi self-check failed: first pi word 0x%08x", words[0]);
    return words;
}

} // namespace dlp::ref
