#include "ref/pi_digits.hh"

#include "common/logging.hh"

namespace dlp::ref {

namespace {

/** Guard limbs below the returned words; see the error bound in the
 *  header. */
constexpr size_t kGuardLimbs = 4;

/** A fixed-point number in 32-bit limbs, most-significant first: limb 0
 *  is the integer part, the rest are the fraction. */
using Fixed = std::vector<uint32_t>;

/** out = x / d, truncated, where x's limbs before `lead` are zero; only
 *  out's limbs from `lead` on are written. */
void
divideInto(const Fixed &x, size_t lead, uint32_t d, Fixed &out)
{
    uint64_t rem = 0;
    for (size_t i = lead; i < x.size(); ++i) {
        uint64_t cur = (rem << 32) | x[i];
        out[i] = static_cast<uint32_t>(cur / d);
        rem = cur % d;
    }
}

/** acc += term (or -= term), where term's limbs before `lead` are
 *  zero. Wraps modulo 2^(32 * size) like unsigned arithmetic. */
void
accumulate(Fixed &acc, const Fixed &term, size_t lead, bool subtract)
{
    uint64_t carry = 0;
    for (size_t i = acc.size(); i-- > 0 && (i >= lead || carry);) {
        uint64_t t = i >= lead ? term[i] : 0;
        uint64_t cur = subtract ? uint64_t(acc[i]) - t - carry
                                : uint64_t(acc[i]) + t + carry;
        acc[i] = static_cast<uint32_t>(cur);
        carry = subtract ? (cur >> 63) : (cur >> 32);
    }
}

/** acc += coeff * atan(1/x) (or -=), by the Gregory series
 *  sum_k (-1)^k / ((2k+1) x^(2k+1)). */
void
addArctanInverse(Fixed &acc, uint32_t coeff, uint32_t x, bool subtract)
{
    Fixed power(acc.size(), 0), term(acc.size());
    power[0] = coeff;
    divideInto(power, 0, x, power); // coeff / x
    const uint32_t x2 = x * x;
    size_t lead = 0;
    for (uint32_t k = 0; lead < power.size(); ++k) {
        divideInto(power, lead, 2 * k + 1, term);
        accumulate(acc, term, lead, subtract != (k % 2 == 1));
        divideInto(power, lead, x2, power); // coeff / x^(2k+3)
        while (lead < power.size() && power[lead] == 0)
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
