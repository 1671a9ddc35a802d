/**
 * @file
 * Hexadecimal digits of pi from one fixed-point Machin series.
 *
 * Blowfish initializes its P-array and S-boxes from the fractional hex
 * digits of pi. Rather than embedding kilobytes of literal tables, we
 * compute them in bulk from Machin's formula,
 *
 *     pi = 16 atan(1/5) - 4 atan(1/239),
 *
 * summed in a big fixed-point number of 32-bit limbs: limb 0 is the
 * integer part, then the requested fraction limbs, then 4 guard limbs.
 * Each series term costs two divide-by-small-integer passes and one add
 * or subtract, and each of those passes truncates. A term is therefore
 * off by at most 2 ulps of the last limb; ~9.3 k terms for the 1,042
 * Blowfish words keep the total below 2^15 ulps, far inside the 128
 * guard bits. The first word is checked against the well-known value
 * 0x243F6A88 (which is also Blowfish's P[0]).
 */

#ifndef DLP_REF_PI_DIGITS_HH
#define DLP_REF_PI_DIGITS_HH

#include <cstddef>
#include <cstdint>
#include <vector>

namespace dlp::ref {

/**
 * Return `count` 32-bit words of the fractional hex expansion of pi,
 * most-significant digit first (word 0 is 0x243F6A88). A shorter table
 * is always a prefix of a longer one.
 */
std::vector<uint32_t> piFractionWords(size_t count);

} // namespace dlp::ref

#endif // DLP_REF_PI_DIGITS_HH
