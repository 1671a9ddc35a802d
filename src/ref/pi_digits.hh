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
 *
 * One pass over the power P = coeff / x^(2k+1) yields M consecutive
 * terms at once, term k+j being P / (x^(2j) (2k+2j+1)) for j < M, and
 * the next power P / x^(2M). A pass thus costs M+1 independent
 * remainder chains over the same limbs and one add pass for the M
 * signed terms, where one term per pass costs two dependent divide
 * passes and an add pass per term. M is the largest group whose
 * divisors all fit in 32 bits for every term the series reaches, so
 * that (remainder << 32) | limb fits in 64: for Blowfish's table, 4 for
 * x = 5 and 2 for x = 239. Each limb division multiplies by the
 * divisor's precomputed reciprocal and corrects once, which gives the
 * exact floor without a divide instruction.
 *
 * Grouping changes no bit of the result: for positive integers
 * floor(floor(a / b) / c) = floor(a / (b c)), and limb-wise long
 * division is an exact floor, so every term and every power equals the
 * one-term-per-pass value (a test keeps that loop as an oracle). Each
 * such term truncates twice, in its power and in its own division, so
 * it is off by at most 2 ulps of the last limb; ~9.3 k terms for the
 * 1,042 Blowfish words keep the total below 2^15 ulps, far inside the
 * 128 guard bits. The first word is checked against the well-known
 * value 0x243F6A88 (which is also Blowfish's P[0]).
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
