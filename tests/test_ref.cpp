/**
 * @file
 * Golden-model validation: every reference implementation is checked
 * against published test vectors or an independent direct-definition
 * computation before it is trusted as the oracle for the simulator.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstring>
#include <vector>

#include "common/random.hh"
#include "ref/blowfish.hh"
#include "ref/dsp.hh"
#include "ref/fft.hh"
#include "ref/linalg.hh"
#include "ref/md5.hh"
#include "ref/pi_digits.hh"
#include "ref/rijndael.hh"
#include "ref/shading.hh"
#include "ref/texture.hh"

using namespace dlp;
using namespace dlp::ref;

// --------------------------------------------------------------------------
// Pi digits (Machin series, checked against BBP digit extraction)
// --------------------------------------------------------------------------

namespace {

/** 16^e mod m (m fits in 32 bits, so 64-bit products cannot overflow). */
uint64_t
powmod16(uint64_t e, uint64_t m)
{
    if (m == 1)
        return 0;
    uint64_t result = 1 % m;
    uint64_t base = 16 % m;
    while (e) {
        if (e & 1)
            result = (result * base) % m;
        base = (base * base) % m;
        e >>= 1;
    }
    return result;
}

/**
 * Fractional part of sum_k 16^(n-k) / (8k + j), in 2^-64 fixed point.
 *
 * Head terms (k <= n) are computed exactly with 128-bit division of the
 * modular numerator; tail terms (k > n) decay by 16x each and only the
 * first few matter.
 */
uint64_t
seriesFrac(uint64_t n, uint64_t j)
{
    uint64_t acc = 0; // wraps mod 2^64, which is exactly "mod 1"

    for (uint64_t k = 0; k <= n; ++k) {
        uint64_t m = 8 * k + j;
        uint64_t num = powmod16(n - k, m);
        // (num / m) in 2^-64 fixed point, truncated.
        acc += static_cast<uint64_t>(
            (static_cast<unsigned __int128>(num) << 64) / m);
    }

    // Tail: 16^(n-k) = 16^-(k-n) for k > n.
    long double tail = 0.0L;
    for (uint64_t k = n + 1; k <= n + 18; ++k) {
        long double term = 1.0L;
        for (uint64_t p = 0; p < k - n; ++p)
            term /= 16.0L;
        tail += term / static_cast<long double>(8 * k + j);
    }
    acc += static_cast<uint64_t>(tail * 18446744073709551616.0L);
    return acc;
}

/**
 * Eight hex digits (one 32-bit word) of pi starting at hex-digit
 * position n (n = 0 is the first fractional digit, '2'), extracted
 * independently of every other word with the Bailey-Borwein-Plouffe
 * formula. An oracle for piFractionWords, too slow to build the table.
 */
uint32_t
piHexWordAt(uint64_t n)
{
    // frac(16^n * pi) = frac(4 S1 - 2 S4 - S5 - S6); all arithmetic is
    // naturally mod 1 in 2^-64 fixed point.
    uint64_t s1 = seriesFrac(n, 1);
    uint64_t s4 = seriesFrac(n, 4);
    uint64_t s5 = seriesFrac(n, 5);
    uint64_t s6 = seriesFrac(n, 6);
    uint64_t frac = 4 * s1 - 2 * s4 - s5 - s6;
    return static_cast<uint32_t>(frac >> 32);
}

/** Blowfish's whole initial state: 18 P words and four 256-word S-boxes. */
constexpr size_t kBlowfishPiWords = 18 + 4 * 256;

} // namespace

TEST(PiDigits, FirstWordsMatchKnownExpansion)
{
    // 3.243F6A88 85A308D3 13198A2E 03707344 A4093822 299F31D0 ...
    auto words = piFractionWords(6);
    EXPECT_EQ(words[0], 0x243F6A88u);
    EXPECT_EQ(words[1], 0x85A308D3u);
    EXPECT_EQ(words[2], 0x13198A2Eu);
    EXPECT_EQ(words[3], 0x03707344u);
    EXPECT_EQ(words[4], 0xA4093822u);
    EXPECT_EQ(words[5], 0x299F31D0u);
}

TEST(PiDigits, DeepDigitsSelfConsistent)
{
    // Word at an offset position must agree with digits of an
    // overlapping extraction (catches precision loss in the tail sums).
    uint32_t w0 = piHexWordAt(1000);
    uint32_t w1 = piHexWordAt(1004);
    EXPECT_EQ(w0 & 0xffffu, w1 >> 16);
}

TEST(PiDigits, PublishedBlowfishWords)
{
    auto words = piFractionWords(kBlowfishPiWords);
    ASSERT_EQ(words.size(), kBlowfishPiWords);

    const uint32_t pArray[18] = {
        0x243F6A88, 0x85A308D3, 0x13198A2E, 0x03707344, 0xA4093822,
        0x299F31D0, 0x082EFA98, 0xEC4E6C89, 0x452821E6, 0x38D01377,
        0xBE5466CF, 0x34E90C6C, 0xC0AC29B7, 0xC97C50DD, 0x3F84D5B5,
        0xB5470917, 0x9216D5D9, 0x8979FB1B,
    };
    for (size_t i = 0; i < 18; ++i)
        EXPECT_EQ(words[i], pArray[i]) << "P[" << i << "]";

    // First and last word of each S-box.
    const uint32_t sboxEnds[4][2] = {
        {0xD1310BA6, 0x6E85076A},
        {0x4B7A70E9, 0xDB83ADF7},
        {0xE93D5A68, 0x406000E0},
        {0x3A39CE37, 0x3AC372E6},
    };
    for (size_t s = 0; s < 4; ++s) {
        EXPECT_EQ(words[18 + 256 * s], sboxEnds[s][0]) << "S" << s << "[0]";
        EXPECT_EQ(words[18 + 256 * s + 255], sboxEnds[s][1])
            << "S" << s << "[255]";
    }
}

TEST(PiDigits, MatchesBbpSpotChecks)
{
    auto words = piFractionWords(kBlowfishPiWords);
    std::vector<size_t> probes;
    for (size_t i = 0; i < kBlowfishPiWords; i += 61)
        probes.push_back(i);
    probes.push_back(kBlowfishPiWords - 1);
    for (size_t i : probes)
        EXPECT_EQ(words[i], piHexWordAt(8 * i)) << "word " << i;
}

TEST(PiDigits, ShorterTablesArePrefixes)
{
    auto full = piFractionWords(kBlowfishPiWords);
    for (size_t count : {size_t(0), size_t(1), size_t(18),
                         kBlowfishPiWords - 1, kBlowfishPiWords}) {
        auto words = piFractionWords(count);
        ASSERT_EQ(words.size(), count);
        EXPECT_TRUE(std::equal(words.begin(), words.end(), full.begin()))
            << "count " << count;
    }
}

namespace {

/** out = x / d, truncated, from limb `lead` on (limbs before it are 0). */
void
oneTermDivide(const std::vector<uint32_t> &x, size_t lead, uint32_t d,
              std::vector<uint32_t> &out)
{
    uint64_t rem = 0;
    for (size_t i = lead; i < x.size(); ++i) {
        uint64_t cur = (rem << 32) | x[i];
        out[i] = static_cast<uint32_t>(cur / d);
        rem = cur % d;
    }
}

/** acc += term (or -= term), modulo 2^(32 * size). */
void
oneTermAccumulate(std::vector<uint32_t> &acc,
                  const std::vector<uint32_t> &term, size_t lead,
                  bool subtract)
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

/** acc += coeff * atan(1/x) (or -=), one Gregory term per pass: divide
 *  the power by 2k+1 for the term, add it, divide the power by x^2. */
void
oneTermArctan(std::vector<uint32_t> &acc, uint32_t coeff, uint32_t x,
              bool subtract)
{
    std::vector<uint32_t> power(acc.size(), 0), term(acc.size());
    power[0] = coeff;
    oneTermDivide(power, 0, x, power);
    size_t lead = 0;
    for (uint32_t k = 0; lead < power.size(); ++k) {
        oneTermDivide(power, lead, 2 * k + 1, term);
        oneTermAccumulate(acc, term, lead, subtract != (k % 2 == 1));
        oneTermDivide(power, lead, x * x, power);
        while (lead < power.size() && power[lead] == 0)
            ++lead;
    }
}

/**
 * piFractionWords computed one Machin term per pass, with the same limb
 * layout and 4 guard limbs. The grouped series must return exactly
 * these words, since grouping only merges floors.
 */
std::vector<uint32_t>
oneTermPiWords(size_t count)
{
    std::vector<uint32_t> pi(1 + count + 4, 0);
    oneTermArctan(pi, 16, 5, false);
    oneTermArctan(pi, 4, 239, true);
    return {pi.begin() + 1, pi.begin() + 1 + count};
}

} // namespace

TEST(PiDigits, GroupedSeriesMatchesOneTermReference)
{
    for (size_t count : {size_t(0), size_t(1), size_t(2), size_t(17),
                         size_t(18), kBlowfishPiWords - 1, kBlowfishPiWords,
                         size_t(4096)}) {
        auto want = oneTermPiWords(count);
        auto got = piFractionWords(count);
        ASSERT_EQ(got.size(), count);
        auto [g, w] = std::mismatch(got.begin(), got.end(), want.begin());
        EXPECT_EQ(g, got.end())
            << "count " << count << ": word " << (g - got.begin())
            << " is 0x" << std::hex << *g << ", expected 0x" << *w;
    }
}

// --------------------------------------------------------------------------
// MD5 (RFC 1321 appendix vectors)
// --------------------------------------------------------------------------

static std::string
md5Of(const std::string &s)
{
    return md5Hex(
        md5Digest(reinterpret_cast<const uint8_t *>(s.data()), s.size()));
}

TEST(Md5, Rfc1321Vectors)
{
    EXPECT_EQ(md5Of(""), "d41d8cd98f00b204e9800998ecf8427e");
    EXPECT_EQ(md5Of("a"), "0cc175b9c0f1b6a831c399e269772661");
    EXPECT_EQ(md5Of("abc"), "900150983cd24fb0d6963f7d28e17f72");
    EXPECT_EQ(md5Of("message digest"), "f96b697d7cb7938d525a2f31aaf161d0");
    EXPECT_EQ(md5Of("abcdefghijklmnopqrstuvwxyz"),
              "c3fcd3d76192e4007dfb496cca67e13b");
}

TEST(Md5, CompressMatchesDigestForOneChunk)
{
    // A 64-byte message exercises exactly one compress of data plus one
    // of padding; check compress() against the full digest pipeline.
    uint8_t msg[64];
    for (int i = 0; i < 64; ++i)
        msg[i] = static_cast<uint8_t>(i * 7 + 1);

    Md5State st = md5Init();
    uint32_t block[16];
    std::memcpy(block, msg, 64);
    md5Compress(st, block);

    // Continue with the padding chunk by hand.
    uint8_t pad[64] = {0x80};
    uint64_t bits = 64 * 8;
    std::memcpy(pad + 56, &bits, 8);
    std::memcpy(block, pad, 64);
    md5Compress(st, block);

    auto full = md5Digest(msg, 64);
    std::array<uint8_t, 16> mine;
    std::memcpy(mine.data(), st.data(), 16);
    EXPECT_EQ(mine, full);
}

// --------------------------------------------------------------------------
// Blowfish (Eric Young / SSLeay reference vectors)
// --------------------------------------------------------------------------

TEST(Blowfish, ReferenceVectors)
{
    struct Vec
    {
        uint64_t key, plain, cipher;
    };
    // From the canonical Blowfish vector set.
    const Vec vecs[] = {
        {0x0000000000000000ull, 0x0000000000000000ull, 0x4EF997456198DD78ull},
        {0xFFFFFFFFFFFFFFFFull, 0xFFFFFFFFFFFFFFFFull, 0x51866FD5B85ECB8Aull},
        {0x3000000000000000ull, 0x1000000000000001ull, 0x7D856F9A613063F2ull},
        {0x1111111111111111ull, 0x1111111111111111ull, 0x2466DD878B963C9Dull},
        {0x0123456789ABCDEFull, 0x1111111111111111ull, 0x61F9C3802281B096ull},
    };
    for (const auto &v : vecs) {
        uint8_t key[8];
        for (int i = 0; i < 8; ++i)
            key[i] = static_cast<uint8_t>(v.key >> (56 - 8 * i));
        Blowfish bf(key, 8);
        uint32_t l = static_cast<uint32_t>(v.plain >> 32);
        uint32_t r = static_cast<uint32_t>(v.plain);
        bf.encrypt(l, r);
        EXPECT_EQ((uint64_t(l) << 32) | r, v.cipher);
        bf.decrypt(l, r);
        EXPECT_EQ((uint64_t(l) << 32) | r, v.plain);
    }
}

TEST(Blowfish, PBoxStartsWithPi)
{
    // Before key mixing P[0] is 0x243F6A88; after expansion with a
    // non-degenerate key it must differ.
    uint8_t key[8] = {1, 2, 3, 4, 5, 6, 7, 8};
    Blowfish bf(key, 8);
    EXPECT_NE(bf.pArray()[0], 0x243F6A88u);
}

// --------------------------------------------------------------------------
// AES-128 (FIPS-197 vectors)
// --------------------------------------------------------------------------

TEST(Aes128, Fips197AppendixB)
{
    const uint8_t key[16] = {0x2b, 0x7e, 0x15, 0x16, 0x28, 0xae, 0xd2, 0xa6,
                             0xab, 0xf7, 0x15, 0x88, 0x09, 0xcf, 0x4f, 0x3c};
    const uint8_t plain[16] = {0x32, 0x43, 0xf6, 0xa8, 0x88, 0x5a, 0x30,
                               0x8d, 0x31, 0x31, 0x98, 0xa2, 0xe0, 0x37,
                               0x07, 0x34};
    const uint8_t expect[16] = {0x39, 0x25, 0x84, 0x1d, 0x02, 0xdc, 0x09,
                                0xfb, 0xdc, 0x11, 0x85, 0x97, 0x19, 0x6a,
                                0x0b, 0x32};
    Aes128 aes(key);
    uint8_t out[16];
    aes.encrypt(plain, out);
    EXPECT_EQ(0, std::memcmp(out, expect, 16));
}

TEST(Aes128, Fips197AppendixC)
{
    const uint8_t key[16] = {0x00, 0x01, 0x02, 0x03, 0x04, 0x05, 0x06, 0x07,
                             0x08, 0x09, 0x0a, 0x0b, 0x0c, 0x0d, 0x0e, 0x0f};
    const uint8_t plain[16] = {0x00, 0x11, 0x22, 0x33, 0x44, 0x55, 0x66,
                               0x77, 0x88, 0x99, 0xaa, 0xbb, 0xcc, 0xdd,
                               0xee, 0xff};
    const uint8_t expect[16] = {0x69, 0xc4, 0xe0, 0xd8, 0x6a, 0x7b, 0x04,
                                0x30, 0xd8, 0xcd, 0xb7, 0x80, 0x70, 0xb4,
                                0xc5, 0x5a};
    Aes128 aes(key);
    uint8_t out[16];
    aes.encrypt(plain, out);
    EXPECT_EQ(0, std::memcmp(out, expect, 16));
}

TEST(Aes128, TTableMatchesSpecificationForm)
{
    Rng rng(42);
    for (int trial = 0; trial < 50; ++trial) {
        uint8_t key[16], plain[16], a[16], b[16];
        for (auto &k : key)
            k = static_cast<uint8_t>(rng.next());
        for (auto &p : plain)
            p = static_cast<uint8_t>(rng.next());
        Aes128 aes(key);
        aes.encrypt(plain, a);
        aes.encryptTTable(plain, b);
        ASSERT_EQ(0, std::memcmp(a, b, 16)) << "trial " << trial;
    }
}

TEST(Aes128, SboxSpotChecks)
{
    const auto &s = aesSbox();
    EXPECT_EQ(s[0x00], 0x63);
    EXPECT_EQ(s[0x01], 0x7c);
    EXPECT_EQ(s[0x53], 0xed);
    EXPECT_EQ(s[0xff], 0x16);
}

// --------------------------------------------------------------------------
// DSP
// --------------------------------------------------------------------------

TEST(Dsp, DctButterflyMatchesNaive)
{
    Rng rng(7);
    for (int trial = 0; trial < 20; ++trial) {
        double in[64], fast[64], naive[64];
        for (auto &v : in)
            v = rng.uniform(-128, 128);
        dct8x8(in, fast);
        dct8x8Naive(in, naive);
        for (int i = 0; i < 64; ++i)
            ASSERT_NEAR(fast[i], naive[i], 1e-9) << "coef " << i;
    }
}

TEST(Dsp, Dct1dDcCoefficientIsSum)
{
    double in[8] = {1, 2, 3, 4, 5, 6, 7, 8};
    double out[8];
    dct1d8(in, out);
    EXPECT_NEAR(out[0], 36.0, 1e-12);
}

TEST(Dsp, RgbToYiqKnownValues)
{
    // Pure white has zero chroma.
    double rgb[3] = {1.0, 1.0, 1.0};
    double yiq[3];
    rgbToYiq(rgb, yiq);
    EXPECT_NEAR(yiq[0], 1.0, 1e-12);
    EXPECT_NEAR(yiq[1], 0.0, 1e-12);
    EXPECT_NEAR(yiq[2], 0.0, 1e-12);
}

TEST(Dsp, HighpassFlatFieldIsZero)
{
    double window[9];
    for (auto &v : window)
        v = 42.0;
    EXPECT_NEAR(highpass3x3(window), 0.0, 1e-9);
}

// --------------------------------------------------------------------------
// FFT
// --------------------------------------------------------------------------

TEST(Fft, MatchesNaiveDft)
{
    Rng rng(11);
    std::vector<Complex> data(64);
    for (auto &c : data)
        c = Complex(rng.uniform(-1, 1), rng.uniform(-1, 1));
    auto expect = dftNaive(data);
    fft(data);
    for (size_t i = 0; i < data.size(); ++i) {
        ASSERT_NEAR(data[i].real(), expect[i].real(), 1e-9);
        ASSERT_NEAR(data[i].imag(), expect[i].imag(), 1e-9);
    }
}

TEST(Fft, ImpulseGivesFlatSpectrum)
{
    std::vector<Complex> data(1024, Complex(0, 0));
    data[0] = Complex(1, 0);
    fft(data);
    for (const auto &c : data) {
        ASSERT_NEAR(c.real(), 1.0, 1e-12);
        ASSERT_NEAR(c.imag(), 0.0, 1e-12);
    }
}

TEST(Fft, ButterflyIsTenOps)
{
    // Structural sanity: a'=a+wb, b'=a-wb for a simple case.
    double out[4];
    fftButterfly(1, 0, 1, 0, 0, -1, out); // w = -i, b = 1 -> wb = -i
    EXPECT_NEAR(out[0], 1.0, 1e-12);
    EXPECT_NEAR(out[1], -1.0, 1e-12);
    EXPECT_NEAR(out[2], 1.0, 1e-12);
    EXPECT_NEAR(out[3], 1.0, 1e-12);
}

// --------------------------------------------------------------------------
// LU
// --------------------------------------------------------------------------

TEST(Lu, ReconstructsOriginal)
{
    Matrix a = makeDominantMatrix(32, 3);
    Matrix lu = a;
    luDecompose(lu);
    Matrix back = luReconstruct(lu);
    EXPECT_LT(maxAbsDiff(a, back), 1e-9);
}

TEST(Lu, UpdateFormula)
{
    EXPECT_DOUBLE_EQ(luUpdate(10.0, 2.0, 3.0), 4.0);
}

// --------------------------------------------------------------------------
// Textures and shading
// --------------------------------------------------------------------------

TEST(Texture, PackUnpackRoundTrip)
{
    Word t = packTexel(0.25, 0.5, 1.0);
    EXPECT_NEAR(unpackChannel(t, 0), 0.25, 1e-4);
    EXPECT_NEAR(unpackChannel(t, 1), 0.5, 1e-4);
    EXPECT_NEAR(unpackChannel(t, 2), 1.0, 1e-4);
}

TEST(Texture, BilinearInterpolatesBetweenTexels)
{
    Texture2D tex(4, 4);
    // Bilinear at an integer texel center equals the texel itself.
    tex.fillNoise(5);
    double direct[3], sampled[3];
    Word texel = tex.texel(2, 3);
    for (unsigned c = 0; c < 3; ++c)
        direct[c] = unpackChannel(texel, c);
    tex.sampleBilinear(2.0, 3.0, sampled);
    for (unsigned c = 0; c < 3; ++c)
        EXPECT_NEAR(sampled[c], direct[c], 1e-12);
}

TEST(Texture, WrapsPowerOfTwo)
{
    Texture2D tex(8, 8);
    tex.fillNoise(9);
    EXPECT_EQ(tex.texel(9, 10), tex.texel(1, 2));
    EXPECT_EQ(tex.texel(-1, -1), tex.texel(7, 7));
}

TEST(CubeMapTest, ProjectMajorAxis)
{
    double u, v;
    unsigned f = CubeMap::project(1.0, 0.0, 0.0, 64, u, v);
    EXPECT_EQ(f, 0u);
    EXPECT_NEAR(u, 32.0, 1e-12);
    EXPECT_NEAR(v, 32.0, 1e-12);
    f = CubeMap::project(0.0, -2.0, 0.0, 64, u, v);
    EXPECT_EQ(f, 3u);
}

TEST(Shading, VertexSimpleLightingTerms)
{
    auto p = makeVertexSimpleParams(17);
    // A normal pointing exactly along the light maximizes diffuse.
    double in[7] = {0, 0, 0, p.lightDir.x, p.lightDir.y, p.lightDir.z, 1.0};
    // Undo the normal matrix: feed nrm^T * lightDir so nrm*n = lightDir.
    double n[3] = {
        p.nrm[0] * p.lightDir.x + p.nrm[3] * p.lightDir.y +
            p.nrm[6] * p.lightDir.z,
        p.nrm[1] * p.lightDir.x + p.nrm[4] * p.lightDir.y +
            p.nrm[7] * p.lightDir.z,
        p.nrm[2] * p.lightDir.x + p.nrm[5] * p.lightDir.y +
            p.nrm[8] * p.lightDir.z,
    };
    in[3] = n[0];
    in[4] = n[1];
    in[5] = n[2];
    double out[6];
    vertexSimple(in, out, p);
    // Diffuse term must be present: color > emissive + ambient alone.
    EXPECT_GT(out[3], p.emissive.x + in[6] * p.ambient.x - 1e-9);
}

TEST(Shading, ReflectionVectorIsUnitForUnitInputs)
{
    auto p = makeVertexReflectionParams(23);
    double in[9] = {0.5, -0.25, 1.0, 0.0, 0.0, 1.0, 0, 0, 0};
    double out[6];
    vertexReflection(in, out, p);
    // r = 2(n.v)n - v with unit n (rotation-matrix normal) and unit v
    // has unit length.
    double n[3];
    double nin[3] = {in[3], in[4], in[5]};
    for (int r = 0; r < 3; ++r)
        n[r] = p.nrm[3 * r] * nin[0] + p.nrm[3 * r + 1] * nin[1] +
               p.nrm[3 * r + 2] * nin[2];
    double len = std::sqrt(out[3] * out[3] + out[4] * out[4] +
                           out[5] * out[5]);
    EXPECT_NEAR(len, 1.0, 1e-9);
    (void)n;
}

TEST(Shading, SkinningSingleBoneEqualsDirectTransform)
{
    auto p = makeSkinningParams(31);
    Vec3 pos{1.0, 2.0, 3.0};
    Vec3 nrm{0.0, 0.0, 1.0};
    unsigned idx[4] = {5, 0, 0, 0};
    double w[4] = {1.0, 0, 0, 0};
    double clip[3], color[3], outN[3];
    vertexSkinning(pos, nrm, 1, idx, w, 0.8, clip, color, outN, p);

    const double *m = p.palette.data() + 5 * 12;
    for (int r = 0; r < 3; ++r) {
        double tn = m[4 * r] * nrm.x + m[4 * r + 1] * nrm.y +
                    m[4 * r + 2] * nrm.z;
        EXPECT_NEAR(outN[r], tn, 1e-12);
    }
}

TEST(Shading, SkinningWeightsArePartitionOfUnity)
{
    auto p = makeSkinningParams(37);
    Vec3 pos{0.3, -0.7, 0.9};
    Vec3 nrm{1.0, 0.0, 0.0};
    unsigned idx[4] = {1, 1, 1, 1};
    double w[4] = {0.25, 0.25, 0.25, 0.25};
    double clip4[3], color4[3], n4[3];
    vertexSkinning(pos, nrm, 4, idx, w, 1.0, clip4, color4, n4, p);

    unsigned idx1[4] = {1, 0, 0, 0};
    double w1[4] = {1.0, 0, 0, 0};
    double clip1[3], color1[3], n1[3];
    vertexSkinning(pos, nrm, 1, idx1, w1, 1.0, clip1, color1, n1, p);

    for (int r = 0; r < 3; ++r)
        EXPECT_NEAR(clip4[r], clip1[r], 1e-9);
}

TEST(Shading, AnisoSingleSampleIsNearestTexel)
{
    Texture2D tex(64, 64);
    tex.fillNoise(41);
    auto p = makeAnisoParams(43);
    Word out = anisotropicFilter(10.3, 20.7, 1.0, 0.5, 1, tex, p);
    double rgb[3];
    tex.sampleNearest(10.3, 20.7, rgb);
    Word expect = packTexel(rgb[0], rgb[1], rgb[2]);
    EXPECT_EQ(out, expect);
}

TEST(Shading, FragmentReflectionScalesWithIntensity)
{
    CubeMap cube(32);
    cube.fillNoise(47);
    auto p = makeFragmentReflectionParams(53);
    double in1[5] = {0.3, 0.4, 0.8, 0.0, 0.0};
    double in2[5] = {0.3, 0.4, 0.8, 1.0, 0.0};
    double out1[3], out2[3];
    fragmentReflection(in1, out1, cube, p);
    fragmentReflection(in2, out2, cube, p);
    for (int c = 0; c < 3; ++c)
        EXPECT_GE(out2[c] + 1e-12, out1[c]);
}
