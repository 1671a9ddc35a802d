#include "kernels/catalog.hh"

#include "common/logging.hh"
#include "common/random.hh"

namespace dlp::kernels {

namespace {

/// The catalog in the paper's Table 1/2 order: each kernel's Table 1
/// name and its factory.
struct Entry
{
    const char *name;
    Kernel (*make)();
};

constexpr Entry catalog[] = {
    {"convert", makeConvert},
    {"dct", makeDct},
    {"highpassfilter", makeHighpass},
    {"fft", makeFft},
    {"lu", makeLu},
    {"md5", makeMd5},
    {"blowfish", makeBlowfish},
    {"rijndael", makeRijndael},
    {"vertex-simple", makeVertexSimple},
    {"fragment-simple", makeFragmentSimple},
    {"vertex-reflection", makeVertexReflection},
    {"fragment-reflection", makeFragmentReflection},
    {"vertex-skinning", makeVertexSkinning},
    {"anisotropic-filter", makeAnisotropic},
};

} // namespace

std::vector<Kernel>
allKernels()
{
    std::vector<Kernel> v;
    for (const Entry &e : catalog)
        v.push_back(e.make());
    return v;
}

const std::vector<std::string> &
kernelNames()
{
    static const std::vector<std::string> names = [] {
        std::vector<std::string> v;
        for (const Entry &e : catalog)
            v.push_back(e.name);
        return v;
    }();
    return names;
}

Kernel
kernelByName(const std::string &name)
{
    for (const Entry &e : catalog)
        if (name == e.name)
            return e.make();
    fatal("unknown kernel '%s'", name.c_str());
}

uint64_t
kernelSeed(const std::string &name)
{
    // Stable per-kernel seeds: FNV-1a of the name mixed with a project
    // constant, so adding kernels never reshuffles existing datasets.
    uint64_t h = 0xcbf29ce484222325ull;
    for (char c : name) {
        h ^= static_cast<uint8_t>(c);
        h *= 0x100000001b3ull;
    }
    return h ^ 0xd1f7a9e5cafe4242ull;
}

std::vector<uint8_t>
kernelKeyBytes(const std::string &name, size_t n)
{
    Rng rng(kernelSeed(name));
    std::vector<uint8_t> key(n);
    for (auto &k : key)
        k = static_cast<uint8_t>(rng.next());
    return key;
}

} // namespace dlp::kernels
