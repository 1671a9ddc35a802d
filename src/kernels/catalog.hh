/**
 * @file
 * The benchmark-kernel catalog: the 14 DLP kernels of Table 1, expressed
 * in the kernel IR. Each factory builds the kernel with the same
 * deterministic parameters (seeds fixed per kernel) that the workload
 * generators and golden models use, so all three executions agree.
 */

#ifndef DLP_KERNELS_CATALOG_HH
#define DLP_KERNELS_CATALOG_HH

#include <string>
#include <vector>

#include "kernels/ir.hh"

namespace dlp::kernels {

// Multimedia / DSP.
Kernel makeConvert();
Kernel makeDct();
Kernel makeHighpass();

// Scientific.
Kernel makeFft();
Kernel makeLu();

// Network / security.
Kernel makeMd5();
Kernel makeBlowfish();
Kernel makeRijndael();

// Real-time graphics.
Kernel makeVertexSimple();
Kernel makeFragmentSimple();
Kernel makeVertexReflection();
Kernel makeFragmentReflection();
Kernel makeVertexSkinning();
Kernel makeAnisotropic();

/** All kernels in the paper's Table 1/2 order. */
std::vector<Kernel> allKernels();

/** The Table 1 names of allKernels(), in the same order. */
const std::vector<std::string> &kernelNames();

/** Look up a kernel by its Table 1 name (e.g. "rijndael"). */
Kernel kernelByName(const std::string &name);

/** Deterministic seed used for a kernel's scene/key material. */
uint64_t kernelSeed(const std::string &name);

/** Deterministic key bytes for the crypto kernels (from kernelSeed). */
std::vector<uint8_t> kernelKeyBytes(const std::string &name, size_t n);

} // namespace dlp::kernels

#endif // DLP_KERNELS_CATALOG_HH
