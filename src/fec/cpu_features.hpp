#pragma once

#include <string>
#include <vector>

namespace sharq::fec::cpu {

/// SIMD capabilities of the host, probed once at first use.
///
/// Detection is runtime (CPUID on x86 via __builtin_cpu_supports), so one
/// binary runs correctly on any host; the GF(256) kernels pick the widest
/// available instruction set and fall back to scalar tables elsewhere.
struct Features {
  bool ssse3 = false;  ///< x86 SSSE3 (PSHUFB, 16-byte shuffle)
  bool avx2 = false;   ///< x86 AVX2 (VPSHUFB, 32-byte shuffle)
  bool neon = false;   ///< AArch64 Advanced SIMD (TBL, 16-byte shuffle)
};

/// Host capabilities (cached; cheap to call repeatedly).
const Features& features();

/// The GF(256) kernel tiers, ordered weakest to strongest.
enum class Kernel {
  kScalar = 0,
  kSsse3 = 1,
  kAvx2 = 2,
  kNeon = 3,
};

/// Human-readable kernel name ("scalar", "ssse3", "avx2", "neon").
const char* kernel_name(Kernel k);

/// Kernels this host can execute, scalar first, strongest last.
std::vector<Kernel> supported_kernels();

/// The kernel the dispatcher will use: the strongest supported one, unless
/// SHARQFEC_FORCE_KERNEL=name names a supported kernel, which is then used
/// ("scalar" is the reproducible-run escape hatch). An unknown or
/// unsupported name is ignored. The environment is read once, at the first
/// FEC operation.
Kernel active_kernel();

}  // namespace sharq::fec::cpu
