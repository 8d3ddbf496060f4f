#include "fec/cpu_features.hpp"

#include <algorithm>
#include <cstdlib>
#include <cstring>

namespace sharq::fec::cpu {

namespace {

Features probe() {
  Features f;
#if defined(__x86_64__) || defined(__i386__)
  f.ssse3 = __builtin_cpu_supports("ssse3");
  f.avx2 = __builtin_cpu_supports("avx2");
#elif defined(__aarch64__)
  // Advanced SIMD is architecturally mandatory on AArch64.
  f.neon = true;
#endif
  return f;
}

Kernel best_of(const Features& f) {
  if (f.neon) return Kernel::kNeon;
  if (f.avx2) return Kernel::kAvx2;
  if (f.ssse3) return Kernel::kSsse3;
  return Kernel::kScalar;
}

Kernel resolve_active() {
  const Features& f = features();
  if (const char* want = std::getenv("SHARQFEC_FORCE_KERNEL")) {
    const auto supported = supported_kernels();
    for (Kernel k : supported) {
      if (std::strcmp(want, kernel_name(k)) == 0) return k;
    }
    // Unknown or unsupported name: ignore the override rather than crash
    // mid-transfer on a mistyped environment variable.
  }
  return best_of(f);
}

}  // namespace

const Features& features() {
  static const Features f = probe();
  return f;
}

const char* kernel_name(Kernel k) {
  switch (k) {
    case Kernel::kScalar: return "scalar";
    case Kernel::kSsse3: return "ssse3";
    case Kernel::kAvx2: return "avx2";
    case Kernel::kNeon: return "neon";
  }
  return "unknown";
}

std::vector<Kernel> supported_kernels() {
  const Features& f = features();
  std::vector<Kernel> out{Kernel::kScalar};
  if (f.ssse3) out.push_back(Kernel::kSsse3);
  if (f.avx2) out.push_back(Kernel::kAvx2);
  if (f.neon) out.push_back(Kernel::kNeon);
  return out;
}

Kernel active_kernel() {
  static const Kernel k = resolve_active();
  return k;
}

}  // namespace sharq::fec::cpu
