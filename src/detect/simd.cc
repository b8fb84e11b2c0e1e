#include "detect/simd.h"

namespace subex {

KernelPath ActiveKernelPath() {
#if SUBEX_HAVE_AVX512_KERNELS
  static const KernelPath path = [] {
    __builtin_cpu_init();
    return __builtin_cpu_supports("avx512f") &&
                   __builtin_cpu_supports("avx512vl")
               ? KernelPath::kAvx512
               : KernelPath::kScalar;
  }();
  return path;
#else
  return KernelPath::kScalar;
#endif
}

const char* KernelPathName(KernelPath path) {
  return path == KernelPath::kAvx512 ? "avx512" : "scalar";
}

}  // namespace subex
