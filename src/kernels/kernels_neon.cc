// NEON backend instantiation. This TU is compiled with -ffp-contract=off
// and the EDKM_COMPILE_NEON definition only when the build host targets
// an ARM architecture with NEON (architectural on aarch64) and the
// EDKM_SIMD CMake option is ON; otherwise it compiles to nothing.
// -ffp-contract=off keeps GCC from fusing the kernels' separate
// mul-then-add chains into FMAs, as on the x86 ISA TUs.

#if defined(EDKM_COMPILE_NEON) && \
    (defined(__ARM_NEON) || defined(__ARM_NEON__))

#include "kernels/kernels_impl.h"

namespace edkm {
namespace kernels {

const KernelTable &
neonKernelTable()
{
    static const KernelTable t =
        impl::makeKernelTable<NeonTag>(Backend::kNeon);
    return t;
}

} // namespace kernels
} // namespace edkm

#endif // EDKM_COMPILE_NEON && __ARM_NEON
