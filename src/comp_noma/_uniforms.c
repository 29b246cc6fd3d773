/* The uniform stage of comp_noma.kernels' draw kernel: SplitMix64 outputs
 * turned into doubles in (0, 1). kernels compiles this file, loads it with
 * ctypes and checks it bit for bit against its numpy stage before use.
 *
 * out is the C-ordered (18, n) block of links by trials. The draw of link l
 * in trial t is u = ((z >> 11) + 0.5) * 2^-53, with z the SplitMix64 output
 * for counter t*18 + l: finalize(seed + (counter + 1) * GOLDEN), mod 2^64.
 * The top 53 bits, the half and the power of two are exact in IEEE double,
 * so u does not depend on the compiler as long as it contracts nothing.
 */
#include <stddef.h>
#include <stdint.h>

#define N_LINKS 18
#define GOLDEN 0x9E3779B97F4A7C15ULL

void comp_noma_uniforms(double *out, uint64_t seed, uint64_t start, size_t n)
{
    const uint64_t trial_step = N_LINKS * GOLDEN;
    for (uint64_t link = 0; link < N_LINKS; link++) {
        uint64_t x = seed + (link + 1) * GOLDEN + start * trial_step;
        double *row = out + link * n;
        for (size_t i = 0; i < n; i++, x += trial_step) {
            uint64_t z = (x ^ (x >> 30)) * 0xBF58476D1CE4E5B9ULL;
            z = (z ^ (z >> 27)) * 0x94D049BB133111EBULL;
            z ^= z >> 31;
            /* below 2^53, so the signed conversion is exact */
            row[i] = ((double)(int64_t)(z >> 11) + 0.5) * 0x1p-53;
        }
    }
}
