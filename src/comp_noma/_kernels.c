/* The compiled stages of comp_noma.kernels: the draw kernel's uniforms and
 * the rate kernel's 1 + SINR. kernels compiles this file, loads it with
 * ctypes and checks every function bit for bit against its numpy stage
 * before use.
 *
 * Built with -ffp-contract=off and without -ffast-math, so each + - * / is
 * one correctly rounded IEEE operation, as in numpy: a statement gives
 * numpy's bits as long as it keeps numpy's order of operations.
 */
#include <stddef.h>
#include <stdint.h>

/* On x86-64 with GCC 12 or later and glibc, both stages are built for
 * x86-64-v4 (AVX-512), x86-64-v3 (AVX2, FMA) and baseline x86-64, and the
 * dynamic loader's ifunc resolver picks the first of these clones that the
 * CPU runs when the library loads. The clones give the same bits: the
 * SplitMix64 steps and the conversion are exact at any vector width, and
 * -ffp-contract=off keeps v3's and v4's FMA out of the SINR. Elsewhere, or
 * with COMP_NOMA_NO_CLONES defined, as the tests do to build each level
 * alone, there is one target. (stdint.h defines __GLIBC__ under glibc.)
 */
#if defined(__x86_64__) && defined(__GNUC__) && !defined(__clang__) \
    && __GNUC__ >= 12 && defined(__GLIBC__) && !defined(COMP_NOMA_NO_CLONES)
#define CLONES 1
#define CLONED __attribute__((target_clones("arch=x86-64-v4", \
                                            "arch=x86-64-v3", "default")))
#else
#define CLONES 0
#define CLONED
#endif

#define N_BS 3
#define N_USERS 6
#define N_LINKS 18
#define GOLDEN 0x9E3779B97F4A7C15ULL

enum { OMA, NOMA, VPNOMA, COMP_VPNOMA };

/* The level of the clones that run: 4 or 3 for x86-64-v4 or v3, 0 for the
 * default clone or a build without clones. A clone cannot name itself, so
 * this asks the CPU the resolver's questions in the resolver's order. */
int comp_noma_isa(void)
{
#if CLONES
    __builtin_cpu_init();
    return __builtin_cpu_supports("x86-64-v4") ? 4
           : __builtin_cpu_supports("x86-64-v3") ? 3 : 0;
#else
    return 0;
#endif
}

/* out is the C-ordered (18, n) block of links by trials. The draw of link l
 * in trial t is u = ((z >> 11) + 0.5) * 2^-53, with z the SplitMix64 output
 * for counter t*18 + l: finalize(seed + (counter + 1) * GOLDEN), mod 2^64.
 * The top 53 bits, the half and the power of two are exact in IEEE double.
 */
CLONED
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

/* 1 + S/D of one scheme for the first `users` users (6, or the 3 near
 * users) into rows of the C-ordered (6, n) block out. d is the (18, n)
 * block of draws, row i*6 + u for link (BS i, user u), and w the 18 links'
 * -sigma_hat, so a gain is d * w. eps holds each user's rho * sigma_eps
 * sum. User u is served by BS u % 3; its interference I is the sum of its
 * two other links' gains in BS order, and a far user's total is I + g.
 * kernels._numpy_sinr takes the same arguments but n and runs these
 * statements in numpy, in this order: an edit to one is made to both.
 */
CLONED
void comp_noma_sinr(double *restrict out, const double *d, const double *w,
                    const double *eps, int code, size_t users, double rho,
                    double arho, double brho, double far_rho, double ups_rho,
                    size_t n)
{
    for (size_t u = 0; u < users; u++) {
        size_t c = u % N_BS;
        size_t s = c * N_USERS + u;
        size_t i1 = (c == 0 ? 1 : 0) * N_USERS + u;
        size_t i2 = (c == 2 ? 1 : 2) * N_USERS + u;
        const double *ds = d + s * n, *d1 = d + i1 * n, *d2 = d + i2 * n;
        const double ws = w[s], w1 = w[i1], w2 = w[i2], e = eps[u];
        double *o = out + u * n;
        int near = u < N_BS;
        if (code == OMA) {
            for (size_t t = 0; t < n; t++) {
                double g = ds[t] * ws, i = d1[t] * w1 + d2[t] * w2;
                o[t] = g * rho / ((i * rho + e) + 1.0) + 1.0;
            }
        } else if (near) {
            double m = code == NOMA ? rho : arho;
            for (size_t t = 0; t < n; t++) {
                double g = ds[t] * ws, i = d1[t] * w1 + d2[t] * w2;
                o[t] = g * arho / (((i * m + e) + ups_rho) + 1.0) + 1.0;
            }
        } else if (code == NOMA) {
            for (size_t t = 0; t < n; t++) {
                double g = ds[t] * ws, i = d1[t] * w1 + d2[t] * w2;
                o[t] = g * far_rho / (((i * rho + arho * g) + e) + 1.0) + 1.0;
            }
        } else if (code == VPNOMA) {
            for (size_t t = 0; t < n; t++) {
                double g = ds[t] * ws, i = d1[t] * w1 + d2[t] * w2;
                o[t] = g * brho
                       / (((i * brho + (i + g) * arho) + e) + 1.0) + 1.0;
            }
        } else {
            for (size_t t = 0; t < n; t++) {
                double total = (d1[t] * w1 + d2[t] * w2) + ds[t] * ws;
                o[t] = total * brho / ((total * arho + e) + 1.0) + 1.0;
            }
        }
    }
}
