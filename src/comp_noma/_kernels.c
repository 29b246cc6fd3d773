/* The compiled stages of comp_noma: the draw kernel's uniforms, the rate
 * kernel's 1 + SINR and the closed form's six whole-band user rates.
 * kernels compiles this file, loads it with ctypes and checks every
 * function bit for bit against its numpy or Python twin before use.
 *
 * Built with -ffp-contract=off and without -ffast-math, so each + - * / is
 * one correctly rounded IEEE operation, as in numpy and Python: a statement
 * gives their bits as long as it keeps their order of operations. log and
 * exp are libm's, which math.log and math.exp call.
 */
#include <math.h>
#include <stddef.h>
#include <stdint.h>

/* On x86-64 with GCC 12 or later and glibc, the stages are built for
 * x86-64-v4 (AVX-512), x86-64-v3 (AVX2, FMA) and baseline x86-64, and the
 * dynamic loader's ifunc resolver picks the first of these clones that the
 * CPU runs when the library loads. The clones give the same bits: the
 * SplitMix64 steps and the conversion are exact at any vector width, and
 * -ffp-contract=off keeps v3's and v4's FMA out of the SINR and the rates. Elsewhere, or
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

/* 1 + S/D of one scheme for each user into its row of the C-ordered (6, n)
 * block out. d is the (18, n) block of draws, row i*6 + u for link (BS i,
 * user u), and w the 18 links' -sigma_hat, so a gain is d * w. eps holds
 * each user's rho * sigma_eps sum. User u is served by BS u % 3; its
 * interference I is the sum of its two other links' gains in BS order, and
 * a far user's total is I + g. kernels._numpy_sinr takes the same
 * arguments but n and runs these statements in numpy, in this order: an
 * edit to one is made to both.
 */
CLONED
void comp_noma_sinr(double *restrict out, const double *d, const double *w,
                    const double *eps, int code, double rho, double arho,
                    double brho, double far_rho, double ups_rho, size_t n)
{
    for (size_t u = 0; u < N_USERS; u++) {
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

/* The closed form's user rates: analytic._python_user_rates, statement for
 * statement, and the functions it calls (_near_values, _far_value,
 * _log2_mean, _ensure_distinct, _e1_scaled, _ei_series, _e1_scaled_cf). An
 * edit to one is made to both. Where a Python statement would raise
 * (ZeroDivisionError, a math domain error, DegenerateRatesError or the
 * fraction's ArithmeticError), where a rate is not a positive finite
 * number (which leaves Python's sort of a NaN and its dict of NaN keys out
 * of play) and where a user's rate is not finite, the stage stops and
 * returns DEFER: analytic then runs the Python statements, which raise or
 * return as they always have.
 */
enum { RATES_OK, DEFER };

#define DEGENERACY_GAP 1e-7
#define CLUSTER_SPREAD 1e-4
#define EULER_GAMMA 0.5772156649015328606
/* the rates of one log-mean, and the exp(z)E1(z) arguments of one memo:
 * a near user's 3 + 2 or a far user's 3 + 3, three users each */
#define MAX_RATES 3
#define MEMO_SIZE 18

/* the dict of analytic's callers: z -> exp(z)E1(z) for one call */
typedef struct {
    int n;
    double z[MEMO_SIZE], value[MEMO_SIZE];
} e1_memo;

static double ei_series(double x)
{
    double acc = EULER_GAMMA + log(-x);
    double term = 1.0;
    for (int i = 1; i < 60; i++) {
        double n = (double)i;
        term *= x / n;
        double delta = term / n;
        acc += delta;
        double bound = 1e-17 * acc;
        if (bound < delta && delta < -bound)
            break;
    }
    return acc;
}

static int e1_scaled_cf(double z, double tolerance, double *scaled)
{
    const double tiny = 1e-300;
    double b = z + 1.0;
    double c = 1.0 / tiny;
    double d = 1.0 / b;
    double h = d;
    double low = -tolerance;
    for (int i = 1; i < 300; i++) {
        double a = -(double)i * (double)i;
        b += 2.0;
        double den = a * d + b;
        if (den == 0.0 || c == 0.0)
            return DEFER;
        d = 1.0 / den;
        c = b + a / c;
        double delta = c * d;
        h *= delta;
        double gap = delta - 1.0;
        if (low < gap && gap < tolerance) {
            *scaled = h;
            return RATES_OK;
        }
    }
    /* the second pass, at 2^-52, where delta settles at 1 - 2^-53 */
    if (tolerance < 0x1p-52)
        return e1_scaled_cf(z, 0x1p-52, scaled);
    return DEFER;
}

static int e1_scaled(double z, double *scaled)
{
    if (z <= 1.0) {
        /* math.log(z) raises at z <= 0 */
        if (!(z > 0.0))
            return DEFER;
        *scaled = -exp(z) * ei_series(-z);
        return RATES_OK;
    }
    return e1_scaled_cf(z, 1e-16, scaled);
}

/* _ensure_distinct: the rates, or, where two lie within the gap, each
 * cluster spread about its centre; ties keep their order, as in a stable
 * sort of the indices by rate. */
static int ensure_distinct(const double *rates, int n, double *adjusted)
{
    double ranked[MAX_RATES];
    int order[MAX_RATES];
    for (int i = 0; i < n; i++) {
        int j = i;
        for (; j > 0 && rates[i] < ranked[j - 1]; j--) {
            ranked[j] = ranked[j - 1];
            order[j] = order[j - 1];
        }
        ranked[j] = rates[i];
        order[j] = i;
    }
    int k = 1;
    while (k < n && !(ranked[k] - ranked[k - 1] <= DEGENERACY_GAP * ranked[k]))
        k++;
    if (k == n) {
        for (int i = 0; i < n; i++)
            adjusted[i] = rates[i];
        return RATES_OK;
    }
    for (int start = 0; start < n;) {
        int end = start;
        while (end + 1 < n && ranked[end + 1] - ranked[end]
                              <= DEGENERACY_GAP * ranked[end + 1])
            end++;
        int size = end - start + 1;
        for (int member = 0; member < size; member++) {
            double factor = 1.0 + CLUSTER_SPREAD
                                  * ((double)member - (double)(size - 1) / 2.0);
            adjusted[order[start + member]] = ranked[start + member] * factor;
        }
        start = end + 1;
    }
    /* DegenerateRatesError */
    for (int i = 0; i < n; i++)
        for (int j = i + 1; j < n; j++)
            if (adjusted[i] == adjusted[j])
                return DEFER;
    return RATES_OK;
}

static int log2_mean(const double *rates, int n, double shift, e1_memo *e1,
                     double *mean)
{
    double k[MAX_RATES];
    if (ensure_distinct(rates, n, k) != RATES_OK || !(shift > 0.0))
        return DEFER;
    double ln_shift = log(shift);
    double acc = 0.0;
    for (int i = 0; i < n; i++) {
        double k_i = k[i];
        double weight = 1.0;
        for (int h = 0; h < n; h++)
            if (k[h] != k_i)
                weight *= k[h] / (k[h] - k_i);
        double z = shift * k_i;
        int m = 0;
        while (m < e1->n && e1->z[m] != z)
            m++;
        double scaled;
        if (m < e1->n) {
            scaled = e1->value[m];
        } else {
            if (e1_scaled(z, &scaled) != RATES_OK)
                return DEFER;
            if (m < MEMO_SIZE) {
                e1->z[m] = z;
                e1->value[m] = scaled;
                e1->n++;
            }
        }
        acc += (ln_shift + scaled) * weight;
    }
    *mean = acc / log(2.0);
    return RATES_OK;
}

/* 1/(scale * s) for the three links of a user's column of sigma_hat;
 * DEFER where a rate is not positive and finite, which includes every
 * product of 0, where Python raises ZeroDivisionError */
static int column_rates(const double *sigma_hat, int u, double scale,
                        double *rates)
{
    for (int i = 0; i < N_BS; i++) {
        rates[i] = 1.0 / (scale * sigma_hat[i * N_USERS + u]);
        if (!(rates[i] > 0.0 && rates[i] < INFINITY))
            return DEFER;
    }
    return RATES_OK;
}

/* out gets the near users' whole-band rates (users 1-3) and the far users'
 * (A-C), before a far user's third of the band. sigma_hat is the C-ordered
 * (3, 6) block of links, eps_sums each user's sigma_eps sum. Returns
 * RATES_OK, or DEFER with out unspecified. */
CLONED
int comp_noma_user_rates(double *restrict out, const double *sigma_hat,
                         const double *eps_sums, double alpha, double beta,
                         double rho, double upsilon)
{
    double residual = rho * upsilon;
    double scale = alpha * rho;
    e1_memo near_e1 = {0};
    for (int j = 0; j < N_BS; j++) {
        double shift = rho * eps_sums[j] + residual + 1.0;
        double raw[N_BS], k[N_BS], rest[N_BS - 1], full, without;
        if (column_rates(sigma_hat, j, scale, raw) != RATES_OK
            || ensure_distinct(raw, N_BS, k) != RATES_OK)
            return DEFER;
        for (int i = 0, r = 0; i < N_BS; i++)
            if (i != j)
                rest[r++] = k[i];
        if (log2_mean(k, N_BS, shift, &near_e1, &full) != RATES_OK
            || log2_mean(rest, N_BS - 1, shift, &near_e1, &without)
               != RATES_OK)
            return DEFER;
        out[j] = full - without;
    }
    double signal = (alpha + beta) * rho;
    double interference = alpha * rho;
    e1_memo far_e1 = {0};
    for (int u = N_BS; u < N_USERS; u++) {
        double shift = rho * eps_sums[u] + 1.0;
        double raw[N_BS], signal_rates[N_BS], interference_rates[N_BS];
        double with_signal, without;
        if (column_rates(sigma_hat, u, signal, raw) != RATES_OK
            || ensure_distinct(raw, N_BS, signal_rates) != RATES_OK
            || column_rates(sigma_hat, u, interference, raw) != RATES_OK
            || ensure_distinct(raw, N_BS, interference_rates) != RATES_OK
            || log2_mean(signal_rates, N_BS, shift, &far_e1, &with_signal)
               != RATES_OK
            || log2_mean(interference_rates, N_BS, shift, &far_e1, &without)
               != RATES_OK)
            return DEFER;
        out[u] = with_signal - without;
    }
    for (int u = 0; u < N_USERS; u++)
        if (!isfinite(out[u]))
            return DEFER;
    return RATES_OK;
}
