/* The native passes of a round over the features.

   fedmtl_run_round is the native body of fedmtl.solver._run_round, the
   coordinate steps of every dual method's round (MOCHA, CoCoA and
   mini-batch SDCA), with _run_round_py as the reference it must match.
   fedmtl_task_losses is the native body of fedmtl.solver._task_losses, the
   per-task loss sums of the primal, with _task_losses_py as its reference.
   Every product over the features is the four-lane dot below, and the
   library is built without contraction into fused multiply-adds, so each
   operation rounds as written.

   fedmtl_draw_integers and fedmtl_draw_random reproduce numpy's
   np.random.default_rng streams bit for bit; fedmtl.solver.draw_integers
   and draw_random call them and check them against numpy when the library
   is loaded. */

#include <stdint.h>

static double hinge_delta(double a, double y, double s, double n2, double kappa)
{
    double b = y * a, b_new, curvature = kappa * n2;
    if (curvature <= 0.0) {
        /* Degenerate column, or a subnormal norm whose product underflows:
           the restriction is linear in b over [0, 1]. */
        double coef = y * s - 1.0;
        b_new = coef < 0.0 ? 1.0 : (coef > 0.0 ? 0.0 : b);
    } else {
        b_new = b + (1.0 - y * s) / curvature;
        b_new = b_new > 0.0 ? b_new : 0.0;
        b_new = b_new < 1.0 ? b_new : 1.0;
    }
    return y * b_new - a;
}

/* a . b over d terms in four lanes: lane k adds, in order from 0, the terms
   with j = k (mod 4), and the lanes combine as (l0 + l1) + (l2 + l3). */
static double dot(int64_t d, const double *a, const double *b)
{
    double l0 = 0.0, l1 = 0.0, l2 = 0.0, l3 = 0.0;
    int64_t j = 0;
    for (; j + 4 <= d; j += 4) {
        l0 += a[j] * b[j];
        l1 += a[j + 1] * b[j + 1];
        l2 += a[j + 2] * b[j + 2];
        l3 += a[j + 3] * b[j + 3];
    }
    if (j < d)
        l0 += a[j] * b[j];
    if (j + 1 < d)
        l1 += a[j + 1] * b[j + 1];
    if (j + 2 < d)
        l2 += a[j + 2] * b[j + 2];
    return (l0 + l1) + (l2 + l3);
}

/* One node's steps.  X is d x n, column-major, so column i starts at
   X + i * d.  For each index in idx, in order, the step for coordinate i is
   added to delta[i] and step * x_i to u.  With beta = 0 each step is scored
   against the running delta and u (MOCHA's sequential steps); with beta > 0
   it is scored against the snapshot alone and scaled by beta / count
   (mini-batch SDCA). */
static void run_updates(int hinge, double beta, int64_t d, int64_t count,
                        const double *X, const double *w, const double *y,
                        const double *alpha, const double *norms2, double kappa,
                        const int64_t *idx, double *delta, double *u)
{
    double scale = count ? beta / (double)count : 0.0;
    for (int64_t k = 0; k < count; k++) {
        int64_t i = idx[k];
        const double *x = X + i * d;
        double s = dot(d, w, x), a = alpha[i], step;
        if (beta == 0.0) {
            s += kappa * dot(d, u, x);
            a += delta[i];
        }
        if (hinge)
            step = hinge_delta(a, y[i], s, norms2[i], kappa);
        else
            step = (y[i] - a - s) / (1.0 + kappa * norms2[i]);
        if (beta != 0.0)
            step *= scale;
        if (step != 0.0) {
            delta[i] += step;
            for (int64_t j = 0; j < d; j++)
                u[j] += step * x[j];
        }
    }
}

/* Nodes 0 <= t < m of one round, each against its own snapshot.  X[t] is
   node t's d x n_t column-major features; W (m x d, row-major) holds node
   t's weights in row t.  The packed n-vectors y, alpha, norms2 and delta
   hold node t's entries at offsets[t] .. offsets[t + 1]; its counts[t]
   indices, local to the node, follow node t - 1's in idx.  Node t's steps
   add to its block of delta and to row t of U (m x d, row-major), which the
   caller owns, so repeated calls accumulate. */
void fedmtl_run_round(int hinge, double beta, int64_t d, int64_t m,
                      const double *const *X, const double *W, const double *y,
                      const double *alpha, const double *norms2,
                      const double *kappa, const int64_t *offsets,
                      const int64_t *idx, const int64_t *counts,
                      double *delta, double *U)
{
    for (int64_t t = 0; t < m; t++) {
        int64_t o = offsets[t];
        run_updates(hinge, beta, d, counts[t], X[t], W + t * d, y + o, alpha + o,
                    norms2 + o, kappa[t], idx, delta + o, U + t * d);
        idx += counts[t];
    }
}


/* out[t] = the loss sum of node t, 0 <= t < m, at its weights in row t of W
   (m x d, row-major): sum_i max(0, 1 - y_i s_i) for the hinge, and half of
   sum_i (s_i - y_i)^2 for the squared loss, with s_i = w_t . x_i, adding the
   examples in order.  X[t], y and offsets are as in fedmtl_run_round. */
void fedmtl_task_losses(int hinge, int64_t d, int64_t m, const double *const *X,
                        const double *W, const double *y, const int64_t *offsets,
                        double *out)
{
    for (int64_t t = 0; t < m; t++) {
        const double *x = X[t], *w = W + t * d;
        double total = 0.0;
        for (int64_t i = offsets[t]; i < offsets[t + 1]; i++, x += d) {
            double s = dot(d, w, x);
            if (hinge) {
                double margin = 1.0 - y[i] * s;
                total += margin < 0.0 ? 0.0 : margin;
            } else {
                total += (s - y[i]) * (s - y[i]);
            }
        }
        out[t] = hinge ? total : 0.5 * total;
    }
}


/* numpy's SeedSequence (pool of four 32-bit words) and PCG64 (128-bit LCG
   with XSL-RR output, O'Neill 2014), as np.random.default_rng(key) builds
   them for a key of four integers below 2**64.  Node t's stream for a round
   is keyed [seed, tag, t, round], as fedmtl.solver.stream keys it. */

#define INIT_A 0x43b0d7e5u
#define MULT_A 0x931e8875u
#define INIT_B 0x8b51f9ddu
#define MULT_B 0x58f38dedu
#define MIX_MULT_L 0xca01f9ddu
#define MIX_MULT_R 0x4973f715u

typedef unsigned __int128 u128;

typedef struct {
    u128 state, inc;
    int has32;          /* the high half of the last 64-bit output is unused */
    uint32_t high32;
} pcg64;

static uint32_t hashmix(uint32_t value, uint32_t *hash)
{
    value ^= *hash;
    *hash *= MULT_A;
    value *= *hash;
    return value ^ (value >> 16);
}

static uint32_t mix(uint32_t x, uint32_t y)
{
    uint32_t r = MIX_MULT_L * x - MIX_MULT_R * y;
    return r ^ (r >> 16);
}

static void pcg64_step(pcg64 *g)
{
    static const u128 mult = ((u128)0x2360ed051fc65da4ull << 64) | 0x4385df649fccf645ull;
    g->state = g->state * mult + g->inc;
}

static void pcg64_seed(pcg64 *g, uint64_t seed, uint64_t tag, uint64_t t, uint64_t round)
{
    /* Each key integer gives its 32-bit words, low first; zero gives one. */
    const uint64_t key[4] = {seed, tag, t, round};
    uint32_t entropy[8], pool[4], hash = INIT_A, words[8];
    int n = 0;
    for (int k = 0; k < 4; k++) {
        entropy[n++] = (uint32_t)key[k];
        if (key[k] >> 32)
            entropy[n++] = (uint32_t)(key[k] >> 32);
    }
    for (int i = 0; i < 4; i++)
        pool[i] = hashmix(i < n ? entropy[i] : 0, &hash);
    for (int src = 0; src < 4; src++)
        for (int dst = 0; dst < 4; dst++)
            if (src != dst)
                pool[dst] = mix(pool[dst], hashmix(pool[src], &hash));
    for (int src = 4; src < n; src++)
        for (int dst = 0; dst < 4; dst++)
            pool[dst] = mix(pool[dst], hashmix(entropy[src], &hash));
    /* generate_state(4, uint64): eight words, paired little-endian. */
    hash = INIT_B;
    for (int i = 0; i < 8; i++) {
        uint32_t v = pool[i % 4] ^ hash;
        hash *= MULT_B;
        v *= hash;
        words[i] = v ^ (v >> 16);
    }
    uint64_t s[4];
    for (int i = 0; i < 4; i++)
        s[i] = (uint64_t)words[2 * i] | (uint64_t)words[2 * i + 1] << 32;
    /* pcg64_set_seed: s[0], s[1] are the state's high and low halves, s[2],
       s[3] those of the sequence. */
    g->inc = ((((u128)s[2] << 64) | s[3]) << 1) | 1u;
    g->state = 0;
    pcg64_step(g);
    g->state += ((u128)s[0] << 64) | s[1];
    pcg64_step(g);
    g->has32 = 0;
    g->high32 = 0;
}

static uint64_t pcg64_next64(pcg64 *g)
{
    pcg64_step(g);
    uint64_t hi = (uint64_t)(g->state >> 64), x = hi ^ (uint64_t)g->state;
    unsigned r = (unsigned)(hi >> 58);
    return (x >> r) | (x << ((64u - r) & 63u));
}

static uint32_t pcg64_next32(pcg64 *g)
{
    if (g->has32) {
        g->has32 = 0;
        return g->high32;
    }
    uint64_t next = pcg64_next64(g);
    g->has32 = 1;
    g->high32 = (uint32_t)(next >> 32);
    return (uint32_t)next;
}

/* Lemire's multiply-and-reject (arXiv:1805.10941) on 32-bit draws, as
   numpy's buffered_bounded_lemire_uint32: uniform on [0, range], for
   range < 2**32 - 1. */
static uint32_t bounded32(pcg64 *g, uint32_t range)
{
    uint32_t excl = range + 1u;
    uint64_t m = (uint64_t)pcg64_next32(g) * excl;
    uint32_t leftover = (uint32_t)m;
    if (leftover < excl) {
        uint32_t threshold = (UINT32_MAX - range) % excl;
        while (leftover < threshold) {
            m = (uint64_t)pcg64_next32(g) * excl;
            leftover = (uint32_t)m;
        }
    }
    return (uint32_t)(m >> 32);
}

/* For node t, 0 <= t < m, counts[t] integers in [lo[t], lo[t] + range[t]]
   appended to out, as default_rng([seed, tag, t, round]).integers(lo,
   lo + range, size=count, endpoint=True) draws them; every range must be
   below 2**32 - 1. */
void fedmtl_draw_integers(uint64_t seed, uint64_t tag, uint64_t round, int64_t m,
                          const int64_t *lo, const int64_t *range, const int64_t *counts,
                          int64_t *out)
{
    for (int64_t t = 0; t < m; t++) {
        pcg64 g;
        if (range[t] && counts[t])
            pcg64_seed(&g, seed, tag, t, round);
        for (int64_t j = 0; j < counts[t]; j++)
            *out++ = lo[t] + (range[t] ? (int64_t)bounded32(&g, (uint32_t)range[t]) : 0);
    }
}

/* For node t, 0 <= t < m, out[t] = default_rng([seed, tag, t, round]).random(). */
void fedmtl_draw_random(uint64_t seed, uint64_t tag, uint64_t round, int64_t m, double *out)
{
    for (int64_t t = 0; t < m; t++) {
        pcg64 g;
        pcg64_seed(&g, seed, tag, t, round);
        out[t] = (double)(pcg64_next64(&g) >> 11) * (1.0 / 9007199254740992.0);
    }
}
