/* The native passes of a round over the features.

   fedmtl_run_round is the native body of fedmtl.solver._run_round, the
   coordinate steps of every dual method's round (MOCHA, CoCoA and
   mini-batch SDCA), with _run_round_py as the reference it must match.
   fedmtl_task_losses is the native body of fedmtl.solver._task_losses, the
   per-task loss sums of the primal, with _task_losses_py as its reference.
   Every product over the features is the four-lane dot below, and the
   library is built without contraction into fused multiply-adds, so each
   operation rounds as written.

   fedmtl_draw_integers, fedmtl_draw_permutations, fedmtl_draw_choices and
   fedmtl_draw_random reproduce numpy's np.random.default_rng streams bit
   for bit; fedmtl.solver.draw_integers, draw_permutations, draw_choices and
   draw_random call them and check them against numpy when the library is
   loaded. */

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
            int64_t j = 0;
            delta[i] += step;
            /* Both entries of a pair are loaded before either is stored, so
               the pair is written in one 16-byte store, which the next
               step's vector loads of u can forward from. */
            for (; j + 2 <= d; j += 2) {
                double x0 = x[j], x1 = x[j + 1], u0 = u[j], u1 = u[j + 1];
                u[j] = u0 + step * x0;
                u[j + 1] = u1 + step * x1;
            }
            if (j < d)
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

/* numpy's random_interval for max < 2**32: 32-bit draws under the smallest
   mask of all ones that covers max, until one is at most max. */
static uint32_t interval32(pcg64 *g, uint32_t max)
{
    uint32_t mask = max, value;
    mask |= mask >> 1;
    mask |= mask >> 2;
    mask |= mask >> 4;
    mask |= mask >> 8;
    mask |= mask >> 16;
    while ((value = pcg64_next32(g) & mask) > max)
        ;
    return value;
}

/* For node t, 0 <= t < m, counts[t] indices in [0, sizes[t]) appended to
   out: consecutive permutations of 0 .. sizes[t] - 1, each read from its
   last entry to its first, cut to the count, as
   default_rng([seed, tag, t, round]).permutation(n)[::-1] draws them.
   numpy's shuffle fixes entry i = n - 1, ..., 1 by a swap with an entry
   drawn from [0, i], so the first k entries read cost k draws, and the last
   permutation stops where the count does.  work holds sizes[t] entries for
   every node that draws; every size that draws is in [1, 2**32). */
void fedmtl_draw_permutations(uint64_t seed, uint64_t tag, uint64_t round, int64_t m,
                              const int64_t *sizes, const int64_t *counts,
                              int64_t *work, int64_t *out)
{
    for (int64_t t = 0; t < m; t++) {
        int64_t n = sizes[t], left = counts[t];
        pcg64 g;
        if (left > 0 && n > 0)
            pcg64_seed(&g, seed, tag, t, round);
        while (left > 0 && n > 0) {
            for (int64_t i = 0; i < n; i++)
                work[i] = i;
            for (int64_t i = n - 1; i >= 0 && left > 0; i--, left--) {
                if (i > 0) {
                    int64_t j = interval32(&g, (uint32_t)i), kept = work[j];
                    work[j] = work[i];
                    work[i] = kept;
                }
                *out++ = work[i];
            }
        }
    }
}

/* For node t, 0 <= t < m, counts[t] distinct indices in [0, sizes[t])
   appended to out, as default_rng([seed, tag, t, round]).choice(sizes[t],
   size=counts[t], replace=False) draws them where it takes Floyd's sample
   (Bentley & Floyd, CACM 1987): every size is in [1, 2**32) and at most
   10,000, or a count at most size / 50.  For j = n - b, ..., n - 1 the
   sample takes a draw from [0, j] (j = 0 draws nothing), or j itself when
   that draw is already taken; numpy then shuffles the sample, swapping
   entry i = b - 1, ..., 1 with one drawn from [0, i].  Both draw by
   Lemire's method, not by interval32's mask.  work holds mask + 1 entries,
   a power of two above every count: an open-addressed set of the values
   taken so far. */
void fedmtl_draw_choices(uint64_t seed, uint64_t tag, uint64_t round, int64_t m,
                         const int64_t *sizes, const int64_t *counts, int64_t mask,
                         int64_t *work, int64_t *out)
{
    for (int64_t t = 0; t < m; t++) {
        int64_t n = sizes[t], b = counts[t];
        pcg64 g;
        if (b <= 0)
            continue;
        pcg64_seed(&g, seed, tag, t, round);
        for (int64_t k = 0; k <= mask; k++)
            work[k] = -1;
        for (int64_t j = n - b; j < n; j++) {
            int64_t value = j ? (int64_t)bounded32(&g, (uint32_t)j) : 0, k = value & mask;
            while (work[k] != -1 && work[k] != value)
                k = (k + 1) & mask;
            if (work[k] == value) {
                /* Taken already, so j, which no earlier draw could reach, is. */
                value = j;
                for (k = j & mask; work[k] != -1; k = (k + 1) & mask)
                    ;
            }
            work[k] = value;
            out[j - (n - b)] = value;
        }
        for (int64_t i = b - 1; i > 0; i--) {
            int64_t j = (int64_t)bounded32(&g, (uint32_t)i), kept = out[j];
            out[j] = out[i];
            out[i] = kept;
        }
        out += b;
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
