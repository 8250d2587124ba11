/* The native passes of a round over the features.

   fedmtl_run_round is the native body of fedmtl.solver._run_round, the
   coordinate steps of every dual method's round (MOCHA, CoCoA and
   mini-batch SDCA), with _run_round_py as the reference it must match.
   fedmtl_task_losses is the native body of fedmtl.solver._task_losses, the
   per-task loss sums of the primal, with _task_losses_py as its reference.
   Every product over the features is the four-lane dot below, and the
   library is built without contraction into fused multiply-adds, so each
   operation rounds as written.

   fedmtl_draw_integers, fedmtl_draw_random and fedmtl_draw_permutations
   are the native bodies of the round's draws in fedmtl.solver, with numpy
   references (_draw_integers_py and so on) that they equal exactly. */

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


/* The round's draws, counter-based (Salmon et al., SC 2011): under a round's
   key k (fedmtl.solver._round_key), node t's j-th draw is u(k_t, j), the
   j-th output of SplitMix64 (Steele, Lea & Flood, OOPSLA 2014) seeded with
   k_t = splitmix(k ^ splitmix(t)).  No draw depends on another. */

#define GOLDEN 0x9e3779b97f4a7c15ull

static uint64_t splitmix(uint64_t z)
{
    z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ull;
    z = (z ^ (z >> 27)) * 0x94d049bb133111ebull;
    return z ^ (z >> 31);
}

static uint64_t node_key(uint64_t key, int64_t t)
{
    return splitmix(key ^ splitmix((uint64_t)t));
}

static uint64_t draw(uint64_t node, uint64_t j)
{
    return splitmix(node + (j + 1) * GOLDEN);
}

/* The high 64 bits of u * (range + 1), in [0, range] for range < 2**32 - 1:
   Lemire's method (arXiv:1805.10941) without its rejection step, so each
   value's probability is within 2**-64 of 1 / (range + 1). */
static uint64_t bounded(uint64_t u, uint64_t range)
{
    return (uint64_t)(((unsigned __int128)u * (range + 1)) >> 64);
}

/* out[t] = lo + bounded(u(k_t, 0), range) for each node t, 0 <= t < m. */
void fedmtl_draw_integers(uint64_t key, int64_t lo, int64_t range, int64_t m, int64_t *out)
{
    for (int64_t t = 0; t < m; t++)
        out[t] = lo + (int64_t)bounded(draw(node_key(key, t), 0), (uint64_t)range);
}

/* out[t] = the top 53 bits of u(k_t, 0), over 2**53, for each node t < m. */
void fedmtl_draw_random(uint64_t key, int64_t m, double *out)
{
    for (int64_t t = 0; t < m; t++)
        out[t] = (double)(draw(node_key(key, t), 0) >> 11) * (1.0 / 9007199254740992.0);
}

/* For node t < m, counts[t] entries of a forward Fisher-Yates shuffle
   (Durstenfeld, CACM 1964) of 0 .. n - 1, n = sizes[t], appended to out:
   entry k swaps position i = k mod n with i + bounded(u(k_t, k), n - 1 - i)
   and reads position i.  work holds n entries; n is in [1, 2**32). */
void fedmtl_draw_permutations(uint64_t key, int64_t m, const int64_t *sizes,
                              const int64_t *counts, int64_t *work, int64_t *out)
{
    for (int64_t t = 0; t < m; t++) {
        int64_t n = sizes[t], i = 0;     /* i = k mod n */
        uint64_t node = node_key(key, t);
        for (int64_t k = 0; k < counts[t]; k++) {
            int64_t j, kept;
            if (i == 0)
                for (int64_t e = 0; e < n; e++)
                    work[e] = e;
            j = i + (int64_t)bounded(draw(node, (uint64_t)k), (uint64_t)(n - 1 - i));
            kept = work[j];
            work[j] = work[i];
            work[i] = kept;
            *out++ = kept;
            if (++i == n)
                i = 0;
        }
    }
}
