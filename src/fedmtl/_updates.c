/* Exact single-coordinate updates of the local dual subproblem.

   fedmtl_run_updates is the native body of fedmtl.solver._run_updates, and
   fedmtl_run_round, which runs it for a range of nodes, that of
   fedmtl.solver._run_round; _run_updates_py is the reference both must
   match.  Built without contraction into fused multiply-adds, so each
   operation rounds as it does in Python. */

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

/* X is d x n, column-major, so column i starts at X + i * d.  For each index
   in idx, in order, the step for coordinate i is added to delta[i] and
   step * x_i to u. */
void fedmtl_run_updates(int hinge, int64_t d, int64_t count,
                        const double *X, const double *w, const double *y,
                        const double *alpha, const double *norms2, double kappa,
                        const int64_t *idx, double *delta, double *u)
{
    for (int64_t k = 0; k < count; k++) {
        int64_t i = idx[k];
        const double *x = X + i * d;
        double wx = 0.0, ux = 0.0, step;
        for (int64_t j = 0; j < d; j++) {
            wx += w[j] * x[j];
            ux += u[j] * x[j];
        }
        double s = wx + kappa * ux, a = alpha[i] + delta[i];
        if (hinge)
            step = hinge_delta(a, y[i], s, norms2[i], kappa);
        else
            step = (y[i] - a - s) / (1.0 + kappa * norms2[i]);
        if (step != 0.0) {
            delta[i] += step;
            for (int64_t j = 0; j < d; j++)
                u[j] += step * x[j];
        }
    }
}

/* Nodes t0 <= t < t1 of one round, each against its own snapshot.  X[t] is
   node t's d x n_t column-major features; W (m x d, row-major) holds node
   t's weights in row t.  The packed n-vectors y, alpha, norms2 and delta
   hold node t's entries at offsets[t] .. offsets[t + 1]; its indices, local
   to the node, are idx[starts[t]] .. idx[starts[t + 1] - 1].  U (m x d,
   row-major, zeroed) takes node t's u in row t. */
void fedmtl_run_round(int hinge, int64_t d, int64_t t0, int64_t t1,
                      const double *const *X, const double *W, const double *y,
                      const double *alpha, const double *norms2,
                      const double *kappa, const int64_t *offsets,
                      const int64_t *idx, const int64_t *starts,
                      double *delta, double *U)
{
    for (int64_t t = t0; t < t1; t++) {
        int64_t o = offsets[t];
        fedmtl_run_updates(hinge, d, starts[t + 1] - starts[t], X[t], W + t * d,
                           y + o, alpha + o, norms2 + o, kappa[t],
                           idx + starts[t], delta + o, U + t * d);
    }
}
