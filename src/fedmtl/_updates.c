/* Exact single-coordinate updates of the local dual subproblem.

   The native body of fedmtl.solver._run_updates; _run_updates_py is the
   reference it must match.  X is d x n, column-major, so column i starts at
   X + i * d.  For each index in idx, in order, the step for coordinate i is
   added to delta[i] and step * x_i to u.  Built without contraction into
   fused multiply-adds, so each operation rounds as it does in Python. */

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
