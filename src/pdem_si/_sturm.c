/* The Sturm sweeps of oracle.py (_count, _count_slope, _lanes, _twisted)
   and their input arrays. Each loop does the Python loop's arithmetic in the
   same order, so the two agree bit for bit; oracle.py compiles this file with
   -ffp-contract=off (no fused multiply-adds) and -fno-builtin (pow stays the
   libm call that Python's e**2 makes). */
#include <math.h>
#include <string.h>

#define PIVMIN 1e-290

/* a zero pivot becomes -pivmin, so that it counts below */
static double pivot(double q) { return -PIVMIN < q && q < PIVMIN ? -PIVMIN : q; }

long sturm_count(const double *d, const double *e2, long n, double t)
{
    double q = pivot(d[0] - t);
    long cnt = q < 0.0;
    for (long j = 1; j < n; j++) {
        q = pivot((d[j] - t) - e2[j - 1] / q);
        cnt += q < 0.0;
    }
    return cnt;
}

/* returns the slope d/dt log|det(T - t)|; the count goes to *cnt */
double sturm_count_slope(const double *d, const double *e2, long n, double t, long *cnt)
{
    double q = pivot(d[0] - t), p = -1.0 / q, slope = p;
    long c = q < 0.0;
    for (long j = 1; j < n; j++) {
        double r = e2[j - 1] / q;
        q = pivot((d[j] - t) - r);
        c += q < 0.0;
        p = (r * p - 1.0) / q;
        slope += p;
    }
    *cnt = c;
    return slope;
}

/* sturm_count_slope at the first ms and sturm_count at the other m - ms of
   the m <= 8 shifts t, in one pass: the lanes' division chains are
   independent, so one lane's divisions run while another's wait, and each
   lane does its single sweep's operations in the same order; slope is
   written for the first ms lanes only */
void sturm_lanes(const double *d, const double *e2, long n, const double *t, long m, long ms, long *cnt, double *slope)
{
    double q[8], p[8], s[8];
    long c[8];
    for (long i = 0; i < m; i++) {
        q[i] = pivot(d[0] - t[i]);
        c[i] = q[i] < 0.0;
    }
    for (long i = 0; i < ms; i++)
        s[i] = p[i] = -1.0 / q[i];
    for (long j = 1; j < n; j++) {
        for (long i = 0; i < ms; i++) {
            double r = e2[j - 1] / q[i];
            q[i] = pivot((d[j] - t[i]) - r);
            c[i] += q[i] < 0.0;
            p[i] = (r * p[i] - 1.0) / q[i];
            s[i] += p[i];
        }
        for (long i = ms; i < m; i++) {
            q[i] = pivot((d[j] - t[i]) - e2[j - 1] / q[i]);
            c[i] += q[i] < 0.0;
        }
    }
    for (long i = 0; i < m; i++)
        cnt[i] = c[i];
    for (long i = 0; i < ms; i++)
        slope[i] = s[i];
}

/* the pivots of sturm_count's sweep at t, from the top into fwd and from the
   bottom into bwd: bwd[j] = pivot((d[j] - t) - e2[j] / bwd[j + 1]), the
   sweep of the reversed arrays read from the end, so the two independent
   recurrences share one loop */
void sturm_twisted(const double *d, const double *e2, long n, double t, double *fwd, double *bwd)
{
    fwd[0] = pivot(d[0] - t);
    bwd[n - 1] = pivot(d[n - 1] - t);
    for (long j = 1, k = n - 2; j < n; j++, k--) {
        fwd[j] = pivot((d[j] - t) - e2[j - 1] / fwd[j - 1]);
        bwd[k] = pivot((d[k] - t) - e2[k] / bwd[k + 1]);
    }
}

/* d = diag and e2 = off**2 for n diagonal entries, squared as Python's float
   power squares: pow of the magnitude. Returns the number of finite entries
   whose square overflows, where Python raises OverflowError. */
long sweep_arrays(const double *diag, const double *off, long n, double *d, double *e2)
{
    long overflow = 0;
    memcpy(d, diag, n * sizeof *d);
    for (long j = 0; j < n - 1; j++) {
        e2[j] = pow(fabs(off[j]), 2.0);
        overflow += isinf(e2[j]) && !isinf(off[j]);
    }
    return overflow;
}
