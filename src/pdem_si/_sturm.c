/* The Sturm sweeps of oracle.py (_count, _count_slope, _slopes, _pivots)
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

/* sturm_count_slope at the m <= 8 shifts t in one pass: the lanes' division
   chains are independent, so one lane's divisions run while another's wait,
   and each lane does the single sweep's operations in the same order */
void sturm_slopes(const double *d, const double *e2, long n, const double *t, long m, long *cnt, double *slope)
{
    double q[8], p[8];
    for (long i = 0; i < m; i++) {
        q[i] = pivot(d[0] - t[i]);
        p[i] = -1.0 / q[i];
        slope[i] = p[i];
        cnt[i] = q[i] < 0.0;
    }
    for (long j = 1; j < n; j++)
        for (long i = 0; i < m; i++) {
            double r = e2[j - 1] / q[i];
            q[i] = pivot((d[j] - t[i]) - r);
            cnt[i] += q[i] < 0.0;
            p[i] = (r * p[i] - 1.0) / q[i];
            slope[i] += p[i];
        }
}

void sturm_pivots(const double *d, const double *e2, long n, double t, double *out)
{
    out[0] = pivot(d[0] - t);
    for (long j = 1; j < n; j++)
        out[j] = pivot((d[j] - t) - e2[j - 1] / out[j - 1]);
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
