/* The Sturm sweeps of oracle.py (sturm_lanes runs _count, _count_slope and
   _lanes), the twisted eigenvectors of _twisted_rows (sturm_vectors) and
   their input arrays (sweep_arrays), each with the arithmetic of the Python
   code that runs where this file cannot be built, in the same order, so the
   two agree bit for bit; oracle.py compiles it with -ffp-contract=off (no
   fused multiply-adds) and -fno-builtin (pow stays the libm call of
   Python's e**2). Both sweeps run two shifts in the lanes of a vector of two
   doubles (GCC/clang vector extensions: SSE2 on x86-64, NEON on aarch64);
   IEEE division, subtraction and comparison give each lane the scalar bits. */
#include <math.h>
#include <string.h>

#define PIVMIN 1e-290
typedef double v2d __attribute__((vector_size(16)));
typedef long long v2l __attribute__((vector_size(16)));

/* a zero pivot becomes -pivmin, so that it counts below; the rare replacement
   is a predicted branch, which keeps the blend off the division chain */
static v2d pivot2(v2d q)
{
    v2l tiny = (-PIVMIN < q) & (q < PIVMIN);
    if (__builtin_expect((tiny[0] | tiny[1]) != 0, 0))
        q = (v2d)(((v2l)q & ~tiny) | ((v2l)(v2d){-PIVMIN, -PIVMIN} & tiny));
    return q;
}

/* the pass of sturm_lanes in nv vectors, the first vs of them slope vectors,
   inlined and unrolled at constant nv and vs: with run-time trip counts the
   vectors live in memory, and each chain pays a store and a reload per step */
static inline __attribute__((always_inline)) void lanes(const double *d, const double *e2, long n, const double *t, long m, long ms, long *cnt, double *slope, int nv, int vs)
{
    v2d tv[4], q[4], p[4], s[4];
    v2l c[4];
    for (int i = 0; i < nv; i++) {
        tv[i] = (v2d){t[2 * i], t[2 * i + 1 < m ? 2 * i + 1 : 2 * i]};
        q[i] = pivot2(d[0] - tv[i]);
        c[i] = -(q[i] < 0.0);
        s[i] = p[i] = -1.0 / q[i];
    }
    for (long j = 1; j < n; j++) {
        double dj = d[j], ej = e2[j - 1];
#pragma GCC unroll 4
        for (int i = 0; i < vs; i++) {
            v2d r = ej / q[i];
            q[i] = pivot2((dj - tv[i]) - r);
            c[i] -= q[i] < 0.0;
            p[i] = (r * p[i] - 1.0) / q[i];
            s[i] += p[i];
        }
#pragma GCC unroll 4
        for (int i = vs; i < nv; i++) {
            q[i] = pivot2((dj - tv[i]) - ej / q[i]);
            c[i] -= q[i] < 0.0;
        }
    }
    for (int i = 0; i < nv; i++)
        for (int l = 0; l < 2 && 2 * i + l < m; l++)
            cnt[2 * i + l] = c[i][l];
    for (int i = 0; i < vs; i++)
        for (int l = 0; l < 2 && 2 * i + l < ms; l++)
            slope[2 * i + l] = s[i][l];
}

/* the counts of _count at the m <= 8 shifts t and the slopes of _count_slope
   at the first ms of them, in one pass: shifts 2i and 2i + 1 share vector i,
   an odd m pairs the last shift with a copy of itself, and a vector with a
   slope shift carries the slope in both lanes (a count is the same either
   way). The vectors' division chains are independent, so one vector's
   divisions run while another's wait; the switch over the 14 shapes
   (vectors, slope vectors) gives each pass constant trip counts */
void sturm_lanes(const double *d, const double *e2, long n, const double *t, long m, long ms, long *cnt, double *slope)
{
#define SHAPE(nv, vs) case 8 * nv + vs: lanes(d, e2, n, t, m, ms, cnt, slope, nv, vs); break;
    switch (8 * ((m + 1) / 2) + (ms + 1) / 2) {
        SHAPE(1, 0) SHAPE(1, 1) SHAPE(2, 0) SHAPE(2, 1) SHAPE(2, 2) SHAPE(3, 0) SHAPE(3, 1)
        SHAPE(3, 2) SHAPE(3, 3) SHAPE(4, 0) SHAPE(4, 1) SHAPE(4, 2) SHAPE(4, 3) SHAPE(4, 4)
    }
}

/* the twisted vector from the forward pivots z and the backward pivots b at
   t, in place of the forward pivots: the first argmin r of |(z + b) - (d -
   t)| (or the first NaN, as np.argmin finds it), z_r = 1, and the products
   of -off/z and -off/b outward from r, multiplied in np.cumprod's order */
static void twist(const double *d, const double *off, long n, double t, double *z, const double *b)
{
    long r = 0;
    double best = fabs((z[0] + b[0]) - (d[0] - t));
    for (long j = 1; j < n && best == best; j++) {
        double g = fabs((z[j] + b[j]) - (d[j] - t));
        if (g < best || g != g) {
            best = g;
            r = j;
        }
    }
    double x = 1.0;
    for (long j = r - 1; j >= 0; j--)
        z[j] = x = x * (-off[j] / z[j]);
    z[r] = x = 1.0;
    for (long j = r + 1; j < n; j++)
        z[j] = x = x * (-off[j - 1] / b[j]);
}

/* the k twisted vectors at the eigenvalues lam into the rows of z (row i at
   z + i ld), two eigenvalues at a time: the vectors f and g carry the
   forward pivots of _pivots at both eigenvalues, and the backward ones,
   bwd[j] = pivot((d[j] - t) - e2[j] / bwd[j + 1]), the sweep of the reversed
   arrays read from the end, so the four recurrences share one loop. The
   forward pivots go to the rows of z, the backward ones to the two rows of
   bwd (2 n doubles); an odd k pairs the last eigenvalue with itself */
void sturm_vectors(const double *d, const double *e2, const double *off, long n, const double *lam, long k, double *z, long ld, double *bwd)
{
    for (long a = 0; a < k; a += 2) {
        long b = a + 1 < k ? a + 1 : a;
        double *za = z + a * ld, *zb = z + b * ld, *ba = bwd, *bb = bwd + n;
        v2d t = {lam[a], lam[b]}, f = pivot2(d[0] - t), g = pivot2(d[n - 1] - t);
        za[0] = f[0], zb[0] = f[1], ba[n - 1] = g[0], bb[n - 1] = g[1];
        for (long j = 1, i = n - 2; j < n; j++, i--) {
            f = pivot2((d[j] - t) - e2[j - 1] / f);
            g = pivot2((d[i] - t) - e2[i] / g);
            za[j] = f[0], zb[j] = f[1], ba[i] = g[0], bb[i] = g[1];
        }
        twist(d, off, n, lam[a], za, ba);
        if (b != a)
            twist(d, off, n, lam[b], zb, bb);
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
