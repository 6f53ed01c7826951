/* Native micro steps of the two-spring chain's stiff flow.
 *
 * oscint_pair_flow repeats StiffSpringChain's generic stiff_flow
 * (model.leapfrog over grad_stiff) operation for operation, so its
 * results are bit-identical to the numpy loop.  oscint_hypot is CPython's
 * two-argument math.hypot (vector_norm in Modules/mathmodule.c) for the
 * interpreter this file is compiled for: PY_MINOR < 12 selects the
 * Veltkamp-split form of 3.10 and 3.11, otherwise the fma form of 3.12 on.
 *
 * Build with -ffp-contract=off and without -ffast-math: a fused
 * multiply-add anywhere else would change the last bits.
 */
#include <float.h>
#include <math.h>

#ifndef PY_MINOR
#error "compile with -DPY_MINOR=<the interpreter's minor version>"
#endif

/* csum += t with its rounding error added to frac; needs |csum| >= |t| */
static void fast_sum(double *csum, double *frac, double t)
{
    double old = *csum;
    *csum += t;
    *frac += (old - *csum) + t;
}

double oscint_hypot(double x, double y)
{
    double max, scale, h, t, csum = 1.0, frac1 = 0.0, frac2 = 0.0;
    double vec[2];
    int i, max_e;

    x = fabs(x);
    y = fabs(y);
    if (isinf(x) || isinf(y))
        return INFINITY;
    if (isnan(x) || isnan(y))
        return NAN;
    max = x > y ? x : y;
    if (max == 0.0)
        return max;
    vec[0] = x;
    vec[1] = y;
    frexp(max, &max_e);
#if PY_MINOR < 12
    {
        const double T27 = 134217729.0;  /* 2**27 + 1 */
        double hi, lo, frac3 = 0.0;
        if (max_e < -1023) {  /* ldexp(1.0, -max_e) would overflow: divide by max */
            for (i = 0; i < 2; i++) {
                t = vec[i] / max;
                fast_sum(&csum, &frac1, t * t);
            }
            return max * sqrt(csum - 1.0 + frac1);
        }
        scale = ldexp(1.0, -max_e);
        for (i = 0; i < 2; i++) {
            t = vec[i] * scale;  /* lossless scaling into [0.5, 1) */
            h = t * T27;         /* Veltkamp split: hi * hi and hi * lo are exact */
            hi = h - (h - t);
            lo = t - hi;
            fast_sum(&csum, &frac1, hi * hi);
            fast_sum(&csum, &frac2, 2.0 * hi * lo);
            frac3 += lo * lo;
        }
        h = sqrt(csum - 1.0 + (frac1 + frac2 + frac3));
        t = h * T27;
        hi = t - (t - h);
        lo = h - hi;
        fast_sum(&csum, &frac1, -hi * hi);
        fast_sum(&csum, &frac2, -2.0 * hi * lo);
        fast_sum(&csum, &frac3, -lo * lo);
        t = csum - 1.0 + (frac1 + frac2 + frac3);
        return (h + t / (2.0 * h)) / scale;  /* differential correction */
    }
#else
    if (max_e < -1023)  /* ldexp(1.0, -max_e) would overflow: subnormals to normals */
        return DBL_MIN * oscint_hypot(x / DBL_MIN, y / DBL_MIN);
    scale = ldexp(1.0, -max_e);
    for (i = 0; i < 2; i++) {
        t = vec[i] * scale;              /* lossless scaling into [0.5, 1) */
        frac1 += fma(t, t, -(t * t));    /* t * t is exact as a sum of two */
        fast_sum(&csum, &frac2, t * t);
    }
    h = sqrt(csum - 1.0 + (frac1 + frac2));
    frac1 += fma(-h, h, -(-h * h));
    fast_sum(&csum, &frac2, -h * h);
    t = csum - 1.0 + (frac1 + frac2);
    h += t / (2.0 * h);  /* differential correction */
    return h / scale;
#endif
}

/* s[0:4] = x, s[4:8] = y, s[8:15] = (a1, a2, l1, l2, kick, half,
 * h_micro), s[15] = the shortest admissible spring.  Runs nsteps micro
 * steps and leaves the new (x, y) in s[0:8].  Returns -1, or on a
 * collapsed spring its index with its length in s[8] (the state is then
 * partly advanced).  The operations and their order are model.leapfrog's
 * over StiffSpringChain.grad_stiff: pass 0 takes the opening force and
 * half kick (and returns after its collapse test when nsteps = 0), the
 * passes up to nsteps - 1 drift, force and kick, and the last one kicks
 * by half. */
int oscint_pair_flow(double *s, long nsteps)
{
    double x0 = s[0], x1 = s[1], x2 = s[2], x3 = s[3];
    double y0 = s[4], y1 = s[5], y2 = s[6], y3 = s[7];
    const double a1 = s[8], a2 = s[9], l1 = s[10], l2 = s[11];
    const double kick = s[12], half = s[13], h = s[14], rmin = s[15];
    double r1, r2, d0, d1, c1, c2, e0, e1, k;
    long pass;

    for (pass = 0; ; pass++) {
        if (pass > 0) {
            x0 = x0 + h * y0;
            x1 = x1 + h * y1;
            x2 = x2 + h * y2;
            x3 = x3 + h * y3;
        }
        r1 = oscint_hypot(x0, x1);
        if (r1 < rmin) {
            s[8] = r1;
            return 0;
        }
        d0 = x2 - x0;
        d1 = x3 - x1;
        r2 = oscint_hypot(d0, d1);
        if (r2 < rmin) {
            s[8] = r2;
            return 1;
        }
        if (nsteps == 0)
            return -1;
        c1 = a1 * (r1 - l1) / r1;
        c2 = a2 * (r2 - l2) / r2;
        e0 = c2 * d0;
        e1 = c2 * d1;
        k = pass > 0 && pass < nsteps ? kick : half;
        y0 = y0 + k * (c1 * x0 - e0);
        y1 = y1 + k * (c1 * x1 - e1);
        y2 = y2 + k * e0;
        y3 = y3 + k * e1;
        if (pass > 0 && pass >= nsteps)
            break;
    }
    s[0] = x0; s[1] = x1; s[2] = x2; s[3] = x3;
    s[4] = y0; s[5] = y1; s[6] = y2; s[7] = y3;
    return -1;
}
