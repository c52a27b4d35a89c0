/*
 * Compiled extended-ADMM iteration (see solver.py).
 *
 * Each stage_* function is the arithmetic of one stage of the iteration on
 * the operands of a struct eadmm. Every element comes from the same IEEE
 * expression, in the same order, as the numpy expression it replaces:
 *
 *  - elementwise operations keep numpy's operand order and association;
 *    the build flags forbid contracting them into fused multiply-adds;
 *  - a row sum is np.add.reduce's: 0 plus numpy's pairwise sum;
 *  - abs-max and clip propagate NaN as numpy's maximum and clip do;
 *  - the three small matrix products are the BLAS calls np.dot makes and
 *    the band solve is the LAPACK dpbtrs that scipy.linalg.lapack wraps,
 *    all through the pointers scipy.linalg.cython_blas and cython_lapack
 *    export.
 *
 * The entry points are one per stage, which the Python stage functions
 * call; solve, which runs a whole solve's loop of stages, exit tests and
 * buffer swaps in one call; and band_solve, the band solve alone, a test
 * hook that compares it with f2py's dpbtrs and that nothing else calls.
 *
 * Arguments are checked before anything is read: each must be an aligned,
 * native-order, C-contiguous float64 array (the band Fortran-contiguous) of
 * the shape the call's z1 (or z3) and x imply, and writeable if the call
 * writes it; otherwise DimensionMismatch. The kernel allocates nothing and
 * writes only into the arrays it is given as outputs.
 */
#define PY_SSIZE_T_CLEAN
#define NPY_NO_DEPRECATED_API NPY_1_7_API_VERSION
#include <Python.h>
#include <numpy/arrayobject.h>
#include <math.h>

typedef void dgemm_fn(char *, char *, int *, int *, int *, double *, double *,
                      int *, double *, int *, double *, double *, int *);
typedef void dgemv_fn(char *, int *, int *, double *, double *, int *,
                      double *, int *, double *, double *, int *);
typedef void dpbtrs_fn(char *, int *, int *, int *, double *, int *, double *,
                       int *, int *);

static dgemm_fn *dgemm;
static dgemv_fn *dgemv;
static dpbtrs_fn *dpbtrs;
static PyObject *DimensionMismatch;

/* How operand() checks an array: read, written, or read as a
   Fortran-ordered LAPACK band. */
enum { IN = 0, OUT = 1, BAND = 2 };

/* The operands of the iteration. n states, nm = n + m rows and cols = N + 1
   columns; every BLAS and LAPACK extent derived from them was checked to fit
   an int by the entry point. z2 and z3 are the current iterates and
   z2_spare and z3_spare their second buffers: solve_qp2 and solve_qp3 write
   the next iterate into the spare, the two are swapped, and the spare then
   holds the previous iterate, which the dual residual reads. */
struct eadmm {
    npy_intp n, nm, cols;
    double *z1, *z2, *z3, *lam, *gamma, *z2_spare, *z3_spare;
    double *zsum, *q2, *q3, *work, *prod, *rhs;
    const double *x, *ts_r, *rho0, *rho_hat, *rho_s, *columns;
    const double *H1_inv, *z1_lb, *z1_ub, *H3_inv, *neg_H3_inv;
    double *AB, *M2, *band;
};

/* The data of `obj` if it is a float64 array fit for the kernel with extents
   (d0, d1), or (d0,) when d1 < 0; else NULL with DimensionMismatch set,
   naming the first unfit operand of the call. */
static double *
operand(PyObject *obj, const char *name, npy_intp d0, npy_intp d1, int how)
{
    PyArrayObject *a = (PyArrayObject *)obj;
    int ndim = d1 < 0 ? 1 : 2;
    if (!PyArray_Check(obj) || PyArray_TYPE(a) != NPY_DOUBLE
        || !(how == OUT ? PyArray_ISCARRAY(a)
             : how == BAND ? PyArray_ISFARRAY_RO(a) : PyArray_ISCARRAY_RO(a))
        || PyArray_NDIM(a) != ndim || PyArray_DIM(a, 0) != d0
        || (ndim == 2 && PyArray_DIM(a, 1) != d1)) {
        if (PyErr_Occurred())
            return NULL;
        const char *kind = how == OUT ? " writeable C-contiguous"
                           : how == BAND ? " Fortran-contiguous" : " C-contiguous";
        if (ndim == 1)
            PyErr_Format(DimensionMismatch, "%s must be a%s float64 array of shape (%zd,)",
                         name, kind, (Py_ssize_t)d0);
        else
            PyErr_Format(DimensionMismatch, "%s must be a%s float64 array of shape (%zd, %zd)",
                         name, kind, (Py_ssize_t)d0, (Py_ssize_t)d1);
        return NULL;
    }
    return (double *)PyArray_DATA(a);
}

/* Extents of the two-dimensional array `obj` (at least one row and two
   columns), which sets the shapes of a call's other operands. */
static int
extents(PyObject *obj, const char *name, npy_intp *rows, npy_intp *cols)
{
    if (!PyArray_Check(obj) || PyArray_NDIM((PyArrayObject *)obj) != 2
        || PyArray_DIM((PyArrayObject *)obj, 0) < 1
        || PyArray_DIM((PyArrayObject *)obj, 1) < 2) {
        PyErr_Format(DimensionMismatch,
                     "%s must be a two-dimensional array with at least two columns", name);
        return -1;
    }
    *rows = PyArray_DIM((PyArrayObject *)obj, 0);
    *cols = PyArray_DIM((PyArrayObject *)obj, 1);
    return 0;
}

/* Leading extent of the `ndim`-dimensional array `obj`, from 1 to `most`. */
static int
leading(PyObject *obj, const char *name, int ndim, npy_intp most, npy_intp *len)
{
    if (!PyArray_Check(obj) || PyArray_NDIM((PyArrayObject *)obj) != ndim
        || PyArray_DIM((PyArrayObject *)obj, 0) < 1
        || PyArray_DIM((PyArrayObject *)obj, 0) > most) {
        PyErr_Format(DimensionMismatch,
                     "%s must be a %d-dimensional array with 1 to %zd rows",
                     name, ndim, (Py_ssize_t)most);
        return -1;
    }
    *len = PyArray_DIM((PyArrayObject *)obj, 0);
    return 0;
}

static int
arity(Py_ssize_t nargs, Py_ssize_t want, const char *fn)
{
    if (nargs == want)
        return 0;
    PyErr_Format(PyExc_TypeError, "%s takes %zd arguments (%zd given)", fn, want, nargs);
    return -1;
}

/* Whether every extent in `v` fits the BLAS and LAPACK integer; they are
   far below INT_MAX for any horizon whose band fits in memory, but say so
   if one is not. */
static int
blas_ints(const npy_intp *v, int count)
{
    for (int i = 0; i < count; i++)
        if (v[i] > INT_MAX) {
            PyErr_SetString(DimensionMismatch, "dimension exceeds the BLAS integer range");
            return -1;
        }
    return 0;
}

/* numpy's pairwise summation: below 8 terms one by one from -0.0, up to 128
   in eight accumulators, above that the sum of two halves split at a
   multiple of 8. */
static double
pairwise_sum(const double *a, npy_intp n)
{
    if (n < 8) {
        double res = -0.0;
        for (npy_intp i = 0; i < n; i++)
            res += a[i];
        return res;
    }
    if (n <= 128) {
        double r[8];
        npy_intp i;
        for (int k = 0; k < 8; k++)
            r[k] = a[k];
        for (i = 8; i < n - n % 8; i += 8)
            for (int k = 0; k < 8; k++)
                r[k] += a[i + k];
        double res = ((r[0] + r[1]) + (r[2] + r[3])) + ((r[4] + r[5]) + (r[6] + r[7]));
        for (; i < n; i++)
            res += a[i];
        return res;
    }
    npy_intp n2 = n / 2;
    n2 -= n2 % 8;
    return pairwise_sum(a, n2) + pairwise_sum(a + n2, n - n2);
}

/* np.add.reduce of a contiguous row: the identity 0 plus the pairwise sum. */
static double
row_sum(const double *a, npy_intp n)
{
    return 0.0 + pairwise_sum(a, n);
}

/* One step of numpy's maximum: a NaN on either side wins, the first kept. */
static inline double
max_step(double m, double v)
{
    return (m == m && !(v <= m)) ? v : m;
}

/* numpy's clip: max(x, lb) then min(., ub), NaN passed through. */
static inline double
clip(double x, double lb, double ub)
{
    double t = isnan(x) ? x : (x > lb ? x : lb);
    return isnan(t) ? t : (t < ub ? t : ub);
}

static inline void
swap(double **a, double **b)
{
    double *t = *a;
    *a = *b;
    *b = t;
}

/* solve_qp1: z1 = clip(H1_inv * v, lb, ub) with v the negated linear term
   of the trajectory subproblem, from zsum, lam, z2 and x. */
static void
stage_qp1(const struct eadmm *e)
{
    npy_intp n = e->n, nm = e->nm, cols = e->cols, N = cols - 1, lc = cols + 2;
    const double *zsum = e->zsum, *rh = e->rho_hat, *h1 = e->H1_inv;
    for (npy_intp i = 0; i < nm; i++) {
        const double *l = e->lam + i * lc;
        for (npy_intp j = 0; j <= N; j++) {
            npy_intp k = i * cols + j;
            double v = rh[k] * zsum[k] + l[j + 1];
            if (j == 0) {
                v -= l[0];
                if (i < n)
                    v += e->rho0[i] * e->x[i];
            }
            if (j == N)
                v += e->rho_s[i] * e->z2[i] + l[N + 2];
            v *= h1[k];
            e->z1[k] = clip(v, e->z1_lb[k], e->z1_ub[k]);
        }
    }
}

/* solve_qp2: z2_spare = M2 q2 with q2 the linear term of the reference
   subproblem, from z1, z3 and lam; work holds rho_hat * (z3 - z1). */
static void
stage_qp2(const struct eadmm *e)
{
    npy_intp nm = e->nm, cols = e->cols, N = cols - 1, lc = cols + 2;
    for (npy_intp i = 0; i < nm; i++) {
        double *w = e->work + i * cols;
        for (npy_intp j = 0; j < cols; j++) {
            npy_intp k = i * cols + j;
            w[j] = (e->z3[k] - e->z1[k]) * e->rho_hat[k];
        }
        double s = row_sum(w, cols) + row_sum(e->lam + i * lc + 1, cols + 1);
        e->q2[i] = s - (e->rho_s[i] * e->z1[i * cols + N] + e->ts_r[i]);
    }
    /* np.dot of a C-ordered matrix and a vector: dgemv 'T' on the matrix's
       column-major view. */
    char t = 'T';
    int bn = (int)nm, one = 1;
    double alpha = 1.0, beta = 0.0;
    dgemv(&t, &bn, &bn, &alpha, e->M2, &bn, e->q2, &one, &beta, e->z2_spare, &one);
}

/* First half of solve_qp3: q3 from z1, z2 and lam, work = H3_inv * q3, and
   the band solve's right-hand side
   rhs[k n + a] = work[a, k+1] - ([A B] work[:, :N])[a, k]. */
static void
stage_qp3_rhs(const struct eadmm *e)
{
    npy_intp n = e->n, nm = e->nm, cols = e->cols, N = cols - 1, lc = cols + 2;
    double *work = e->work, *prod = e->prod;
    for (npy_intp i = 0; i < nm; i++)
        for (npy_intp j = 0; j < cols; j++) {
            npy_intp k = i * cols + j;
            double q = (e->z2[i] - e->z1[k]) * e->rho_hat[k] + e->lam[i * lc + j + 1];
            e->q3[k] = q;
            work[k] = e->H3_inv[k] * q;
        }
    /* prod[:n] = AB @ work[:, :N], reading work's first N columns in place,
       as column-major (work[:, :N])' AB'. np.dot treats a one-row AB as a
       vector (row-major dgemv 'T', which is this 'N'), any other as a
       matrix (row-major dgemm, which is this 'N', 'N'). */
    char nt = 'N';
    int bN = (int)N, bn = (int)n, bnm = (int)nm, bcols = (int)cols, one = 1;
    double alpha = 1.0, beta = 0.0;
    if (n == 1)
        dgemv(&nt, &bN, &bnm, &alpha, work, &bcols, e->AB, &one, &beta, prod, &one);
    else
        dgemm(&nt, &nt, &bN, &bn, &bnm, &alpha, work, &bcols, e->AB, &bnm, &beta, prod, &bN);
    for (npy_intp a = 0; a < n; a++)
        for (npy_intp k = 0; k < N; k++)
            e->rhs[k * n + a] = work[a * cols + k + 1] - prod[a * N + k];
}

/* dpbtrs on `rhs` in place, as scipy.linalg.lapack.dpbtrs(band, rhs)
   computes it: upper band of `ldab` rows (bandwidth ldab - 1), one
   right-hand side. Returns LAPACK's info. */
static int
band_solve_in_place(double *band, int ldab, int order, double *rhs)
{
    char uplo = 'U';
    int kd = ldab - 1, nrhs = 1, info = 0;
    dpbtrs(&uplo, &order, &kd, &nrhs, band, &ldab, rhs, &order, &info);
    return info;
}

/* The band solve of solve_qp3 (banded_forward_backward): rhs becomes mu. */
static int
stage_band(const struct eadmm *e)
{
    return band_solve_in_place(e->band, (int)(2 * e->n), (int)((e->cols - 1) * e->n), e->rhs);
}

/* Second half of solve_qp3, after the band solve left mu in rhs:
   z3_spare = -H3_inv * (q3 + [A B]' mu on columns 0..N-1 - mu on the state
   rows of columns 1..N). */
static void
stage_qp3_update(const struct eadmm *e)
{
    npy_intp n = e->n, nm = e->nm, cols = e->cols, N = cols - 1;
    const double *mu = e->rhs;
    /* prod = [A B]' mu, as np.dot of two Fortran-ordered operands: the
       row-major dgemm with both transposed, column-major mu' [A B]. */
    char t = 'T';
    int bN = (int)N, bn = (int)n, bnm = (int)nm;
    double alpha = 1.0, beta = 0.0;
    dgemm(&t, &t, &bN, &bnm, &bn, &alpha, e->rhs, &bn, e->AB, &bnm, &beta, e->prod, &bN);
    for (npy_intp i = 0; i < nm; i++)
        for (npy_intp j = 0; j < cols; j++) {
            npy_intp k = i * cols + j;
            double q = e->q3[k];
            if (j < N)
                q += e->prod[i * N + j];
            if (i < n && j > 0)
                q -= mu[(j - 1) * n + i];
            e->z3_spare[k] = e->neg_H3_inv[k] * q;
        }
}

/* compute_residual: gamma from z1, z2, z3 and x; zsum = z2 + z3. Returns
   the largest |gamma| over the whole array, NaN if any entry is NaN. */
static double
stage_residual(const struct eadmm *e)
{
    npy_intp n = e->n, nm = e->nm, cols = e->cols, N = cols - 1, gc = cols + 2;
    double *g = e->gamma;
    for (npy_intp a = 0; a < n; a++)
        g[a * gc] = e->z1[a * cols] - e->x[a];
    for (npy_intp i = 0; i < nm; i++) {
        for (npy_intp j = 0; j < cols; j++) {
            npy_intp k = i * cols + j;
            e->zsum[k] = e->z2[i] + e->z3[k];
            g[i * gc + j + 1] = e->zsum[k] - e->z1[k];
        }
        g[i * gc + N + 2] = e->z2[i] - e->z1[i * cols + N];
    }
    double m = 0.0;
    for (npy_intp k = 0; k < nm * gc; k++)
        m = max_step(m, fabs(g[k]));
    return m;
}

/* update_duals: lam += columns * gamma. */
static void
stage_duals(const struct eadmm *e)
{
    npy_intp size = e->nm * (e->cols + 2);
    for (npy_intp k = 0; k < size; k++)
        e->lam[k] += e->columns[k] * e->gamma[k];
}

/* dual_residual: max(|s1|max, |s2|max) with Python's max, where
   s1 = rho_hat * dz2 + rho_hat * dz3 (plus rho_s * dz2 on the last column)
   and s2 the row sums of rho_hat * dz3, left in work; dz2 = z2 - z2_spare
   and dz3 = z3 - z3_spare. */
static double
stage_dual_residual(const struct eadmm *e)
{
    npy_intp nm = e->nm, cols = e->cols, N = cols - 1;
    const double *rh = e->rho_hat;
    double m1 = 0.0, m2 = 0.0;
    for (npy_intp i = 0; i < nm; i++) {
        double dz2 = e->z2[i] - e->z2_spare[i];
        double *w = e->work + i * cols;
        for (npy_intp j = 0; j < cols; j++) {
            npy_intp k = i * cols + j;
            w[j] = (e->z3[k] - e->z3_spare[k]) * rh[k];
            double s1 = rh[k] * dz2 + w[j];
            if (j == N)
                s1 += e->rho_s[i] * dz2;
            m1 = max_step(m1, fabs(s1));
        }
        m2 = max_step(m2, fabs(row_sum(w, cols)));
    }
    return m2 > m1 ? m2 : m1;
}

static PyObject *
rejected_band_argument(int info)
{
    PyErr_Format(DimensionMismatch, "dpbtrs rejected argument %d", -info);
    return NULL;
}

/* qp1(z1, zsum, lam, z2, x, rho0, rho_hat, rho_s, H1_inv, lb, ub) */
static PyObject *
qp1(PyObject *Py_UNUSED(self), PyObject *const *args, Py_ssize_t nargs)
{
    struct eadmm e;
    npy_intp nm, cols, n;
    if (arity(nargs, 11, "qp1") || extents(args[0], "z1", &nm, &cols)
        || leading(args[4], "x", 1, nm, &n))
        return NULL;
    npy_intp lc = cols + 2;
    e.n = n, e.nm = nm, e.cols = cols;
    e.z1 = operand(args[0], "z1", nm, cols, OUT);
    e.zsum = operand(args[1], "zsum", nm, cols, IN);
    e.lam = operand(args[2], "lam", nm, lc, IN);
    e.z2 = operand(args[3], "z2", nm, -1, IN);
    e.x = operand(args[4], "x", n, -1, IN);
    e.rho0 = operand(args[5], "rho0", n, -1, IN);
    e.rho_hat = operand(args[6], "rho_hat", nm, cols, IN);
    e.rho_s = operand(args[7], "rho_s", nm, -1, IN);
    e.H1_inv = operand(args[8], "H1_inv", nm, cols, IN);
    e.z1_lb = operand(args[9], "z1_lb", nm, cols, IN);
    e.z1_ub = operand(args[10], "z1_ub", nm, cols, IN);
    if (PyErr_Occurred())
        return NULL;
    stage_qp1(&e);
    Py_RETURN_NONE;
}

/* qp2(z2_out, z1, z3, lam, rho_hat, rho_s, ts_r, M2, work, q2) */
static PyObject *
qp2(PyObject *Py_UNUSED(self), PyObject *const *args, Py_ssize_t nargs)
{
    struct eadmm e;
    npy_intp nm, cols;
    if (arity(nargs, 10, "qp2") || extents(args[1], "z1", &nm, &cols) || blas_ints(&nm, 1))
        return NULL;
    npy_intp lc = cols + 2;
    e.nm = nm, e.cols = cols;
    e.z2_spare = operand(args[0], "z2 buffer", nm, -1, OUT);
    e.z1 = operand(args[1], "z1", nm, cols, IN);
    e.z3 = operand(args[2], "z3", nm, cols, IN);
    e.lam = operand(args[3], "lam", nm, lc, IN);
    e.rho_hat = operand(args[4], "rho_hat", nm, cols, IN);
    e.rho_s = operand(args[5], "rho_s", nm, -1, IN);
    e.ts_r = operand(args[6], "ts_r", nm, -1, IN);
    e.M2 = operand(args[7], "M2", nm, nm, IN);
    e.work = operand(args[8], "work", nm, cols, OUT);
    e.q2 = operand(args[9], "q2", nm, -1, OUT);
    if (PyErr_Occurred())
        return NULL;
    stage_qp2(&e);
    Py_RETURN_NONE;
}

/* qp3_rhs(rhs, q3, work, prod, z1, z2, lam, rho_hat, H3_inv, AB) */
static PyObject *
qp3_rhs(PyObject *Py_UNUSED(self), PyObject *const *args, Py_ssize_t nargs)
{
    struct eadmm e;
    npy_intp nm, cols, n;
    if (arity(nargs, 10, "qp3_rhs") || extents(args[4], "z1", &nm, &cols)
        || leading(args[9], "AB", 2, nm - 1, &n))
        return NULL;
    npy_intp N = cols - 1, lc = cols + 2, fit[] = {nm, cols};
    if (blas_ints(fit, 2))
        return NULL;
    e.n = n, e.nm = nm, e.cols = cols;
    e.rhs = operand(args[0], "rhs", N * n, -1, OUT);
    e.q3 = operand(args[1], "q3", nm, cols, OUT);
    e.work = operand(args[2], "work", nm, cols, OUT);
    e.prod = operand(args[3], "prod", nm, N, OUT);
    e.z1 = operand(args[4], "z1", nm, cols, IN);
    e.z2 = operand(args[5], "z2", nm, -1, IN);
    e.lam = operand(args[6], "lam", nm, lc, IN);
    e.rho_hat = operand(args[7], "rho_hat", nm, cols, IN);
    e.H3_inv = operand(args[8], "H3_inv", nm, cols, IN);
    e.AB = operand(args[9], "AB", n, nm, IN);
    if (PyErr_Occurred())
        return NULL;
    stage_qp3_rhs(&e);
    Py_RETURN_NONE;
}

/* qp3_update(z3_out, q3, rhs, prod, AB, neg_H3_inv) */
static PyObject *
qp3_update(PyObject *Py_UNUSED(self), PyObject *const *args, Py_ssize_t nargs)
{
    struct eadmm e;
    npy_intp nm, cols, n;
    if (arity(nargs, 6, "qp3_update") || extents(args[1], "q3", &nm, &cols)
        || leading(args[4], "AB", 2, nm - 1, &n))
        return NULL;
    npy_intp N = cols - 1, fit[] = {nm, N};
    if (blas_ints(fit, 2))
        return NULL;
    e.n = n, e.nm = nm, e.cols = cols;
    e.z3_spare = operand(args[0], "z3 buffer", nm, cols, OUT);
    e.q3 = operand(args[1], "q3", nm, cols, IN);
    e.rhs = operand(args[2], "rhs", N * n, -1, IN);
    e.prod = operand(args[3], "prod", nm, N, OUT);
    e.AB = operand(args[4], "AB", n, nm, IN);
    e.neg_H3_inv = operand(args[5], "neg_H3_inv", nm, cols, IN);
    if (PyErr_Occurred())
        return NULL;
    stage_qp3_update(&e);
    Py_RETURN_NONE;
}

/* residual(gamma, zsum, z1, z2, z3, x) */
static PyObject *
residual(PyObject *Py_UNUSED(self), PyObject *const *args, Py_ssize_t nargs)
{
    struct eadmm e;
    npy_intp nm, cols, n;
    if (arity(nargs, 6, "residual") || extents(args[2], "z1", &nm, &cols)
        || leading(args[5], "x", 1, nm, &n))
        return NULL;
    e.n = n, e.nm = nm, e.cols = cols;
    e.gamma = operand(args[0], "gamma", nm, cols + 2, OUT);
    e.zsum = operand(args[1], "zsum", nm, cols, OUT);
    e.z1 = operand(args[2], "z1", nm, cols, IN);
    e.z2 = operand(args[3], "z2", nm, -1, IN);
    e.z3 = operand(args[4], "z3", nm, cols, IN);
    e.x = operand(args[5], "x", n, -1, IN);
    if (PyErr_Occurred())
        return NULL;
    return PyFloat_FromDouble(stage_residual(&e));
}

/* duals(lam, columns, gamma) */
static PyObject *
duals(PyObject *Py_UNUSED(self), PyObject *const *args, Py_ssize_t nargs)
{
    struct eadmm e;
    npy_intp nm, gc;
    if (arity(nargs, 3, "duals") || extents(args[0], "lam", &nm, &gc))
        return NULL;
    e.nm = nm, e.cols = gc - 2;
    e.lam = operand(args[0], "lam", nm, gc, OUT);
    e.columns = operand(args[1], "columns", nm, gc, IN);
    e.gamma = operand(args[2], "gamma", nm, gc, IN);
    if (PyErr_Occurred())
        return NULL;
    stage_duals(&e);
    Py_RETURN_NONE;
}

/* dual_residual(z2, z2_prev, z3, z3_prev, rho_hat, rho_s, work) */
static PyObject *
dual_residual(PyObject *Py_UNUSED(self), PyObject *const *args, Py_ssize_t nargs)
{
    struct eadmm e;
    npy_intp nm, cols;
    if (arity(nargs, 7, "dual_residual") || extents(args[2], "z3", &nm, &cols))
        return NULL;
    e.nm = nm, e.cols = cols;
    e.z2 = operand(args[0], "z2", nm, -1, IN);
    e.z2_spare = operand(args[1], "z2_prev", nm, -1, IN);
    e.z3 = operand(args[2], "z3", nm, cols, IN);
    e.z3_spare = operand(args[3], "z3_prev", nm, cols, IN);
    e.rho_hat = operand(args[4], "rho_hat", nm, cols, IN);
    e.rho_s = operand(args[5], "rho_s", nm, -1, IN);
    e.work = operand(args[6], "work", nm, cols, OUT);
    if (PyErr_Occurred())
        return NULL;
    return PyFloat_FromDouble(stage_dual_residual(&e));
}

/* band_solve(band, rhs): rhs becomes the solution of W z = rhs, W given by
   the upper band of its Cholesky factor (one Fortran-ordered column per
   unknown). A test hook: the solver calls band_solve_in_place directly. */
static PyObject *
band_solve(PyObject *Py_UNUSED(self), PyObject *const *args, Py_ssize_t nargs)
{
    npy_intp rows, order;
    if (arity(nargs, 2, "band_solve") || leading(args[0], "band", 2, INT_MAX, &rows))
        return NULL;
    order = PyArray_DIM((PyArrayObject *)args[0], 1);
    double *band = operand(args[0], "band", rows, order, BAND);
    double *rhs = operand(args[1], "rhs", order, -1, OUT);
    if (!band || !rhs || blas_ints(&order, 1))
        return NULL;
    int info = band_solve_in_place(band, (int)rows, (int)order, rhs);
    if (info)
        return rejected_band_argument(info);
    Py_RETURN_NONE;
}

/* Status of a solve: the iteration cap ended it, the exit test passed, or
   the primal residual was not finite. */
enum { CAPPED = 0, CONVERGED = 1, BREAKDOWN = 2 };

/* The iterations of one solve, as eadmm_solve's stage loop runs them: zsum
   set to z2 + z3, then per iteration the five stages, the primal residual's
   finiteness and exit test, and the dual residual on iterations whose
   primal residual is within epsilon.
   solve(z1, z2, z3, lam, gamma, zsum, z2_spare, z3_spare, q2, q3, work,
         prod, rhs, x, ts_r, AB, rho0, rho_hat, rho_s, columns, H1_inv,
         z1_lb, z1_ub, M2, H3_inv, neg_H3_inv, band,
         epsilon, primal_only, max_iter)
   Returns (status, iterations, primal residual, dual residual), the last
   NaN when no iteration passed the primal test. The current z2 and z3 and
   their spares trade buffers every iteration, so after an odd number of
   iterations the final iterates are in the arrays given as the spares. */
static PyObject *
solve(PyObject *Py_UNUSED(self), PyObject *const *args, Py_ssize_t nargs)
{
    struct eadmm e;
    npy_intp nm, cols, n;
    if (arity(nargs, 30, "solve") || extents(args[0], "z1", &nm, &cols)
        || leading(args[13], "x", 1, nm - 1, &n))
        return NULL;
    npy_intp N = cols - 1, lc = cols + 2, fit[] = {nm, cols, N * n};
    if (blas_ints(fit, 3))
        return NULL;
    e.n = n, e.nm = nm, e.cols = cols;
    e.z1 = operand(args[0], "z1", nm, cols, OUT);
    e.z2 = operand(args[1], "z2", nm, -1, OUT);
    e.z3 = operand(args[2], "z3", nm, cols, OUT);
    e.lam = operand(args[3], "lam", nm, lc, OUT);
    e.gamma = operand(args[4], "gamma", nm, lc, OUT);
    e.zsum = operand(args[5], "zsum", nm, cols, OUT);
    e.z2_spare = operand(args[6], "z2 buffer", nm, -1, OUT);
    e.z3_spare = operand(args[7], "z3 buffer", nm, cols, OUT);
    e.q2 = operand(args[8], "q2", nm, -1, OUT);
    e.q3 = operand(args[9], "q3", nm, cols, OUT);
    e.work = operand(args[10], "work", nm, cols, OUT);
    e.prod = operand(args[11], "prod", nm, N, OUT);
    e.rhs = operand(args[12], "rhs", N * n, -1, OUT);
    e.x = operand(args[13], "x", n, -1, IN);
    e.ts_r = operand(args[14], "ts_r", nm, -1, IN);
    e.AB = operand(args[15], "AB", n, nm, IN);
    e.rho0 = operand(args[16], "rho0", n, -1, IN);
    e.rho_hat = operand(args[17], "rho_hat", nm, cols, IN);
    e.rho_s = operand(args[18], "rho_s", nm, -1, IN);
    e.columns = operand(args[19], "columns", nm, lc, IN);
    e.H1_inv = operand(args[20], "H1_inv", nm, cols, IN);
    e.z1_lb = operand(args[21], "z1_lb", nm, cols, IN);
    e.z1_ub = operand(args[22], "z1_ub", nm, cols, IN);
    e.M2 = operand(args[23], "M2", nm, nm, IN);
    e.H3_inv = operand(args[24], "H3_inv", nm, cols, IN);
    e.neg_H3_inv = operand(args[25], "neg_H3_inv", nm, cols, IN);
    e.band = operand(args[26], "band", 2 * n, N * n, BAND);
    if (PyErr_Occurred())
        return NULL;
    double eps = PyFloat_AsDouble(args[27]);
    int primal_only = PyObject_IsTrue(args[28]);
    Py_ssize_t max_iter = PyNumber_AsSsize_t(args[29], PyExc_OverflowError);
    if (PyErr_Occurred())
        return NULL;

    /* zsum = z2 + z3, which the first stage_qp1 reads. */
    for (npy_intp i = 0; i < nm; i++)
        for (npy_intp j = 0; j < cols; j++)
            e.zsum[i * cols + j] = e.z2[i] + e.z3[i * cols + j];
    int status = CAPPED;
    Py_ssize_t k = 0;
    double res = INFINITY, dual = NAN;
    while (k < max_iter) {
        stage_qp1(&e);
        stage_qp2(&e);
        swap(&e.z2, &e.z2_spare);
        stage_qp3_rhs(&e);
        int info = stage_band(&e);
        if (info)
            return rejected_band_argument(info);
        stage_qp3_update(&e);
        swap(&e.z3, &e.z3_spare);
        res = stage_residual(&e);
        stage_duals(&e);
        k++;
        if (!isfinite(res)) {
            status = BREAKDOWN;
            break;
        }
        if (res <= eps) {
            dual = stage_dual_residual(&e);
            if (primal_only || dual <= eps) {
                status = CONVERGED;
                break;
            }
        }
    }
    return Py_BuildValue("(indd)", status, k, res, dual);
}

#define FAST(name) {#name, (PyCFunction)(void (*)(void))name, METH_FASTCALL, NULL}

static PyMethodDef methods[] = {
    FAST(qp1), FAST(qp2), FAST(qp3_rhs), FAST(qp3_update),
    FAST(residual), FAST(duals), FAST(dual_residual),
    FAST(band_solve), FAST(solve),
    {NULL, NULL, 0, NULL},
};

static struct PyModuleDef module = {
    PyModuleDef_HEAD_INIT, "_kernel", "Compiled extended-ADMM iteration.", -1, methods,
    NULL, NULL, NULL, NULL,
};

/* The function pointer that the scipy module `source` exports under
   `name`, or NULL with ImportError set. */
static void *
scipy_function(const char *source, const char *name)
{
    PyObject *mod = PyImport_ImportModule(source);
    if (mod == NULL)
        return NULL;
    PyObject *capi = PyObject_GetAttrString(mod, "__pyx_capi__");
    Py_DECREF(mod);
    if (capi == NULL)
        return NULL;
    void *fn = NULL;
    PyObject *capsule = PyDict_GetItemString(capi, name);
    if (capsule == NULL)
        PyErr_Format(PyExc_ImportError, "%s has no %s", source, name);
    else
        fn = PyCapsule_GetPointer(capsule, PyCapsule_GetName(capsule));
    Py_DECREF(capi);
    return fn;
}

PyMODINIT_FUNC
PyInit__kernel(void)
{
    import_array();
    PyObject *errors = PyImport_ImportModule("mpct_eadmm.errors");
    if (errors == NULL)
        return NULL;
    DimensionMismatch = PyObject_GetAttrString(errors, "DimensionMismatch");
    Py_DECREF(errors);
    if (DimensionMismatch == NULL)
        return NULL;
    dgemm = (dgemm_fn *)scipy_function("scipy.linalg.cython_blas", "dgemm");
    dgemv = dgemm ? (dgemv_fn *)scipy_function("scipy.linalg.cython_blas", "dgemv") : NULL;
    dpbtrs = dgemv ? (dpbtrs_fn *)scipy_function("scipy.linalg.cython_lapack", "dpbtrs") : NULL;
    if (dpbtrs == NULL)
        return NULL;
    return PyModule_Create(&module);
}
