/*
 * Compiled stages of the extended-ADMM iteration (see solver.py).
 *
 * Each function is the arithmetic of one stage, called with the stage's
 * numpy arrays. Every element comes from the same IEEE expression, in the
 * same order, as the numpy expression it replaces:
 *
 *  - elementwise operations keep numpy's operand order and association;
 *    the build flags forbid contracting them into fused multiply-adds;
 *  - a row sum is np.add.reduce's: 0 plus numpy's pairwise sum;
 *  - abs-max and clip propagate NaN as numpy's maximum and clip do;
 *  - the three small matrix products are the BLAS calls np.dot makes
 *    (through scipy's BLAS), and the band solve between the two halves of
 *    solve_qp3 stays in Python.
 *
 * Arguments are checked before anything is read: each must be an aligned,
 * native-order, C-contiguous float64 array of the shape the stage's z1 (or
 * z3) and x imply, and writeable if the stage writes it; otherwise
 * DimensionMismatch. The kernel allocates nothing and writes only into the
 * arrays it is given as outputs.
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

static dgemm_fn *dgemm;
static dgemv_fn *dgemv;
static PyObject *DimensionMismatch;

enum { IN = 0, OUT = 1 };

/* The data of `obj` if it is a float64 array fit for the kernel with extents
   (d0, d1), or (d0,) when d1 < 0; else NULL with DimensionMismatch set,
   naming the first unfit operand of the call. */
static double *
operand(PyObject *obj, const char *name, npy_intp d0, npy_intp d1, int out)
{
    PyArrayObject *a = (PyArrayObject *)obj;
    int ndim = d1 < 0 ? 1 : 2;
    if (!PyArray_Check(obj) || PyArray_TYPE(a) != NPY_DOUBLE
        || !(out ? PyArray_ISCARRAY(a) : PyArray_ISCARRAY_RO(a))
        || PyArray_NDIM(a) != ndim || PyArray_DIM(a, 0) != d0
        || (ndim == 2 && PyArray_DIM(a, 1) != d1)) {
        if (PyErr_Occurred())
            return NULL;
        if (ndim == 1)
            PyErr_Format(DimensionMismatch,
                         "%s must be a%s C-contiguous float64 array of shape (%zd,)",
                         name, out ? " writeable" : "", (Py_ssize_t)d0);
        else
            PyErr_Format(DimensionMismatch,
                         "%s must be a%s C-contiguous float64 array of shape (%zd, %zd)",
                         name, out ? " writeable" : "", (Py_ssize_t)d0, (Py_ssize_t)d1);
        return NULL;
    }
    return (double *)PyArray_DATA(a);
}

/* Extents of the two-dimensional array `obj` (at least one row and two
   columns), which sets the shapes of a stage's other operands. */
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
    PyErr_Format(PyExc_TypeError, "%s takes %zd arrays (%zd given)", fn, want, nargs);
    return -1;
}

/* The BLAS integer of a dimension; every extent here is far below INT_MAX
   for any horizon whose band fits in memory, but say so if one is not. */
static int
blas_int(npy_intp v, int *out)
{
    if (v > INT_MAX) {
        PyErr_SetString(DimensionMismatch, "dimension exceeds the BLAS integer range");
        return -1;
    }
    *out = (int)v;
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

/* solve_qp1: z1 = clip(H1_inv * v, lb, ub) with v the negated linear term
   of the trajectory subproblem.
   qp1(z1, zsum, lam, z2, x, rho0, rho_hat, rho_s, H1_inv, lb, ub) */
static PyObject *
qp1(PyObject *Py_UNUSED(self), PyObject *const *args, Py_ssize_t nargs)
{
    npy_intp nm, cols, n;
    if (arity(nargs, 11, "qp1") || extents(args[0], "z1", &nm, &cols)
        || leading(args[4], "x", 1, nm, &n))
        return NULL;
    npy_intp N = cols - 1, lc = cols + 2;
    double *z1 = operand(args[0], "z1", nm, cols, OUT);
    const double *zsum = operand(args[1], "zsum", nm, cols, IN);
    const double *lam = operand(args[2], "lam", nm, lc, IN);
    const double *z2 = operand(args[3], "z2", nm, -1, IN);
    const double *x = operand(args[4], "x", n, -1, IN);
    const double *rho0 = operand(args[5], "rho0", n, -1, IN);
    const double *rh = operand(args[6], "rho_hat", nm, cols, IN);
    const double *rho_s = operand(args[7], "rho_s", nm, -1, IN);
    const double *h1 = operand(args[8], "H1_inv", nm, cols, IN);
    const double *lb = operand(args[9], "z1_lb", nm, cols, IN);
    const double *ub = operand(args[10], "z1_ub", nm, cols, IN);
    if (!z1 || !zsum || !lam || !z2 || !x || !rho0 || !rh || !rho_s || !h1 || !lb || !ub)
        return NULL;
    for (npy_intp i = 0; i < nm; i++) {
        const double *l = lam + i * lc;
        for (npy_intp j = 0; j <= N; j++) {
            npy_intp k = i * cols + j;
            double v = rh[k] * zsum[k] + l[j + 1];
            if (j == 0) {
                v -= l[0];
                if (i < n)
                    v += rho0[i] * x[i];
            }
            if (j == N)
                v += rho_s[i] * z2[i] + l[N + 2];
            v *= h1[k];
            z1[k] = clip(v, lb[k], ub[k]);
        }
    }
    Py_RETURN_NONE;
}

/* solve_qp2: z2 = M2 q2 with q2 the linear term of the reference subproblem.
   qp2(z2_out, z1, z3, lam, rho_hat, rho_s, ts_r, M2, work, q2) */
static PyObject *
qp2(PyObject *Py_UNUSED(self), PyObject *const *args, Py_ssize_t nargs)
{
    npy_intp nm, cols;
    int bn;
    if (arity(nargs, 10, "qp2") || extents(args[1], "z1", &nm, &cols) || blas_int(nm, &bn))
        return NULL;
    npy_intp N = cols - 1, lc = cols + 2;
    double *out = operand(args[0], "z2 buffer", nm, -1, OUT);
    const double *z1 = operand(args[1], "z1", nm, cols, IN);
    const double *z3 = operand(args[2], "z3", nm, cols, IN);
    const double *lam = operand(args[3], "lam", nm, lc, IN);
    const double *rh = operand(args[4], "rho_hat", nm, cols, IN);
    const double *rho_s = operand(args[5], "rho_s", nm, -1, IN);
    const double *ts_r = operand(args[6], "ts_r", nm, -1, IN);
    double *M2 = operand(args[7], "M2", nm, nm, IN);
    double *work = operand(args[8], "work", nm, cols, OUT);
    double *q2 = operand(args[9], "q2", nm, -1, OUT);
    if (!out || !z1 || !z3 || !lam || !rh || !rho_s || !ts_r || !M2 || !work || !q2)
        return NULL;
    for (npy_intp i = 0; i < nm; i++) {
        double *w = work + i * cols;
        for (npy_intp j = 0; j < cols; j++) {
            npy_intp k = i * cols + j;
            w[j] = (z3[k] - z1[k]) * rh[k];
        }
        double s = row_sum(w, cols) + row_sum(lam + i * lc + 1, cols + 1);
        q2[i] = s - (rho_s[i] * z1[i * cols + N] + ts_r[i]);
    }
    /* np.dot of a C-ordered matrix and a vector: dgemv 'T' on the matrix's
       column-major view. */
    char t = 'T';
    int one = 1;
    double alpha = 1.0, beta = 0.0;
    dgemv(&t, &bn, &bn, &alpha, M2, &bn, q2, &one, &beta, out, &one);
    Py_RETURN_NONE;
}

/* First half of solve_qp3: q3, work = H3_inv * q3, and the band solve's
   right-hand side rhs[k n + a] = work[a, k+1] - ([A B] work[:, :N])[a, k].
   qp3_rhs(rhs, q3, work, prod, z1, z2, lam, rho_hat, H3_inv, AB) */
static PyObject *
qp3_rhs(PyObject *Py_UNUSED(self), PyObject *const *args, Py_ssize_t nargs)
{
    npy_intp nm, cols, n;
    int bN, bn, bnm, bcols;
    if (arity(nargs, 10, "qp3_rhs") || extents(args[4], "z1", &nm, &cols)
        || leading(args[9], "AB", 2, nm - 1, &n))
        return NULL;
    npy_intp N = cols - 1, lc = cols + 2;
    if (blas_int(N, &bN) || blas_int(n, &bn) || blas_int(nm, &bnm) || blas_int(cols, &bcols))
        return NULL;
    double *rhs = operand(args[0], "rhs", N * n, -1, OUT);
    double *q3 = operand(args[1], "q3", nm, cols, OUT);
    double *work = operand(args[2], "work", nm, cols, OUT);
    double *prod = operand(args[3], "prod", nm, N, OUT);
    const double *z1 = operand(args[4], "z1", nm, cols, IN);
    const double *z2 = operand(args[5], "z2", nm, -1, IN);
    const double *lam = operand(args[6], "lam", nm, lc, IN);
    const double *rh = operand(args[7], "rho_hat", nm, cols, IN);
    const double *h3 = operand(args[8], "H3_inv", nm, cols, IN);
    double *AB = operand(args[9], "AB", n, nm, IN);
    if (!rhs || !q3 || !work || !prod || !z1 || !z2 || !lam || !rh || !h3 || !AB)
        return NULL;
    for (npy_intp i = 0; i < nm; i++)
        for (npy_intp j = 0; j < cols; j++) {
            npy_intp k = i * cols + j;
            double q = (z2[i] - z1[k]) * rh[k] + lam[i * lc + j + 1];
            q3[k] = q;
            work[k] = h3[k] * q;
        }
    /* prod[:n] = AB @ work[:, :N], reading work's first N columns in place,
       as column-major (work[:, :N])' AB'. np.dot treats a one-row AB as a
       vector (row-major dgemv 'T', which is this 'N'), any other as a
       matrix (row-major dgemm, which is this 'N', 'N'). */
    char nt = 'N';
    int one = 1;
    double alpha = 1.0, beta = 0.0;
    if (n == 1)
        dgemv(&nt, &bN, &bnm, &alpha, work, &bcols, AB, &one, &beta, prod, &one);
    else
        dgemm(&nt, &nt, &bN, &bn, &bnm, &alpha, work, &bcols, AB, &bnm, &beta, prod, &bN);
    for (npy_intp a = 0; a < n; a++)
        for (npy_intp k = 0; k < N; k++)
            rhs[k * n + a] = work[a * cols + k + 1] - prod[a * N + k];
    Py_RETURN_NONE;
}

/* Second half of solve_qp3, after the band solve left mu in rhs:
   z3 = -H3_inv * (q3 + [A B]' mu on columns 0..N-1 - mu on the state rows of
   columns 1..N).
   qp3_update(z3_out, q3, rhs, prod, AB, neg_H3_inv) */
static PyObject *
qp3_update(PyObject *Py_UNUSED(self), PyObject *const *args, Py_ssize_t nargs)
{
    npy_intp nm, cols, n;
    int bN, bn, bnm;
    if (arity(nargs, 6, "qp3_update") || extents(args[1], "q3", &nm, &cols)
        || leading(args[4], "AB", 2, nm - 1, &n))
        return NULL;
    npy_intp N = cols - 1;
    if (blas_int(N, &bN) || blas_int(n, &bn) || blas_int(nm, &bnm))
        return NULL;
    double *z3 = operand(args[0], "z3 buffer", nm, cols, OUT);
    const double *q3 = operand(args[1], "q3", nm, cols, IN);
    double *mu = operand(args[2], "rhs", N * n, -1, IN);
    double *prod = operand(args[3], "prod", nm, N, OUT);
    double *AB = operand(args[4], "AB", n, nm, IN);
    const double *nh3 = operand(args[5], "neg_H3_inv", nm, cols, IN);
    if (!z3 || !q3 || !mu || !prod || !AB || !nh3)
        return NULL;
    /* prod = [A B]' mu, as np.dot of two Fortran-ordered operands: the
       row-major dgemm with both transposed, column-major mu' [A B]. */
    char t = 'T';
    double alpha = 1.0, beta = 0.0;
    dgemm(&t, &t, &bN, &bnm, &bn, &alpha, mu, &bn, AB, &bnm, &beta, prod, &bN);
    for (npy_intp i = 0; i < nm; i++)
        for (npy_intp j = 0; j < cols; j++) {
            npy_intp k = i * cols + j;
            double q = q3[k];
            if (j < N)
                q += prod[i * N + j];
            if (i < n && j > 0)
                q -= mu[(j - 1) * n + i];
            z3[k] = nh3[k] * q;
        }
    Py_RETURN_NONE;
}

/* compute_residual: gamma from z1, z2, z3 and x; zsum = z2 + z3. Returns
   the largest |gamma| over the whole array, NaN if any entry is NaN.
   residual(gamma, zsum, z1, z2, z3, x) */
static PyObject *
residual(PyObject *Py_UNUSED(self), PyObject *const *args, Py_ssize_t nargs)
{
    npy_intp nm, cols, n;
    if (arity(nargs, 6, "residual") || extents(args[2], "z1", &nm, &cols)
        || leading(args[5], "x", 1, nm, &n))
        return NULL;
    npy_intp N = cols - 1, gc = cols + 2;
    double *g = operand(args[0], "gamma", nm, gc, OUT);
    double *zsum = operand(args[1], "zsum", nm, cols, OUT);
    const double *z1 = operand(args[2], "z1", nm, cols, IN);
    const double *z2 = operand(args[3], "z2", nm, -1, IN);
    const double *z3 = operand(args[4], "z3", nm, cols, IN);
    const double *x = operand(args[5], "x", n, -1, IN);
    if (!g || !zsum || !z1 || !z2 || !z3 || !x)
        return NULL;
    for (npy_intp a = 0; a < n; a++)
        g[a * gc] = z1[a * cols] - x[a];
    for (npy_intp i = 0; i < nm; i++) {
        for (npy_intp j = 0; j < cols; j++) {
            npy_intp k = i * cols + j;
            zsum[k] = z2[i] + z3[k];
            g[i * gc + j + 1] = zsum[k] - z1[k];
        }
        g[i * gc + N + 2] = z2[i] - z1[i * cols + N];
    }
    double m = 0.0;
    for (npy_intp k = 0; k < nm * gc; k++)
        m = max_step(m, fabs(g[k]));
    return PyFloat_FromDouble(m);
}

/* update_duals: lam += columns * gamma.
   duals(lam, columns, gamma) */
static PyObject *
duals(PyObject *Py_UNUSED(self), PyObject *const *args, Py_ssize_t nargs)
{
    npy_intp nm, gc;
    if (arity(nargs, 3, "duals") || extents(args[0], "lam", &nm, &gc))
        return NULL;
    double *lam = operand(args[0], "lam", nm, gc, OUT);
    const double *c = operand(args[1], "columns", nm, gc, IN);
    const double *g = operand(args[2], "gamma", nm, gc, IN);
    if (!lam || !c || !g)
        return NULL;
    for (npy_intp k = 0; k < nm * gc; k++)
        lam[k] += c[k] * g[k];
    Py_RETURN_NONE;
}

/* dual_residual: max(|s1|max, |s2|max) with Python's max, where
   s1 = rho_hat * dz2 + rho_hat * dz3 (plus rho_s * dz2 on the last column)
   and s2 the row sums of rho_hat * dz3, left in work.
   dual_residual(z2, z2_prev, z3, z3_prev, rho_hat, rho_s, work) */
static PyObject *
dual_residual(PyObject *Py_UNUSED(self), PyObject *const *args, Py_ssize_t nargs)
{
    npy_intp nm, cols;
    if (arity(nargs, 7, "dual_residual") || extents(args[2], "z3", &nm, &cols))
        return NULL;
    npy_intp N = cols - 1;
    const double *z2 = operand(args[0], "z2", nm, -1, IN);
    const double *z2p = operand(args[1], "z2_prev", nm, -1, IN);
    const double *z3 = operand(args[2], "z3", nm, cols, IN);
    const double *z3p = operand(args[3], "z3_prev", nm, cols, IN);
    const double *rh = operand(args[4], "rho_hat", nm, cols, IN);
    const double *rho_s = operand(args[5], "rho_s", nm, -1, IN);
    double *work = operand(args[6], "work", nm, cols, OUT);
    if (!z2 || !z2p || !z3 || !z3p || !rh || !rho_s || !work)
        return NULL;
    double m1 = 0.0, m2 = 0.0;
    for (npy_intp i = 0; i < nm; i++) {
        double dz2 = z2[i] - z2p[i];
        double *w = work + i * cols;
        for (npy_intp j = 0; j < cols; j++) {
            npy_intp k = i * cols + j;
            w[j] = (z3[k] - z3p[k]) * rh[k];
            double s1 = rh[k] * dz2 + w[j];
            if (j == N)
                s1 += rho_s[i] * dz2;
            m1 = max_step(m1, fabs(s1));
        }
        m2 = max_step(m2, fabs(row_sum(w, cols)));
    }
    return PyFloat_FromDouble(m2 > m1 ? m2 : m1);
}

#define FAST(name) {#name, (PyCFunction)(void (*)(void))name, METH_FASTCALL, NULL}

static PyMethodDef methods[] = {
    FAST(qp1), FAST(qp2), FAST(qp3_rhs), FAST(qp3_update),
    FAST(residual), FAST(duals), FAST(dual_residual),
    {NULL, NULL, 0, NULL},
};

static struct PyModuleDef module = {
    PyModuleDef_HEAD_INIT, "_kernel", "Compiled stages of the eADMM iteration.", -1, methods,
    NULL, NULL, NULL, NULL,
};

/* The function pointer scipy.linalg.cython_blas exports under `name`. */
static void *
blas_function(PyObject *capi, const char *name)
{
    PyObject *capsule = PyDict_GetItemString(capi, name);
    if (capsule == NULL) {
        PyErr_Format(PyExc_ImportError, "scipy.linalg.cython_blas has no %s", name);
        return NULL;
    }
    return PyCapsule_GetPointer(capsule, PyCapsule_GetName(capsule));
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
    PyObject *blas = PyImport_ImportModule("scipy.linalg.cython_blas");
    if (blas == NULL)
        return NULL;
    PyObject *capi = PyObject_GetAttrString(blas, "__pyx_capi__");
    Py_DECREF(blas);
    if (capi == NULL)
        return NULL;
    dgemm = (dgemm_fn *)blas_function(capi, "dgemm");
    dgemv = dgemm ? (dgemv_fn *)blas_function(capi, "dgemv") : NULL;
    Py_DECREF(capi);
    if (dgemv == NULL)
        return NULL;
    return PyModule_Create(&module);
}
