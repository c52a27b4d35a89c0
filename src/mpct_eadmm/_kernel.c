/*
 * Compiled extended-ADMM iteration (see solver.py), its warm-start shift and
 * the pendulum plant's RK4 step (see pendulum.py).
 *
 * Each stage_* function is the arithmetic of one stage of the iteration on
 * the operands of a struct eadmm. Every element comes from the same IEEE
 * expression, in the same order, as the numpy or Python expression it
 * replaces:
 *
 *  - elementwise operations keep numpy's operand order and association;
 *    the build flags forbid contracting them into fused multiply-adds;
 *  - a row sum is np.add.reduce's: 0 plus numpy's pairwise sum;
 *  - abs-max and clip propagate NaN as numpy's maximum and clip do; the
 *    abs-max of gamma runs in four lanes and a NaN flag (abs_max), which
 *    gives the same bytes, the first NaN's |value| included;
 *  - the small matrix products are the BLAS calls numpy's dot and matmul
 *    make and the band solve is LAPACK's dpbtrs, all through the pointers
 *    scipy.linalg.cython_blas and cython_lapack export;
 *  - the plant calls libm's cos, sin and pow as Python's math.cos, math.sin
 *    and float ** do; the build flags keep the compiler from folding
 *    pow(v, 2.0) into v * v, which rounds differently for some v, and from
 *    merging cos and sin into one sincos call, which Python never makes.
 *
 * The stage bodies are shaped for gcc's vectorizer, which the build runs at
 * -O3. Each inner loop runs along one row without a branch, on row
 * pointers and row scalars held in locals; only the band solve's
 * right-hand side and solution, in dpbtrs's block layout, are read or
 * written n apart. The terms that only the first or the last column gets
 * are added outside those loops, and the state rows of z3 are a loop apart
 * from its input rows. A vectorized loop computes each element by the
 * same expression as the scalar loop did, so the bytes do not change.
 * No pointer is restrict-qualified: gcc checks overlap at run time, which
 * costs about as little, and aliased operands stay well-defined.
 *
 * The entry points are one per stage, which the Python stage functions
 * call; band_solve, the band solve alone, which is the package's only
 * binding of dpbtrs (solver.banded_forward_backward); solve, which runs a
 * whole solve's loop of stages, exit tests and buffer swaps in one call;
 * warm_shift, the body of solver.warmstart_predict; and plant_step, the
 * body of pendulum.rk4_step. solve also forms the reference weighted by the
 * offset cost, diag(T, S) r, before its first iteration.
 *
 * Every entry point binds its arguments through bind(), which reads the
 * operand table: each operand's name, shape and slot in struct eadmm are
 * stated there once, and an entry point lists only which operands it takes,
 * in argument order, and which of them it writes. An argument must be an
 * aligned, native-order, C-contiguous float64 array (the band
 * Fortran-contiguous) of the shape the call's first operand and its x,
 * [A B] or warm-start gain imply (the plant's operands have fixed shapes),
 * and writeable if the call writes it; otherwise DimensionMismatch, raised
 * before anything is read. The kernel allocates nothing and writes only
 * into the arrays it is given as outputs.
 */
#define PY_SSIZE_T_CLEAN
#define NPY_NO_DEPRECATED_API NPY_1_7_API_VERSION
#include <Python.h>
#include <numpy/arrayobject.h>
#include <math.h>
#include <stddef.h>
#include <string.h>

typedef void dgemm_fn(char *, char *, int *, int *, int *, double *, double *,
                      int *, double *, int *, double *, double *, int *);
typedef void dgemv_fn(char *, int *, int *, double *, double *, int *,
                      double *, int *, double *, double *, int *);
typedef void dpbtrs_fn(char *, int *, int *, int *, double *, int *, double *,
                       int *, int *);

static dgemm_fn *dgemm;
static dgemv_fn *dgemv;
static dpbtrs_fn *dpbtrs;
static PyObject *DimensionMismatch, *SingularConfiguration;

/* The operands of the entry points. n states, nm = n + m rows and
   cols = N + 1 columns; every BLAS and LAPACK extent derived from them was
   checked to fit an int by bind(). z2 and z3 are the current iterates and
   z2_spare and z3_spare their second buffers: solve swaps each iterate with
   its spare before the stage that writes it (solve_qp2, solve_qp3), so the
   spare then holds the previous iterate, which the dual residual reads.
   z1_lb and z1_ub are the trajectory block's boxes as the offline data
   stores them, nm x 3: column 0 for stage 0, column 1 for stages 1 to
   N - 1 and column 2 for stage N. columns holds every penalty in the
   duals' layout: rho0 at [i, 0], rho_hat at [i, j + 1] and rho_s at
   [i, N + 2]. The warm-start shift reads the previous solution prev_*, the
   two measured states and the gain's three blocks; the plant step reads
   the plant's state and input and writes next_state. solve forms
   ts_r = diag(T, S) r from the reference r and the offset weights T and S.
   The stages share q2, q3, work, prod and rhs only within an iteration. */
struct eadmm {
    npy_intp n, nm, cols;
    double *z1, *z2, *z3, *lam, *gamma, *z2_spare, *z3_spare;
    double *q2, *q3, *work, *prod, *rhs;
    double *x, *r, *T, *S, *ts_r, *AB, *columns, *H1_inv, *z1_lb, *z1_ub, *M2, *H3_inv, *band;
    double *prev_z1, *prev_z2, *prev_z3, *prev_lam, *x_prev, *x_next;
    double *P_z2, *P_z3_head, *P_lambda_head;
    double *state, *u, *next_state;
};

/* The plant's state (phi, phi_dot, theta_dot) and input (theta_ddot). */
enum { PLANT_STATES = 3, PLANT_INPUTS = 1 };

/* The extents an operand's shape is stated in: n, nm, cols, cols + 2,
   N = cols - 1, N n, 2n, the plant's fixed sizes, m = nm - n and the three
   box columns; VEC as the second extent marks a vector. */
enum {
    VEC, EXT_N, EXT_NM, EXT_COLS, EXT_LC, EXT_H, EXT_NH, EXT_2N, EXT_PX, EXT_PU, EXT_M, EXT_BOX,
    EXTENTS,
};

/* The box columns: stage 0, stages 1 to N - 1, stage N. */
enum { BOX_FIRST, BOX_INTERIOR, BOX_LAST, BOX_COLUMNS };

enum {
    Z1, Z2, Z3, LAM, GAMMA, Z2_SPARE, Z3_SPARE, Q2, Q3, WORK, PROD, RHS,
    X, REF, COST_T, COST_S, TS_R, AB, COLUMNS, H1_INV, Z1_LB, Z1_UB, M2, H3_INV, BAND,
    PREV_Z1, PREV_Z2, PREV_Z3, PREV_LAM, X_PREV, X_NEXT, P_Z2, P_Z3_HEAD, P_LAMBDA_HEAD,
    STATE, U, NEXT_STATE,
};

static const struct operand {
    const char *name;
    size_t slot; /* offset of its pointer in struct eadmm */
    int d0, d1;
} operands[] = {
#define OPERAND(id, field, d0, d1) [id] = {#field, offsetof(struct eadmm, field), d0, d1}
    OPERAND(Z1, z1, EXT_NM, EXT_COLS),
    OPERAND(Z2, z2, EXT_NM, VEC),
    OPERAND(Z3, z3, EXT_NM, EXT_COLS),
    OPERAND(LAM, lam, EXT_NM, EXT_LC),
    OPERAND(GAMMA, gamma, EXT_NM, EXT_LC),
    OPERAND(Z2_SPARE, z2_spare, EXT_NM, VEC),
    OPERAND(Z3_SPARE, z3_spare, EXT_NM, EXT_COLS),
    OPERAND(Q2, q2, EXT_NM, VEC),
    OPERAND(Q3, q3, EXT_NM, EXT_COLS),
    OPERAND(WORK, work, EXT_NM, EXT_COLS),
    OPERAND(PROD, prod, EXT_NM, EXT_H),
    OPERAND(RHS, rhs, EXT_NH, VEC),
    OPERAND(X, x, EXT_N, VEC),
    OPERAND(REF, r, EXT_NM, VEC),
    OPERAND(COST_T, T, EXT_N, EXT_N),
    OPERAND(COST_S, S, EXT_M, EXT_M),
    OPERAND(TS_R, ts_r, EXT_NM, VEC),
    OPERAND(AB, AB, EXT_N, EXT_NM),
    OPERAND(COLUMNS, columns, EXT_NM, EXT_LC),
    OPERAND(H1_INV, H1_inv, EXT_NM, EXT_COLS),
    OPERAND(Z1_LB, z1_lb, EXT_NM, EXT_BOX),
    OPERAND(Z1_UB, z1_ub, EXT_NM, EXT_BOX),
    OPERAND(M2, M2, EXT_NM, EXT_NM),
    OPERAND(H3_INV, H3_inv, EXT_NM, EXT_COLS),
    OPERAND(BAND, band, EXT_2N, EXT_NH), /* Fortran-ordered, as dpbtrs reads it */
    OPERAND(PREV_Z1, prev_z1, EXT_NM, EXT_COLS),
    OPERAND(PREV_Z2, prev_z2, EXT_NM, VEC),
    OPERAND(PREV_Z3, prev_z3, EXT_NM, EXT_COLS),
    OPERAND(PREV_LAM, prev_lam, EXT_NM, EXT_LC),
    OPERAND(X_PREV, x_prev, EXT_N, VEC),
    OPERAND(X_NEXT, x_next, EXT_N, VEC),
    OPERAND(P_Z2, P_z2, EXT_NM, EXT_N),
    OPERAND(P_Z3_HEAD, P_z3_head, EXT_N, EXT_N),
    OPERAND(P_LAMBDA_HEAD, P_lambda_head, EXT_2N, EXT_N),
    OPERAND(STATE, state, EXT_PX, VEC),
    OPERAND(U, u, EXT_PU, VEC),
    OPERAND(NEXT_STATE, next_state, EXT_PX, VEC),
#undef OPERAND
};

/* Marks an operand in an entry point's list as written. */
#define OUT 0x40

/* Fills `e` from the arguments of entry point `fn`: the arrays of `uses`
   (operand ids, OUT for the written ones) in that order, then `scalars`
   other arguments. (nm, cols) come from the first array, n from the first
   operand with n rows, x, [A B] or P_z3_head (1 to nm - 1 rows);
   band_solve's first array, the band, gives n and cols, and plant_step's
   operands have fixed shapes. Returns 0, or -1 with the error set before
   any element was read. */
static int
bind(struct eadmm *e, const char *fn, PyObject *const *args, Py_ssize_t nargs,
     const unsigned char *uses, Py_ssize_t count, Py_ssize_t scalars)
{
    if (nargs != count + scalars) {
        PyErr_Format(PyExc_TypeError, "%s takes %zd arguments (%zd given)", fn,
                     count + scalars, nargs);
        return -1;
    }
    const struct operand *lead = &operands[uses[0] & ~OUT];
    PyArrayObject *a = (PyArrayObject *)args[0];
    npy_intp n = 0, nm = 0, cols = 0;
    if (lead->d0 != EXT_PX) {
        int pad = lead->d1 == EXT_LC ? 2 : 0;
        if (!PyArray_Check(args[0]) || PyArray_NDIM(a) != 2 || PyArray_DIM(a, 0) < 1
            || PyArray_DIM(a, 1) < 2 + pad) {
            PyErr_Format(DimensionMismatch,
                         "%s must be a two-dimensional array with at least %d columns",
                         lead->name, 2 + pad);
            return -1;
        }
        nm = PyArray_DIM(a, 0), cols = PyArray_DIM(a, 1) - pad;
    }
    Py_ssize_t from = 0; /* the operand with n rows */
    while (from < count && operands[uses[from] & ~OUT].d0 != EXT_N)
        from++;
    if (lead->d0 == EXT_2N) { /* band_solve's band, (2n, N n) */
        n = nm / 2;
        cols = cols / (n ? n : 1) + 1;
    } else if (from < count) {
        const struct operand *op = &operands[uses[from] & ~OUT];
        int ndim = op->d1 == VEC ? 1 : 2;
        a = (PyArrayObject *)args[from];
        if (!PyArray_Check(args[from]) || PyArray_NDIM(a) != ndim || PyArray_DIM(a, 0) < 1
            || PyArray_DIM(a, 0) > nm - 1) {
            PyErr_Format(DimensionMismatch, "%s must be a %d-dimensional array with 1 to %zd rows",
                         op->name, ndim, (Py_ssize_t)(nm - 1));
            return -1;
        }
        n = PyArray_DIM(a, 0);
    }
    npy_intp ext[EXTENTS] = {
        -1, n, nm, cols, cols + 2, cols - 1, (cols - 1) * n, 2 * n, PLANT_STATES, PLANT_INPUTS,
        nm - n, BOX_COLUMNS,
    };
    for (int k = 1; k < EXTENTS; k++)
        if (ext[k] > INT_MAX) {
            PyErr_SetString(DimensionMismatch, "dimension exceeds the BLAS integer range");
            return -1;
        }
    e->n = n, e->nm = nm, e->cols = cols;
    for (Py_ssize_t i = 0; i < count; i++) {
        const struct operand *op = &operands[uses[i] & ~OUT];
        int out = uses[i] & OUT, band = op == &operands[BAND], vec = op->d1 == VEC;
        npy_intp d0 = ext[op->d0], d1 = ext[op->d1];
        a = (PyArrayObject *)args[i];
        if (!PyArray_Check(args[i]) || PyArray_TYPE(a) != NPY_DOUBLE
            || !(out ? PyArray_ISCARRAY(a) : band ? PyArray_ISFARRAY_RO(a) : PyArray_ISCARRAY_RO(a))
            || PyArray_NDIM(a) != 2 - vec || PyArray_DIM(a, 0) != d0
            || (!vec && PyArray_DIM(a, 1) != d1)) {
            const char *kind = out ? " writeable C-contiguous"
                               : band ? " Fortran-contiguous" : " C-contiguous";
            if (vec)
                PyErr_Format(DimensionMismatch, "%s must be a%s float64 array of shape (%zd,)",
                             op->name, kind, (Py_ssize_t)d0);
            else
                PyErr_Format(DimensionMismatch, "%s must be a%s float64 array of shape (%zd, %zd)",
                             op->name, kind, (Py_ssize_t)d0, (Py_ssize_t)d1);
            return -1;
        }
        *(double **)((char *)e + op->slot) = (double *)PyArray_DATA(a);
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
   of the trajectory subproblem, from z2 + z3, lam, z2 and x. Each sum
   z2 + z3 is formed where it is used; the residual of the iteration before
   formed the same sums from the same z2 and z3. Columns 0 and N add their
   extra terms, and clip against their own box columns, outside the loop
   over the columns between, which clips against the row's two interior
   bounds. */
static void
stage_qp1(const struct eadmm *e)
{
    npy_intp n = e->n, nm = e->nm, cols = e->cols, N = cols - 1, lc = cols + 2;
    for (npy_intp i = 0; i < nm; i++) {
        const double *l = e->lam + i * lc, *rho = e->columns + i * lc;
        const double *z3 = e->z3 + i * cols, *h1 = e->H1_inv + i * cols;
        const double *lb = e->z1_lb + i * BOX_COLUMNS, *ub = e->z1_ub + i * BOX_COLUMNS;
        double *z1 = e->z1 + i * cols, z2 = e->z2[i];
        double lb_i = lb[BOX_INTERIOR], ub_i = ub[BOX_INTERIOR];
        double v = rho[1] * (z2 + z3[0]) + l[1];
        v -= l[0];
        if (i < n)
            v += rho[0] * e->x[i];
        z1[0] = clip(v * h1[0], lb[BOX_FIRST], ub[BOX_FIRST]);
        for (npy_intp j = 1; j < N; j++)
            z1[j] = clip((rho[j + 1] * (z2 + z3[j]) + l[j + 1]) * h1[j], lb_i, ub_i);
        v = rho[N + 1] * (z2 + z3[N]) + l[N + 1];
        v += rho[N + 2] * z2 + l[N + 2];
        z1[N] = clip(v * h1[N], lb[BOX_LAST], ub[BOX_LAST]);
    }
}

/* solve_qp2: z2 = M2 q2 with q2 the linear term of the reference
   subproblem, from z1, z3 and lam; work holds rho_hat * (z3 - z1). */
static void
stage_qp2(const struct eadmm *e)
{
    npy_intp nm = e->nm, cols = e->cols, N = cols - 1, lc = cols + 2;
    for (npy_intp i = 0; i < nm; i++) {
        double *w = e->work + i * cols;
        const double *z1 = e->z1 + i * cols, *z3 = e->z3 + i * cols;
        const double *rho = e->columns + i * lc + 1;
        for (npy_intp j = 0; j < cols; j++)
            w[j] = (z3[j] - z1[j]) * rho[j];
        double s = row_sum(w, cols) + row_sum(e->lam + i * lc + 1, cols + 1);
        e->q2[i] = s - (rho[N + 1] * z1[N] + e->ts_r[i]);
    }
    /* np.dot of a C-ordered matrix and a vector: dgemv 'T' on the matrix's
       column-major view. */
    char t = 'T';
    int bn = (int)nm, one = 1;
    double alpha = 1.0, beta = 0.0;
    dgemv(&t, &bn, &bn, &alpha, e->M2, &bn, e->q2, &one, &beta, e->z2, &one);
}

/* First half of solve_qp3: q3 from z1, z2 and lam, work = H3_inv * q3, and
   the band solve's right-hand side
   rhs[k n + a] = work[a, k+1] - ([A B] work[:, :N])[a, k]. */
static void
stage_qp3_rhs(const struct eadmm *e)
{
    npy_intp n = e->n, nm = e->nm, cols = e->cols, N = cols - 1, lc = cols + 2;
    double *work = e->work, *prod = e->prod, *rhs = e->rhs;
    for (npy_intp i = 0; i < nm; i++) {
        const double *rho = e->columns + i * lc + 1, *l = e->lam + i * lc + 1;
        const double *z1 = e->z1 + i * cols, *h3 = e->H3_inv + i * cols;
        double *q3 = e->q3 + i * cols, *w = work + i * cols, z2 = e->z2[i];
        for (npy_intp j = 0; j < cols; j++) {
            double q = (z2 - z1[j]) * rho[j] + l[j];
            q3[j] = q;
            w[j] = h3[j] * q;
        }
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
    for (npy_intp a = 0; a < n; a++) {
        const double *w = work + a * cols + 1, *p = prod + a * N;
        double *c = rhs + a;
        for (npy_intp k = 0; k < N; k++)
            c[k * n] = w[k] - p[k];
    }
}

/* The band solve of solve_qp3: dpbtrs on rhs in place, as
   scipy.linalg.lapack.dpbtrs(band, rhs) computes it, with the upper band of
   2n rows (bandwidth 2n - 1) and one right-hand side; rhs becomes mu.
   Returns LAPACK's info. */
static inline int
stage_band(const struct eadmm *e)
{
    char uplo = 'U';
    int ldab = (int)(2 * e->n), kd = ldab - 1, order = (int)((e->cols - 1) * e->n);
    int nrhs = 1, info = 0;
    dpbtrs(&uplo, &order, &kd, &nrhs, e->band, &ldab, e->rhs, &order, &info);
    return info;
}

/* Second half of solve_qp3, after the band solve left mu in rhs:
   z3 = -H3_inv * (q3 + [A B]' mu on columns 0..N-1 - mu on the state
   rows of columns 1..N). The state rows and the input rows are separate
   loops, and columns 0 and N are outside the loops over the columns
   between. */
static void
stage_qp3_update(const struct eadmm *e)
{
    npy_intp n = e->n, nm = e->nm, cols = e->cols, N = cols - 1;
    /* prod = [A B]' mu, as np.dot of two Fortran-ordered operands: the
       row-major dgemm with both transposed, column-major mu' [A B]. */
    char t = 'T';
    int bN = (int)N, bn = (int)n, bnm = (int)nm;
    double alpha = 1.0, beta = 0.0;
    dgemm(&t, &t, &bN, &bnm, &bn, &alpha, e->rhs, &bn, e->AB, &bnm, &beta, e->prod, &bN);
    /* numpy's (-H3_inv) * q3: the sign flip is exact */
    for (npy_intp i = 0; i < n; i++) {
        const double *q3 = e->q3 + i * cols, *h3 = e->H3_inv + i * cols, *p = e->prod + i * N;
        const double *mu = e->rhs + i; /* mu[k n]: row i of block k */
        double *z3 = e->z3 + i * cols;
        z3[0] = -h3[0] * (q3[0] + p[0]);
        for (npy_intp j = 1; j < N; j++)
            z3[j] = -h3[j] * ((q3[j] + p[j]) - mu[(j - 1) * n]);
        z3[N] = -h3[N] * (q3[N] - mu[(N - 1) * n]);
    }
    for (npy_intp i = n; i < nm; i++) {
        const double *q3 = e->q3 + i * cols, *h3 = e->H3_inv + i * cols, *p = e->prod + i * N;
        double *z3 = e->z3 + i * cols;
        for (npy_intp j = 0; j < N; j++)
            z3[j] = -h3[j] * (q3[j] + p[j]);
        z3[N] = -h3[N] * q3[N];
    }
}

/* max_step folded from 0 over |a[0]|, ..., |a[len - 1]|: with no NaN the
   largest, which any order of the fold gives, since every |a[k]| is +0 or
   more; otherwise |a[k]| of the first NaN a[k]. The fold runs in four
   independent lanes and a NaN flag, so that no step waits for the one
   before it, and only a NaN sends it back over the array for the first. */
static double
abs_max(const double *a, npy_intp len)
{
    double m[4] = {0.0, 0.0, 0.0, 0.0};
    int nan = 0;
    npy_intp k = 0;
    for (; k + 4 <= len; k += 4)
        for (int l = 0; l < 4; l++) {
            double v = fabs(a[k + l]);
            m[l] = v > m[l] ? v : m[l];
            nan |= v != v;
        }
    for (; k < len; k++) {
        double v = fabs(a[k]);
        m[0] = v > m[0] ? v : m[0];
        nan |= v != v;
    }
    if (nan)
        for (k = 0;; k++)
            if (a[k] != a[k])
                return fabs(a[k]);
    double lo = m[1] > m[0] ? m[1] : m[0], hi = m[3] > m[2] ? m[3] : m[2];
    return hi > lo ? hi : lo;
}

/* compute_residual: gamma from z1, z2, z3 and x. Returns the largest
   |gamma| over the whole array, NaN if any entry is NaN. */
static double
stage_residual(const struct eadmm *e)
{
    npy_intp n = e->n, nm = e->nm, cols = e->cols, N = cols - 1, gc = cols + 2;
    for (npy_intp a = 0; a < n; a++)
        e->gamma[a * gc] = e->z1[a * cols] - e->x[a];
    for (npy_intp i = 0; i < nm; i++) {
        const double *z1 = e->z1 + i * cols, *z3 = e->z3 + i * cols;
        double *g = e->gamma + i * gc + 1, z2 = e->z2[i];
        for (npy_intp j = 0; j < cols; j++)
            g[j] = (z2 + z3[j]) - z1[j];
        g[N + 1] = z2 - z1[N];
    }
    return abs_max(e->gamma, nm * gc);
}

/* update_duals: lam += columns * gamma. */
static void
stage_duals(const struct eadmm *e)
{
    npy_intp size = e->nm * (e->cols + 2);
    double *lam = e->lam;
    const double *rho = e->columns, *g = e->gamma;
    for (npy_intp k = 0; k < size; k++)
        lam[k] += rho[k] * g[k];
}

/* dual_residual: max(|s1|max, |s2|max) with Python's max, where
   s1 = rho_hat * dz2 + rho_hat * dz3 (plus rho_s * dz2 on the last column)
   and s2 the row sums of rho_hat * dz3, left in work; dz2 = z2 - z2_spare
   and dz3 = z3 - z3_spare. */
static double
stage_dual_residual(const struct eadmm *e)
{
    npy_intp nm = e->nm, cols = e->cols, N = cols - 1, lc = cols + 2;
    double m1 = 0.0, m2 = 0.0;
    for (npy_intp i = 0; i < nm; i++) {
        double dz2 = e->z2[i] - e->z2_spare[i];
        const double *z3 = e->z3 + i * cols, *z3_prev = e->z3_spare + i * cols;
        const double *rho = e->columns + i * lc + 1;
        double *w = e->work + i * cols;
        for (npy_intp j = 0; j < cols; j++)
            w[j] = (z3[j] - z3_prev[j]) * rho[j];
        for (npy_intp j = 0; j < N; j++)
            m1 = max_step(m1, fabs(rho[j] * dz2 + w[j]));
        double s1 = rho[N] * dz2 + w[N];
        s1 += rho[N + 1] * dz2;
        m1 = max_step(m1, fabs(s1));
        m2 = max_step(m2, fabs(row_sum(w, cols)));
    }
    return m2 > m1 ? m2 : m1;
}

/* y = G dx for a C-ordered gain G of `rows` x n, as numpy's G @ dx computes
   it: for n = 1 matmul's plain loop, 0 + G[i] dx[0] (its dot, taken for a
   1 x 1 G, gives the same); otherwise dgemv 'T' on G's column-major view. */
static void
gain_product(const double *G, npy_intp rows, npy_intp n, const double *dx, double *y)
{
    if (n == 1) {
        for (npy_intp i = 0; i < rows; i++)
            y[i] = 0.0 + G[i] * dx[0];
        return;
    }
    char t = 'T';
    int bn = (int)n, brows = (int)rows, one = 1;
    double alpha = 1.0, beta = 0.0;
    dgemv(&t, &bn, &brows, &alpha, (double *)G, &bn, (double *)dx, &one, &beta, y, &one);
}

/* y = W v for a C-ordered k x k offset weight W, as np.dot(W, v) computes
   it: for k = 1 numpy's scalar path, the one product W[0] v[0] (no 0 + as
   dgemv's beta = 0 adds, which would turn -0.0 into 0.0); otherwise dgemv 'T'
   on W's column-major view, as gain_product. */
static void
weight_product(const double *W, npy_intp k, const double *v, double *y)
{
    if (k == 1)
        y[0] = W[0] * v[0];
    else
        gain_product(W, k, k, v, y);
}

/* The prologue of solve: ts_r = diag(T, S) r, as the two np.dot calls
   ts_r[:n] = T r[:n] and ts_r[n:] = S r[n:] form it. */
static void
stage_weighted_reference(const struct eadmm *e)
{
    weight_product(e->T, e->n, e->r, e->ts_r);
    weight_product(e->S, e->nm - e->n, e->r + e->n, e->ts_r + e->n);
}

/* warmstart_predict: z1, z2, z3 and lam become copies of prev_*; with
   dx = x_next - x_prev, z2 -= P_z2 dx, z3[:n, 0] -= P_z3_head dx,
   lam[:n, 0] -= P_lambda_head[:n] dx and lam[:n, 1] -= P_lambda_head[n:] dx.
   gamma holds dx and the products meanwhile and is zero at the end. */
static void
stage_warm_shift(const struct eadmm *e)
{
    npy_intp n = e->n, nm = e->nm, cols = e->cols, lc = cols + 2;
    memcpy(e->z1, e->prev_z1, nm * cols * sizeof(double));
    memcpy(e->z2, e->prev_z2, nm * sizeof(double));
    memcpy(e->z3, e->prev_z3, nm * cols * sizeof(double));
    memcpy(e->lam, e->prev_lam, nm * lc * sizeof(double));
    double *dx = e->gamma, *y = e->gamma + n;
    for (npy_intp a = 0; a < n; a++)
        dx[a] = e->x_next[a] - e->x_prev[a];
    gain_product(e->P_z2, nm, n, dx, y);
    for (npy_intp i = 0; i < nm; i++)
        e->z2[i] -= y[i];
    gain_product(e->P_z3_head, n, n, dx, y);
    for (npy_intp a = 0; a < n; a++)
        e->z3[a * cols] -= y[a];
    for (npy_intp k = 0; k < 2; k++) {
        gain_product(e->P_lambda_head + k * n * n, n, n, dx, y);
        for (npy_intp a = 0; a < n; a++)
            e->lam[a * lc + k] -= y[a];
    }
    memset(e->gamma, 0, nm * lc * sizeof(double));
}

/* The plant's parameter products, each in the order it multiplies
   (pendulum._coefficients). */
struct plant {
    double inertia, mrl, mgl, wheel;
};

/* The body's angular acceleration into *out, as tests/test_pendulum.py's
   reference_dynamics forms it. Returns 0, or -1 with SingularConfiguration
   set where the denominator vanishes. */
static int
phi_ddot(const struct plant *p, double phi, double phi_dot, double u, double *out)
{
    double cos_phi = cos(phi), sin_phi = sin(phi);
    double den = p->inertia + p->mrl * cos_phi;
    if (fabs(den) < 1e-12) {
        char *d = PyOS_double_to_string(den, 'e', 3, 0, NULL);
        char *f = PyOS_double_to_string(phi, 'f', 6, 0, NULL);
        if (d && f)
            PyErr_Format(SingularConfiguration, "dynamics denominator %s at phi=%s", d, f);
        PyMem_Free(d);
        PyMem_Free(f);
        return -1;
    }
    *out = (p->mrl * pow(phi_dot, 2.0) * sin_phi + p->mgl * sin_phi
            - (p->wheel + p->mrl * cos_phi) * u) / den;
    return 0;
}

/* rk4_step: `substeps` classical RK4 steps of length h from state under the
   held input u into next_state, each stage the vector form x + h k with
   k = (phi_dot, phi_ddot, u), element by element. Returns 0, or -1 with
   SingularConfiguration set and next_state not written. */
static int
stage_plant(const struct eadmm *e, const struct plant *p, double h, Py_ssize_t substeps)
{
    double half = 0.5 * h, sixth = h / 6.0, u = e->u[0];
    double phi = e->state[0], phi_dot = e->state[1], theta_dot = e->state[2];
    for (Py_ssize_t k = 0; k < substeps; k++) {
        double a1, a2, a3, a4;
        if (phi_ddot(p, phi, phi_dot, u, &a1))
            return -1;
        double p2 = phi + half * phi_dot, v2 = phi_dot + half * a1;
        if (phi_ddot(p, p2, v2, u, &a2))
            return -1;
        double p3 = phi + half * v2, v3 = phi_dot + half * a2;
        if (phi_ddot(p, p3, v3, u, &a3))
            return -1;
        double p4 = phi + h * v3, v4 = phi_dot + h * a3;
        if (phi_ddot(p, p4, v4, u, &a4))
            return -1;
        phi = phi + sixth * (phi_dot + 2 * v2 + 2 * v3 + v4);
        phi_dot = phi_dot + sixth * (a1 + 2 * a2 + 2 * a3 + a4);
        theta_dot = theta_dot + sixth * (u + 2 * u + 2 * u + u);
    }
    e->next_state[0] = phi, e->next_state[1] = phi_dot, e->next_state[2] = theta_dot;
    return 0;
}

static PyObject *
rejected_band_argument(int info)
{
    PyErr_Format(DimensionMismatch, "dpbtrs rejected argument %d", -info);
    return NULL;
}

/* The prologue of an entry point: binds the arrays of the operand list
   (OUT marks the written ones), then `scalars` more arguments, into `e`. */
#define BIND(scalars, ...)                                                  \
    static const unsigned char uses[] = {__VA_ARGS__};                      \
    struct eadmm e;                                                         \
    if (bind(&e, __func__, args, nargs, uses, sizeof uses, scalars))        \
        return NULL

static PyObject *
qp1(PyObject *Py_UNUSED(self), PyObject *const *args, Py_ssize_t nargs)
{
    BIND(0, Z1 | OUT, Z3, LAM, Z2, X, COLUMNS, H1_INV, Z1_LB, Z1_UB);
    stage_qp1(&e);
    Py_RETURN_NONE;
}

static PyObject *
qp2(PyObject *Py_UNUSED(self), PyObject *const *args, Py_ssize_t nargs)
{
    BIND(0, Z1, Z2 | OUT, Z3, LAM, COLUMNS, TS_R, M2, WORK | OUT, Q2 | OUT);
    stage_qp2(&e);
    Py_RETURN_NONE;
}

static PyObject *
qp3_rhs(PyObject *Py_UNUSED(self), PyObject *const *args, Py_ssize_t nargs)
{
    BIND(0, Z1, RHS | OUT, Q3 | OUT, WORK | OUT, PROD | OUT, Z2, LAM, COLUMNS, H3_INV, AB);
    stage_qp3_rhs(&e);
    Py_RETURN_NONE;
}

static PyObject *
qp3_update(PyObject *Py_UNUSED(self), PyObject *const *args, Py_ssize_t nargs)
{
    BIND(0, Q3, Z3 | OUT, RHS, PROD | OUT, AB, H3_INV);
    stage_qp3_update(&e);
    Py_RETURN_NONE;
}

static PyObject *
residual(PyObject *Py_UNUSED(self), PyObject *const *args, Py_ssize_t nargs)
{
    BIND(0, Z1, GAMMA | OUT, Z2, Z3, X);
    return PyFloat_FromDouble(stage_residual(&e));
}

static PyObject *
duals(PyObject *Py_UNUSED(self), PyObject *const *args, Py_ssize_t nargs)
{
    BIND(0, LAM | OUT, COLUMNS, GAMMA);
    stage_duals(&e);
    Py_RETURN_NONE;
}

static PyObject *
dual_residual(PyObject *Py_UNUSED(self), PyObject *const *args, Py_ssize_t nargs)
{
    BIND(0, Z3, Z3_SPARE, Z2, Z2_SPARE, COLUMNS, WORK | OUT);
    return PyFloat_FromDouble(stage_dual_residual(&e));
}

/* band_solve(band, rhs): rhs becomes the solution of W z = rhs, W given by
   the upper band of its Cholesky factor (2n rows, one Fortran-ordered
   column per unknown). */
static PyObject *
band_solve(PyObject *Py_UNUSED(self), PyObject *const *args, Py_ssize_t nargs)
{
    BIND(0, BAND, RHS | OUT);
    int info = stage_band(&e);
    if (info)
        return rejected_band_argument(info);
    Py_RETURN_NONE;
}

/* Status of a solve: the iteration cap ended it, the exit test passed, or
   the primal residual was not finite. */
enum { CAPPED = 0, CONVERGED = 1, BREAKDOWN = 2 };

/* The iterations of one solve, as eadmm_solve's stage loop runs them: ts_r
   set to diag(T, S) r, then per iteration the five stages, the primal
   residual's finiteness and exit test, and the dual residual on iterations
   whose primal residual is within epsilon. With max_iter = 0 only ts_r is
   written. No stage reads a work-space buffer that an earlier iteration
   left: each iteration writes every buffer it reads first.
   solve(<its 25 arrays, in the order below>, epsilon, primal_only, max_iter)
   Returns (status, iterations, primal residual, dual residual), the last
   NaN when no iteration passed the primal test. Every iteration swaps z2
   and z3 with their spares before the stages that write them, so the
   spares hold the previous iterates; after an odd number of iterations the
   last iterates are copied back into the arrays given as z2 and z3, which
   thus always hold them on return. */
static PyObject *
solve(PyObject *Py_UNUSED(self), PyObject *const *args, Py_ssize_t nargs)
{
    BIND(3, Z1 | OUT, Z2 | OUT, Z3 | OUT, LAM | OUT, GAMMA | OUT, Z2_SPARE | OUT, Z3_SPARE | OUT,
         Q2 | OUT, Q3 | OUT, WORK | OUT, PROD | OUT, RHS | OUT, TS_R | OUT, X, REF, COST_T, COST_S,
         AB, COLUMNS, H1_INV, Z1_LB, Z1_UB, M2, H3_INV, BAND);
    PyObject *const *scalars = args + sizeof uses;
    double eps = PyFloat_AsDouble(scalars[0]);
    int primal_only = PyObject_IsTrue(scalars[1]);
    Py_ssize_t max_iter = PyNumber_AsSsize_t(scalars[2], PyExc_OverflowError);
    if (PyErr_Occurred())
        return NULL;

    stage_weighted_reference(&e);
    double *z2 = e.z2, *z3 = e.z3;
    int status = CAPPED;
    Py_ssize_t k = 0;
    double res = INFINITY, dual = NAN;
    while (k < max_iter) {
        stage_qp1(&e);
        swap(&e.z2, &e.z2_spare);
        stage_qp2(&e);
        stage_qp3_rhs(&e);
        int info = stage_band(&e);
        if (info)
            return rejected_band_argument(info);
        swap(&e.z3, &e.z3_spare);
        stage_qp3_update(&e);
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
    if (e.z2 != z2) { /* z2 and z3 swap together */
        memcpy(z2, e.z2, e.nm * sizeof(double));
        memcpy(z3, e.z3, e.nm * e.cols * sizeof(double));
    }
    return Py_BuildValue("(indd)", status, k, res, dual);
}

/* warm_shift(<its 14 arrays, in the order below>): the new state's z1, z2,
   z3, lam and gamma from the previous solution prev_* and the gain, as
   solver.warmstart_predict builds them. */
static PyObject *
warm_shift(PyObject *Py_UNUSED(self), PyObject *const *args, Py_ssize_t nargs)
{
    BIND(0, PREV_Z1, PREV_Z2, PREV_Z3, PREV_LAM, P_Z3_HEAD, P_Z2, P_LAMBDA_HEAD, X_PREV, X_NEXT,
         Z1 | OUT, Z2 | OUT, Z3 | OUT, LAM | OUT, GAMMA | OUT);
    stage_warm_shift(&e);
    Py_RETURN_NONE;
}

/* plant_step(next_state, state, u, h, substeps, inertia, mrl, mgl, wheel):
   next_state from state after `substeps` RK4 steps of length h. */
static PyObject *
plant_step(PyObject *Py_UNUSED(self), PyObject *const *args, Py_ssize_t nargs)
{
    BIND(6, NEXT_STATE | OUT, STATE, U);
    PyObject *const *scalars = args + sizeof uses;
    double h = PyFloat_AsDouble(scalars[0]);
    Py_ssize_t substeps = PyNumber_AsSsize_t(scalars[1], PyExc_OverflowError);
    struct plant p = {
        PyFloat_AsDouble(scalars[2]), PyFloat_AsDouble(scalars[3]),
        PyFloat_AsDouble(scalars[4]), PyFloat_AsDouble(scalars[5]),
    };
    if (PyErr_Occurred() || stage_plant(&e, &p, h, substeps))
        return NULL;
    Py_RETURN_NONE;
}

#define FAST(name) {#name, (PyCFunction)(void (*)(void))name, METH_FASTCALL, NULL}

static PyMethodDef methods[] = {
    FAST(qp1), FAST(qp2), FAST(qp3_rhs), FAST(qp3_update),
    FAST(residual), FAST(duals), FAST(dual_residual),
    FAST(band_solve), FAST(solve), FAST(warm_shift), FAST(plant_step),
    {NULL, NULL, 0, NULL},
};

static struct PyModuleDef module = {
    PyModuleDef_HEAD_INIT, "_kernel",
    "Compiled extended-ADMM iteration, warm-start shift and plant step.", -1, methods,
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
    SingularConfiguration = DimensionMismatch
        ? PyObject_GetAttrString(errors, "SingularConfiguration") : NULL;
    Py_DECREF(errors);
    if (DimensionMismatch == NULL || SingularConfiguration == NULL)
        return NULL;
    dgemm = (dgemm_fn *)scipy_function("scipy.linalg.cython_blas", "dgemm");
    dgemv = dgemm ? (dgemv_fn *)scipy_function("scipy.linalg.cython_blas", "dgemv") : NULL;
    dpbtrs = dgemv ? (dpbtrs_fn *)scipy_function("scipy.linalg.cython_lapack", "dpbtrs") : NULL;
    if (dpbtrs == NULL)
        return NULL;
    return PyModule_Create(&module);
}
