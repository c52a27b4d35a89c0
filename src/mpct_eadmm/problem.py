"""Problem definition and validation for the MPC-for-tracking solver.

The controller tracks a (possibly inadmissible) reference by jointly
optimizing a predicted trajectory and an artificial steady-state reference.
This module holds the plant description, the cost weights, the per-constraint
penalty parameters and the validation logic that every other module relies on.
"""

import hashlib
from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

from .errors import (
    ConfigError,
    DimensionMismatch,
    EmptyBox,
    HorizonTooShort,
    NonPositiveWeight,
)


def _as_vector(v, size, name):
    arr = np.atleast_1d(np.array(v, dtype=float)).ravel()
    if arr.shape != (size,):
        raise DimensionMismatch(f"{name} must have shape ({size},), got {arr.shape}")
    return arr


def _as_matrix(v, shape, name):
    arr = np.atleast_2d(np.array(v, dtype=float))
    if arr.shape != shape:
        raise DimensionMismatch(f"{name} must have shape {shape}, got {arr.shape}")
    return arr


@dataclass
class SystemModel:
    """Discrete LTI model x+ = A x + B u with box bounds and tightening margins.

    ``eps_x`` / ``eps_u`` shrink the state/input boxes at the terminal stage so
    that the artificial reference stays strictly inside the constraints. The
    arrays are copied, as are those of :class:`CostWeights`, so a problem
    shares no memory with the constants it was built from. ``AB`` is the
    read-only stacked prediction model [A B], formed once from A and B.
    """

    A: np.ndarray
    B: np.ndarray
    x_lb: np.ndarray
    x_ub: np.ndarray
    u_lb: np.ndarray
    u_ub: np.ndarray
    eps_x: np.ndarray = None
    eps_u: np.ndarray = None
    AB: np.ndarray = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        self.A = np.atleast_2d(np.array(self.A, dtype=float))
        n = self.A.shape[0]
        if self.A.shape != (n, n) or n == 0:
            raise DimensionMismatch(f"A must be square with at least one row, got {self.A.shape}")
        self.B = np.array(self.B, dtype=float).reshape(n, -1)
        m = self.B.shape[1]
        if m == 0:
            raise DimensionMismatch(f"B must have at least one column, got {self.B.shape}")
        self.x_lb = _as_vector(self.x_lb, n, "x_lb")
        self.x_ub = _as_vector(self.x_ub, n, "x_ub")
        self.u_lb = _as_vector(self.u_lb, m, "u_lb")
        self.u_ub = _as_vector(self.u_ub, m, "u_ub")
        self.eps_x = (
            np.full(n, 1e-6) if self.eps_x is None else _as_vector(self.eps_x, n, "eps_x")
        )
        self.eps_u = (
            np.full(m, 1e-6) if self.eps_u is None else _as_vector(self.eps_u, m, "eps_u")
        )
        if not (np.all(np.isfinite(self.A)) and np.all(np.isfinite(self.B))):
            raise DimensionMismatch("A and B must be finite")
        # Both tests fail on a NaN; an infinite bound passes.
        eps = np.concatenate([self.eps_x, self.eps_u])
        if not np.all((eps >= 0) & (eps < np.inf)):
            raise NonPositiveWeight("eps_x and eps_u must be finite and nonnegative")
        if not (np.all(self.x_lb < self.x_ub) and np.all(self.u_lb < self.u_ub)):
            raise EmptyBox("box bounds must be numbers with lb < ub componentwise")
        if np.any(self.x_lb + self.eps_x >= self.x_ub - self.eps_x) or np.any(
            self.u_lb + self.eps_u >= self.u_ub - self.eps_u
        ):
            raise EmptyBox("tightened box is empty")
        self.AB = np.concatenate((self.A, self.B), axis=1)
        self.AB.flags.writeable = False

    @property
    def n(self):
        return self.A.shape[0]

    @property
    def m(self):
        return self.B.shape[1]


@dataclass
class CostWeights:
    """Stage and offset cost weights.

    Q and R are diagonal (stored as their diagonals); T and S are full
    symmetric positive definite matrices weighting the distance between the
    artificial reference and the user reference.
    """

    Q_diag: np.ndarray
    R_diag: np.ndarray
    T: np.ndarray
    S: np.ndarray

    def __post_init__(self):
        self.Q_diag = np.atleast_1d(np.array(self.Q_diag, dtype=float)).ravel()
        self.R_diag = np.atleast_1d(np.array(self.R_diag, dtype=float)).ravel()
        n, m = self.Q_diag.size, self.R_diag.size
        if n * m == 0:
            raise DimensionMismatch("Q_diag and R_diag must not be empty")
        self.T = _as_matrix(self.T, (n, n), "T")
        self.S = _as_matrix(self.S, (m, m), "S")
        if np.any(self.Q_diag <= 0) or np.any(self.R_diag <= 0):
            raise NonPositiveWeight("Q_diag and R_diag must be strictly positive")
        for name, M in (("T", self.T), ("S", self.S)):
            scale = max(1.0, float(np.abs(M).max()))
            if np.abs(M - M.T).max() > 1e-12 * scale:
                raise NonPositiveWeight(f"{name} must be symmetric")
            try:
                np.linalg.cholesky(M)
            except np.linalg.LinAlgError:
                raise NonPositiveWeight(f"{name} must be positive definite") from None


@dataclass
class PenaltyParams:
    """Three-part diagonal penalty matrix.

    ``rho0`` penalizes the initial-state constraint, ``rho_s`` the two
    terminal equalities tying the last predicted stage to the artificial
    reference, and ``rho_hat`` (one column per prediction step) the
    congruence constraints linking trajectory, deviation and reference
    variables.
    """

    rho0: np.ndarray
    rho_s: np.ndarray
    rho_hat: np.ndarray

    @cached_property
    def columns(self):
        """All penalties in the column-block layout of the duals.

        An (n+m) x (N+3) array: column 0 holds rho0 over zero padding,
        columns 1..N+1 rho_hat and column N+2 rho_s. Built on first use,
        which comes after :func:`validate_problem` has matched the shapes;
        the three penalty arrays are not to be changed in place after that.
        """
        n = self.rho0.size
        cols = np.zeros((self.rho_hat.shape[0], self.rho_hat.shape[1] + 2))
        cols[:n, 0] = self.rho0
        cols[:, 1:-1] = self.rho_hat
        cols[:, -1] = self.rho_s
        return cols

    def __post_init__(self):
        self.rho0 = np.atleast_1d(np.asarray(self.rho0, dtype=float)).ravel()
        self.rho_s = np.atleast_1d(np.asarray(self.rho_s, dtype=float)).ravel()
        self.rho_hat = np.atleast_2d(np.ascontiguousarray(self.rho_hat, dtype=float))
        for name, arr in (("rho0", self.rho0), ("rho_s", self.rho_s), ("rho_hat", self.rho_hat)):
            if np.any(~np.isfinite(arr)) or np.any(arr <= 0):
                raise NonPositiveWeight(f"{name} entries must be strictly positive and finite")


# Exit tests of the iteration; the first is the default.
EXIT_TESTS = ("primal_dual", "primal")


@dataclass
class MpctConfig:
    """Solver configuration: horizon, exit tolerance and test, iteration cap.

    ``epsilon`` bounds the residuals of the exit test. The default test,
    ``"primal_dual"``, stops once the primal (equality) residual and the dual
    (stationarity) residual are both within ``epsilon``, so a converged solve
    is near-optimal. ``"primal"`` is the paper's rule: it stops on the primal
    residual alone, which certifies feasibility but not optimality; its
    solves report whether the dual residual happened to be within
    ``epsilon`` as well.
    """

    N: int = 12
    epsilon: float = 1e-4
    max_iter: int = 4000
    exit_test: str = EXIT_TESTS[0]

    def __post_init__(self):
        self.N = int(self.N)
        if self.N < 2:
            raise HorizonTooShort("prediction horizon must satisfy N >= 2")
        if not 0 < self.epsilon < np.inf:
            raise NonPositiveWeight("epsilon must be finite and > 0")
        if self.max_iter < 1:
            raise NonPositiveWeight("max_iter must be >= 1")
        if self.exit_test not in EXIT_TESTS:
            raise ConfigError(
                "exit_test", f"expected one of {', '.join(EXIT_TESTS)}; got {self.exit_test!r}"
            )


@dataclass
class ValidatedProblem:
    """Cross-checked bundle of model, costs, config and penalties.

    Downstream code assumes dimensional consistency of everything in here.
    ``fingerprint`` (:func:`problem_fingerprint`) is taken once, here.
    """

    model: SystemModel
    costs: CostWeights
    config: MpctConfig
    rho: PenaltyParams
    n: int = field(init=False)
    m: int = field(init=False)
    N: int = field(init=False)
    fingerprint: bytes = field(init=False, repr=False)

    def __post_init__(self):
        self.n = self.model.n
        self.m = self.model.m
        self.N = self.config.N
        self.fingerprint = problem_fingerprint(self)


def problem_fingerprint(problem):
    """SHA-256 digest of everything the offline data is computed from.

    Hashes (n, m, N) and the little-endian float64 bytes of the model, its
    bounds and tightening margins, the cost weights and the penalties, in a
    fixed order, so offline data can be matched to the problem it was built
    for; the solver settings, which it does not depend on, are not hashed.
    """
    model, costs, rho = problem.model, problem.costs, problem.rho
    h = hashlib.sha256(np.array([problem.n, problem.m, problem.N], dtype="<u8").tobytes())
    for arr in (
        model.A, model.B, model.x_lb, model.x_ub, model.u_lb, model.u_ub,
        model.eps_x, model.eps_u, costs.Q_diag, costs.R_diag, costs.T, costs.S,
        rho.rho0, rho.rho_s, rho.rho_hat,
    ):
        h.update(np.ascontiguousarray(arr, dtype="<f8").tobytes())
    return h.digest()


def validate_problem(model, costs, config, rho):
    """Cross-check all problem data and return a :class:`ValidatedProblem`.

    Raises DimensionMismatch, NonPositiveWeight, EmptyBox or HorizonTooShort.
    """
    n, m = model.n, model.m
    if costs.Q_diag.size != n or costs.R_diag.size != m:
        raise DimensionMismatch(
            f"cost dimensions ({costs.Q_diag.size}, {costs.R_diag.size}) "
            f"do not match model dimensions ({n}, {m})"
        )
    if rho.rho0.shape != (n,):
        raise DimensionMismatch(f"rho0 must have shape ({n},), got {rho.rho0.shape}")
    if rho.rho_s.shape != (n + m,):
        raise DimensionMismatch(f"rho_s must have shape ({n + m},), got {rho.rho_s.shape}")
    if rho.rho_hat.shape != (n + m, config.N + 1):
        raise DimensionMismatch(
            f"rho_hat must have shape ({n + m}, {config.N + 1}), got {rho.rho_hat.shape}"
        )
    return ValidatedProblem(model=model, costs=costs, config=config, rho=rho)


def build_rho(model, config, rho_base, rho_boosted):
    """Build the default three-part penalty from two scalars.

    Boosted constraints: the initial state, the terminal equalities, the
    state congruence at steps 0 and N and the input congruence at step N.
    The input congruence at step 0 and all interior congruence constraints
    keep the base value; boosting the step-0 input congruence as well makes
    the first input track the (slowly moving) artificial reference and stalls
    its convergence badly.
    """
    if rho_base <= 0 or rho_boosted <= 0:
        raise NonPositiveWeight("rho_base and rho_boosted must be > 0")
    n, m, N = model.n, model.m, config.N
    rho_hat = np.full((n + m, N + 1), float(rho_base))
    rho_hat[:n, 0] = rho_boosted
    rho_hat[:, N] = rho_boosted
    return PenaltyParams(
        rho0=np.full(n, float(rho_boosted)),
        rho_s=np.full(n + m, float(rho_boosted)),
        rho_hat=rho_hat,
    )
