"""Two-wheeled inverted pendulum benchmark plant and closed-loop harness.

The plant is simulated with the nonlinear dynamics; the controller uses a
fixed linearized, discretized and scaled model. The wheel-speed variables are
scaled by a constant factor on the way into the controller to improve
numerical conditioning, and the computed input is unscaled before being
applied to the plant.
"""

import time
from dataclasses import dataclass

import numpy as np

from . import kernel
from .errors import ConfigError, MissingWarmstartGain, NumericalBreakdown
from .problem import CostWeights, MpctConfig, SystemModel, build_rho, validate_problem
from .solver import cold_start, eadmm_solve, warmstart_predict

# Linearized (around the upright equilibrium), zero-order-hold discretized and
# scaled prediction model of the benchmark robot. State (phi, phi_dot,
# theta_dot / 20), input theta_ddot / 20, sample period 0.02 s.
PENDULUM_A = np.array(
    [
        [1.013109, 0.020087, 0.0],
        [1.31371, 1.013109, 0.0],
        [0.0, 0.0, 1.0],
    ]
)
PENDULUM_B = np.array([[-0.002919], [-0.292577], [0.02]])
PENDULUM_TS = 0.02
PENDULUM_SCALE = 20.0
# The benchmark controller's model and weights, as keyword arguments of
# SystemModel and CostWeights. Boxes in controller units: |phi| <= pi/8,
# |theta_dot| <= 60 rad/s and |theta_ddot| <= 90 rad/s^2 after scaling; the
# body angular rate is unbounded.
PENDULUM_MODEL = {
    "A": PENDULUM_A,
    "B": PENDULUM_B,
    "x_lb": np.array([-np.pi / 8, -np.inf, -60.0 / PENDULUM_SCALE]),
    "x_ub": np.array([np.pi / 8, np.inf, 60.0 / PENDULUM_SCALE]),
    "u_lb": np.array([-90.0 / PENDULUM_SCALE]),
    "u_ub": np.array([90.0 / PENDULUM_SCALE]),
}
PENDULUM_COSTS = {
    "Q_diag": np.full(3, 5.0),
    "R_diag": np.array([0.025]),
    "T": 1000.0 * np.eye(3),
    "S": np.array([[0.125]]),
}
# Penalties (base, boosted) of build_rho.
PENDULUM_RHO = (20.0, 1000.0)


@dataclass
class PendulumParams:
    """Physical parameters of the two-wheeled inverted pendulum robot."""

    m_r: float = 0.064  # wheel mass, kg
    M_body: float = 1.039  # total robot mass, kg
    wheel_radius: float = 0.05  # m
    L: float = 0.05  # axis-to-CoG distance, m
    g: float = 9.81  # m/s^2
    I_yy: float = None  # moment of inertia; defaults to 2 M L^2

    def __post_init__(self):
        if self.I_yy is None:
            self.I_yy = 2.0 * self.M_body * self.L**2
        for name in ("m_r", "M_body", "wheel_radius", "L", "g", "I_yy"):
            if not 0 < getattr(self, name) < np.inf:
                raise ValueError(f"{name} must be finite and strictly positive")


@dataclass
class SimConfig:
    """Closed-loop simulation settings."""

    Ts: float = PENDULUM_TS
    steps: int = 250
    substeps: int = 10
    scale: float = PENDULUM_SCALE

    def __post_init__(self):
        if not (0 < self.Ts < np.inf and 0 < self.scale < np.inf):
            raise ValueError("Ts and scale must be finite and > 0")
        if not (self.steps >= 1 and self.substeps >= 1):
            raise ValueError("steps and substeps must be >= 1")


@dataclass
class Trajectory:
    """Closed-loop record in unscaled physical units."""

    states: np.ndarray  # (steps+1, n)
    inputs: np.ndarray  # (steps, m)
    artificial_refs: np.ndarray  # (steps, n+m), controller (scaled) units
    iterations: np.ndarray  # (steps,)
    residuals: np.ndarray  # (steps,)
    wall_times: np.ndarray  # (steps,) seconds
    certified: np.ndarray  # (steps,) bool, see SolverState.certified
    aborted: bool = False


def _coefficients(p):
    """Parameter products of the dynamics, each in the order it multiplies."""
    mrl = p.M_body * p.wheel_radius * p.L
    return p.I_yy, mrl, p.M_body * p.g * p.L, p.wheel_radius**2 * (3 * p.m_r + p.M_body)


def rk4_step(state, u, Ts, substeps, params):
    """Classical fourth-order Runge-Kutta with zero-order-hold input.

    One kernel call runs every substep. Each stage evaluates the same
    expressions, in the same order, as the vector form x + h k, with k the
    time derivative of (phi, phi_dot, theta_dot), and calls libm's cos, sin
    and pow as Python's ``math`` and ``**`` do; a state that overflows
    them gives NaN or infinite entries, as numpy floats would, and a
    vanishing denominator of phi's acceleration raises
    :class:`SingularConfiguration`. ``state`` must have exactly 3 entries
    and ``u``, a number or an array, exactly 1; anything else raises
    :class:`DimensionMismatch`.
    """
    out = np.empty(3)
    kernel.load().plant_step(
        out, _entries(state), _entries(u), Ts / substeps, substeps, *_coefficients(params)
    )
    return out


def _entries(value):
    """``value`` as a flat C-contiguous float64 array, a view where it is one."""
    return np.ascontiguousarray(value, dtype=float).reshape(-1)


def scale_state(state, scale):
    """Physical state -> controller state (wheel speed divided by scale)."""
    out = np.asarray(state, dtype=float).copy()
    out[2] /= scale
    return out


def unscale_input(u_scaled, scale):
    """Controller input -> physical wheel acceleration."""
    return np.asarray(u_scaled, dtype=float) * scale


def pendulum_problem(N=12, rho_base=PENDULUM_RHO[0], rho_boosted=PENDULUM_RHO[1]):
    """Benchmark controller: the scaled pendulum model with the standard weights."""
    model = SystemModel(**PENDULUM_MODEL)
    costs = CostWeights(**PENDULUM_COSTS)
    config = MpctConfig(N=N)
    rho = build_rho(model, config, rho_base, rho_boosted)
    return validate_problem(model, costs, config, rho)


def closed_loop(
    problem,
    offline,
    sim,
    x0_physical,
    reference,
    warmstart=False,
    params=None,
):
    """Simulate the nonlinear plant under the MPCT controller.

    At each step the physical state is scaled, the solver is run (cold
    started, or warmstarted from the previous solution after the first step),
    the first input is unscaled and applied, and the plant is integrated over
    one sample period. A solver breakdown aborts with the partial trajectory.
    Before the first step, warmstarting from offline data built without the
    warmstart gain raises :class:`MissingWarmstartGain`, and a record too
    long to allocate :class:`ConfigError` on ``sim.steps``.
    """
    if warmstart and offline.warmstart is None:
        raise MissingWarmstartGain(
            "warmstart needs the warmstart gain, but the offline data was built "
            "without it; rebuild it with the gain or run without warmstart"
        )
    if params is None:
        params = PendulumParams()
    n, m = problem.n, problem.m
    steps = sim.steps
    try:
        states = np.zeros((steps + 1, n))
        inputs = np.zeros((steps, m))
        refs = np.zeros((steps, n + m))
        iters = np.zeros(steps, dtype=int)
        residuals = np.zeros(steps)
        certified = np.zeros(steps, dtype=bool)
        wall = np.zeros(steps)
    except (MemoryError, ValueError):
        raise ConfigError("sim.steps", f"cannot allocate a trajectory of {steps} steps") from None
    states[0] = np.asarray(x0_physical, dtype=float).ravel()
    reference = np.asarray(reference, dtype=float).ravel()
    prev_result = None
    x_scaled_prev = None
    aborted = False
    k = 0
    for k in range(steps):
        x_scaled = scale_state(states[k], sim.scale)
        if warmstart and prev_result is not None:
            init = warmstart_predict(prev_result, offline, x_scaled_prev, x_scaled)
        else:
            init = cold_start(n, m, problem.N)
        t0 = time.perf_counter()
        try:
            result = eadmm_solve(offline, problem, x_scaled, reference, init)
        except NumericalBreakdown:
            aborted = True
            break
        wall[k] = time.perf_counter() - t0
        u_phys = unscale_input(result.u0, sim.scale)
        inputs[k] = u_phys
        refs[k] = result.xs_us
        iters[k] = result.iterations
        residuals[k] = result.residual_inf
        certified[k] = result.certified
        states[k + 1] = rk4_step(states[k], u_phys, sim.Ts, sim.substeps, params)
        prev_result = result
        x_scaled_prev = x_scaled
    if aborted:
        states = states[: k + 1]
        inputs, refs, iters = inputs[:k], refs[:k], iters[:k]
        residuals, certified, wall = residuals[:k], certified[:k], wall[:k]
    return Trajectory(
        states=states,
        inputs=inputs,
        artificial_refs=refs,
        iterations=iters,
        residuals=residuals,
        wall_times=wall,
        certified=certified,
        aborted=aborted,
    )
