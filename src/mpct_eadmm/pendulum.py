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

from .errors import NumericalBreakdown, SingularConfiguration
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
# body angular rate is unconstrained, with 1e10 standing in for its bound.
PENDULUM_MODEL = {
    "A": PENDULUM_A,
    "B": PENDULUM_B,
    "x_lb": np.array([-np.pi / 8, -1e10, -60.0 / PENDULUM_SCALE]),
    "x_ub": np.array([np.pi / 8, 1e10, 60.0 / PENDULUM_SCALE]),
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
            if getattr(self, name) <= 0:
                raise ValueError(f"{name} must be strictly positive")


@dataclass
class SimConfig:
    """Closed-loop simulation settings."""

    Ts: float = PENDULUM_TS
    steps: int = 250
    substeps: int = 10
    scale: float = PENDULUM_SCALE

    def __post_init__(self):
        if self.Ts <= 0 or self.scale <= 0:
            raise ValueError("Ts and scale must be > 0")
        if self.substeps < 1:
            raise ValueError("substeps must be >= 1")


@dataclass
class Trajectory:
    """Closed-loop record in unscaled physical units."""

    states: np.ndarray  # (steps+1, n)
    inputs: np.ndarray  # (steps, m)
    artificial_refs: np.ndarray  # (steps, n+m), controller (scaled) units
    iterations: np.ndarray  # (steps,)
    residuals: np.ndarray  # (steps,)
    wall_times: np.ndarray  # (steps,) seconds
    certified: np.ndarray  # (steps,) bool, see SolveResult.certified
    aborted: bool = False


def dynamics(state, u, params):
    """Time derivative of (phi, phi_dot, theta_dot) for commanded theta_ddot."""
    phi, phi_dot, _ = state
    p = params
    den = p.I_yy + p.M_body * p.wheel_radius * p.L * np.cos(phi)
    if abs(den) < 1e-12:
        raise SingularConfiguration(f"dynamics denominator {den:.3e} at phi={phi:.6f}")
    num = (
        p.M_body * p.wheel_radius * p.L * phi_dot**2 * np.sin(phi)
        + p.M_body * p.g * p.L * np.sin(phi)
        - (p.wheel_radius**2 * (3 * p.m_r + p.M_body) + p.M_body * p.wheel_radius * p.L * np.cos(phi))
        * u
    )
    return np.array([phi_dot, num / den, u])


def rk4_step(state, u, Ts, substeps, params):
    """Classical fourth-order Runge-Kutta with zero-order-hold input."""
    h = Ts / substeps
    x = np.asarray(state, dtype=float).copy()
    u = float(np.asarray(u).ravel()[0])
    for _ in range(substeps):
        k1 = dynamics(x, u, params)
        k2 = dynamics(x + 0.5 * h * k1, u, params)
        k3 = dynamics(x + 0.5 * h * k2, u, params)
        k4 = dynamics(x + h * k3, u, params)
        x = x + (h / 6.0) * (k1 + 2 * k2 + 2 * k3 + k4)
    return x


def scale_state(state, scale):
    """Physical state -> controller state (wheel speed divided by scale)."""
    out = np.asarray(state, dtype=float).copy()
    out[2] /= scale
    return out


def unscale_input(u_scaled, scale):
    """Controller input -> physical wheel acceleration."""
    return np.asarray(u_scaled, dtype=float) * scale


def pendulum_problem(
    N=12,
    epsilon=1e-4,
    max_iter=4000,
    rho_base=PENDULUM_RHO[0],
    rho_boosted=PENDULUM_RHO[1],
):
    """Benchmark controller: the scaled pendulum model with the standard weights."""
    model = SystemModel(**PENDULUM_MODEL)
    costs = CostWeights(**PENDULUM_COSTS)
    config = MpctConfig(N=N, epsilon=epsilon, max_iter=max_iter)
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
    """
    if params is None:
        params = PendulumParams()
    n, m = problem.n, problem.m
    steps = sim.steps
    states = np.zeros((steps + 1, n))
    inputs = np.zeros((steps, m))
    refs = np.zeros((steps, n + m))
    iters = np.zeros(steps, dtype=int)
    residuals = np.zeros(steps)
    certified = np.zeros(steps, dtype=bool)
    wall = np.zeros(steps)
    states[0] = np.asarray(x0_physical, dtype=float).ravel()
    reference = np.asarray(reference, dtype=float).ravel()
    prev_result = None
    x_scaled_prev = None
    aborted = False
    k = 0
    for k in range(steps):
        x_scaled = scale_state(states[k], sim.scale)
        if warmstart and prev_result is not None:
            init = warmstart_predict(
                prev_result, offline.warmstart, x_scaled_prev, x_scaled
            )
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
