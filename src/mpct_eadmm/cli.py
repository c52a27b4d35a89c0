"""Command line front end: precompute, solve, simulate, compare.

Exit codes: 0 success, 1 configuration or I/O error, 2 numerical breakdown
(or failed equivalence check), 3 solver did not converge. A solve that met
the paper's primal-only exit test but not the dual one exits 0 with a warning
on stderr: its input is feasible but not certified optimal.
"""

import argparse
import csv
import json
import logging
import os
import sys

import numpy as np

from . import dense
from .artifact import load_offline, save_offline
from .compare import interleaved_max_deviation, sample_states
from .config import check_weighted_reference, load_config
from .errors import ArtifactError, ConfigError, MpctError, NumericalBreakdown
from .offline import build_offline
from .pendulum import closed_loop, scale_state
from .solver import eadmm_solve

log = logging.getLogger("mpct")

EXIT_OK = 0
EXIT_CONFIG = 1
EXIT_NUMERICAL = 2
EXIT_NOT_CONVERGED = 3

SIMULATE_HEADER_FIXED = ["step", "time_s", "phi", "phi_dot", "theta_dot", "u"]


def _setup_logging():
    level = {"error": logging.ERROR, "info": logging.INFO, "debug": logging.DEBUG}.get(
        os.environ.get("MPCT_LOG", "error"), logging.ERROR
    )
    logging.basicConfig(level=level, format="%(levelname)s %(name)s: %(message)s")


def _fmt(value):
    return f"{value:.12g}"


def _get_offline(args, cfg):
    if not getattr(args, "artifact", None):
        return build_offline(cfg.problem)
    offline = load_offline(args.artifact)
    p = cfg.problem
    if (offline.n, offline.m, offline.N) != (p.n, p.m, p.N):
        raise ArtifactError(
            f"artifact has (n, m, N) = {(offline.n, offline.m, offline.N)}, "
            f"the config {(p.n, p.m, p.N)}"
        )
    if offline.fingerprint != p.fingerprint:
        raise ArtifactError(
            "artifact was built for another problem (model, costs or rho differ "
            "from the config)"
        )
    return offline


def _parse_floats(text, flag):
    try:
        values = np.array([float(v) for v in text.split(",")])
    except ValueError:
        raise ConfigError(flag, f"expected comma separated numbers, got {text!r}") from None
    if not np.all(np.isfinite(values)):
        raise ConfigError(flag, f"expected finite numbers, got {text!r}")
    return values


def cmd_precompute(args):
    cfg = load_config(args.config)
    offline = build_offline(cfg.problem)
    out = args.out or cfg.output or "offline.mpct"
    save_offline(offline, out)
    rho = cfg.problem.rho
    rho_max = max(rho.rho0.max(), rho.rho_s.max(), rho.rho_hat.max())
    print(f"rho convergence bound: {_fmt(offline.rho_upper_bound)}")
    if offline.rho_exceeds_bound:
        print(
            f"warning: configured rho (max {_fmt(rho_max)}) exceeds the convergence "
            f"bound {_fmt(offline.rho_upper_bound)}; convergence is not guaranteed"
        )
    print(
        json.dumps(
            {
                "artifact": out,
                "scalar_count": offline.scalar_count(),
                "rho_upper_bound": offline.rho_upper_bound,
                "rho_exceeds_bound": offline.rho_exceeds_bound,
            }
        )
    )
    return EXIT_OK


def cmd_solve(args):
    cfg = load_config(args.config)
    offline = _get_offline(args, cfg)
    x = _parse_floats(args.x, "--x") if args.x else scale_state(cfg.x0_physical, cfg.sim.scale)
    r = _parse_floats(args.r, "--r") if args.r else cfg.reference
    if args.r and r.size == cfg.reference.size:  # else eadmm_solve's DimensionMismatch
        check_weighted_reference(cfg.problem.costs, r, "--r")
    result = eadmm_solve(offline, cfg.problem, x, r)
    print(
        json.dumps(
            {
                "u0": result.u0.tolist(),
                "xs_us": result.xs_us.tolist(),
                "iterations": result.iterations,
                "residual_inf": result.residual_inf,
                "dual_residual": result.dual_residual,
                "converged": result.converged,
                "certified": result.certified,
                "metadata": {"rho_exceeds_bound": offline.rho_exceeds_bound},
            }
        )
    )
    if result.converged and not result.certified:
        print(
            f"warning: primal-only exit; dual residual {_fmt(result.dual_residual)} "
            f"exceeds epsilon {_fmt(cfg.problem.config.epsilon)}, so the solution is "
            "feasible but not certified optimal",
            file=sys.stderr,
        )
    return EXIT_OK if result.converged else EXIT_NOT_CONVERGED


def cmd_simulate(args):
    cfg = load_config(args.config)
    offline = _get_offline(args, cfg)
    warmstart = args.warmstart or cfg.warmstart
    traj = closed_loop(
        cfg.problem,
        offline,
        cfg.sim,
        cfg.x0_physical,
        cfg.reference,
        warmstart=warmstart,
        params=cfg.pendulum,
    )
    n, m = cfg.problem.n, cfg.problem.m
    header = (
        SIMULATE_HEADER_FIXED
        + [f"xs_{i + 1}" for i in range(n)]
        + [f"us_{i + 1}" for i in range(m)]
        + ["iterations", "residual", "solve_time_us"]
    )
    out_path = args.out or cfg.output
    fh = open(out_path, "w", newline="") if out_path else sys.stdout
    try:
        writer = csv.writer(fh)
        writer.writerow(header)
        for k in range(len(traj.inputs)):
            row = [str(k), _fmt(k * cfg.sim.Ts)]
            row += [_fmt(v) for v in traj.states[k]]
            row += [_fmt(v) for v in traj.inputs[k]]
            row += [_fmt(v) for v in traj.artificial_refs[k]]
            row += [
                str(int(traj.iterations[k])),
                _fmt(traj.residuals[k]),
                _fmt(traj.wall_times[k] * 1e6),
            ]
            writer.writerow(row)
    finally:
        if out_path:
            fh.close()
    loose = int(np.sum(~traj.certified))
    if loose:
        print(
            f"warning: {loose} of {len(traj.inputs)} solves not certified optimal "
            f"(a residual above epsilon {_fmt(cfg.problem.config.epsilon)})",
            file=sys.stderr,
        )
    if traj.aborted:
        log.error("simulation aborted by numerical breakdown at step %d", len(traj.inputs))
        return EXIT_NUMERICAL
    return EXIT_OK


def cmd_compare(args):
    cfg = load_config(args.config)
    offline = _get_offline(args, cfg)
    seed = args.seed if args.seed is not None else cfg.seed
    if seed < 0:
        raise ConfigError("--seed", f"expected a non-negative integer, got {seed}")
    # No trial or no iteration would report a deviation of 0 from no check.
    for flag, value in (("--trials", args.trials), ("--iterations", args.iterations)):
        if value < 1:
            raise ConfigError(flag, f"expected a positive integer, got {value}")
    rng = np.random.default_rng(seed)
    max_dev = 0.0
    max_kkt = 0.0
    for x in sample_states(cfg.problem.model, rng, args.trials):
        dev = interleaved_max_deviation(
            cfg.problem, offline, x, cfg.reference, iterations=args.iterations
        )
        max_dev = float(np.max([max_dev, dev]))  # keeps a NaN, unlike max()
        result = eadmm_solve(offline, cfg.problem, x, cfg.reference)
        if result.converged:
            dprob = dense.assemble_dense(
                cfg.problem.model, cfg.problem.costs, cfg.problem.rho,
                cfg.problem.N, x, cfg.reference,
            )
            kkt = dense.kkt_residual(
                dprob,
                result.z1.flatten(order="F"),
                result.z2,
                result.z3.flatten(order="F"),
                dense.pack_duals(result.lam, cfg.problem.n, cfg.problem.m, cfg.problem.N),
            )
            max_kkt = max(max_kkt, kkt)
    report = {
        "trials": args.trials,
        "seed": seed,
        "max_deviation": max_dev,
        "max_kkt_residual": max_kkt,
    }
    print(json.dumps(report))
    return EXIT_OK if max_dev <= 1e-8 else EXIT_NUMERICAL


def build_parser():
    parser = argparse.ArgumentParser(
        prog="mpct",
        description="Sparse extended-ADMM solver for MPC for tracking",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add(name, func, **extra):
        p = sub.add_parser(name)
        p.add_argument("--config", required=True, help="path to JSON run configuration")
        p.add_argument("--out", default=None, help="output file path")
        p.set_defaults(func=func)
        return p

    add("precompute", cmd_precompute)

    p = add("solve", cmd_solve)
    p.add_argument("--artifact", default=None, help="load offline data from this artifact")
    p.add_argument("--x", default=None, help="initial state, comma separated floats")
    p.add_argument("--r", default=None, help="reference (xr, ur), comma separated floats")

    p = add("simulate", cmd_simulate)
    p.add_argument("--artifact", default=None)
    p.add_argument("--warmstart", action="store_true")

    p = add("compare", cmd_compare)
    p.add_argument("--artifact", default=None)
    p.add_argument("--trials", type=int, default=20)
    p.add_argument("--iterations", type=int, default=50)
    p.add_argument("--seed", type=int, default=None)
    return parser


def main(argv=None):
    _setup_logging()
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except NumericalBreakdown as exc:
        print(f"numerical breakdown: {exc}", file=sys.stderr)
        return EXIT_NUMERICAL
    except OSError as exc:
        print(f"io error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except MpctError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_CONFIG


if __name__ == "__main__":
    sys.exit(main())
