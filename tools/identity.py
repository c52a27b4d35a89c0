"""Print, as one JSON object, SHA-256 digests of the solver's outputs in this tree.

    python tools/identity.py

The package is imported from the ``src/`` next to this script, so a copy of
the script placed in another checkout digests that checkout. Two trees that
print the same object compute the same bytes on:

- ``loops``: the four 250-step closed loops of ``default_pendulum_config()``
  at N = 12 and 100, warm and cold (states, inputs, artificial references,
  iterations, residuals and certified flags), with their iteration totals;
- ``artifacts``: the offline artifacts ``save_offline`` writes for that
  document at N = 12 and 100, with the warmstart gain;
- ``cold_solves``: 64 seeded cold solves at N = 12 under each exit test,
  from states and references drawn from the state and input boxes (z1, z2,
  z3, lambda, the residual gamma left in the scratch, both residuals, the
  iteration count and the flags of every solve).

Each digest is cut to its first ``PREFIX`` hex digits.
"""

import hashlib
import json
import sys
import tempfile
from dataclasses import replace
from pathlib import Path

import numpy as np

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))

from mpct_eadmm import artifact, compare, config, offline, pendulum  # noqa: E402
from mpct_eadmm.errors import NumericalBreakdown  # noqa: E402
from mpct_eadmm.problem import EXIT_TESTS, validate_problem  # noqa: E402
from mpct_eadmm.solver import eadmm_solve  # noqa: E402

HORIZONS = (12, 100)
COLD_SOLVES = 64
COLD_SEED = 20261020
PREFIX = 16


def digest(parts):
    h = hashlib.sha256()
    for part in parts:
        h.update(np.ascontiguousarray(part).tobytes())
    return h.hexdigest()[:PREFIX]


def parsed(N):
    doc = config.default_pendulum_config()
    doc["horizon"] = N
    return config.parse_config(doc)


def loop(cfg, data, warmstart):
    t = pendulum.closed_loop(
        cfg.problem, data, cfg.sim, cfg.x0_physical, cfg.reference,
        warmstart=warmstart, params=cfg.pendulum,
    )
    fields = (t.states, t.inputs, t.artificial_refs, t.iterations, t.residuals, t.certified)
    return {"sha256": digest(fields), "iterations": int(t.iterations.sum())}


def cold_solves(cfg, data):
    model, m = cfg.problem.model, cfg.problem.m
    rng = np.random.default_rng(COLD_SEED)
    states = compare.sample_states(model, rng, COLD_SOLVES)
    refs = np.hstack([
        compare.sample_states(model, rng, COLD_SOLVES),
        rng.uniform(model.u_lb, model.u_ub, (COLD_SOLVES, m)),
    ])
    out = {}
    for exit_test in EXIT_TESTS:
        p = cfg.problem
        problem = validate_problem(p.model, p.costs, replace(p.config, exit_test=exit_test), p.rho)
        parts, iterations = [], 0
        for x, r in zip(states, refs):
            try:
                s = eadmm_solve(data, problem, x, r)
            except NumericalBreakdown:
                parts.append(np.array([-1]))
                continue
            parts += [s.z1, s.z2, s.z3, s.lam, data.scratch.gamma]
            parts.append(np.array([s.residual_inf, s.dual_residual]))
            parts.append(np.array([s.iterations, s.converged, s.certified]))
            iterations += s.iterations
        out[exit_test] = {"sha256": digest(parts), "iterations": iterations}
    return out


def main():
    report = {"loops": {}, "artifacts": {}}
    with tempfile.TemporaryDirectory() as tmp:
        for N in HORIZONS:
            cfg = parsed(N)
            data = offline.build_offline(cfg.problem)
            for kind, warm in (("warm", True), ("cold", False)):
                report["loops"][f"N{N}_{kind}"] = loop(cfg, data, warm)
            path = Path(tmp) / f"N{N}.mpct"
            artifact.save_offline(data, path)
            report["artifacts"][f"N{N}"] = hashlib.sha256(path.read_bytes()).hexdigest()[:PREFIX]
            if N == HORIZONS[0]:
                report["cold_solves"] = cold_solves(cfg, data)
    print(json.dumps(report, indent=1))


if __name__ == "__main__":
    main()
