"""Workloads, set-up and metrics of the solver benchmark.

A run has three phases. Set-up is repeated and its median taken. The timed
phase repeats a pass of fixed work until the time budget is spent: one
250-step closed loop for the loop workloads, one cold solve of each of
MC_SWEEP seeded instances for the Monte-Carlo workload. The correctness
check runs afterwards and is not timed.

Every timed unit is bracketed by host-speed samples (see hostspeed.py), and
every timing is reported at the host's full speed. A unit that recurs in
several passes (a loop step, a Monte-Carlo instance) is summarised by its
median over the passes. Group figures (run_s, solves_per_s, us_per_iter)
are medians over groups of units: the loop for a loop workload, sweeps of
MC_SWEEP instances for the Monte-Carlo one, so that one solve that runs to
the iteration cap shows in ok_frac and in the per-layer counts without
moving them.
"""

from statistics import median
from time import perf_counter

import numpy as np
from scipy.stats import mstats, qmc

import checks
import hostspeed
from mpct_eadmm import artifact, compare, config, offline, pendulum, solver
from mpct_eadmm.errors import NumericalBreakdown
from spans import SpanTracer

WORKLOADS = {
    "loop_warm_n12": ("loop", 12),
    "loop_warm_n100": ("loop", 100),
    "mc_cold_n12": ("mc", 12),
}

# Distinct cold-solve instances, a power of two, which keeps the scrambled
# Sobol set balanced. With 256 the p95 of iteration counts alone varied by
# 7 % (quartile distance over median) between seeds; 512 halves the
# variance of that tail.
MC_INSTANCES = 512
MC_SWEEP = 16
# Inputs of the Monte-Carlo references come from the central 90 % of the
# input box, like the states from compare.sample_states.
MC_FRACTION = 0.9
# Solutions per run replayed against the dense oracle.
DENSE_CASES = 3
# Physical input limit of the pendulum scenario, rad/s^2.
U_MAX = 90.0
# Fewest closed loops per run; each step's time is its median over loops.
MIN_LOOPS = 2
# Set-up is repeated at least SETUP_MIN_REPS times and for SETUP_MIN_S, at
# most SETUP_MAX_REPS times.
SETUP_MIN_REPS = 3
SETUP_MIN_S = 0.5
SETUP_MAX_REPS = 201
# Warmstart-gain builds in the probe of the Monte-Carlo workload.
PROBE_BUILDS = 3
# Steps of the warm closed loop that measures the pendulum and warmstart
# layers on the Monte-Carlo workload, which never calls them.
PROBE_STEPS = 50
# Steps of the untimed closed loop that warms caches before a loop workload.
WARMUP_STEPS = 20

STAGES = {
    "solver.qp1_us": "solver.solve_qp1",
    "solver.qp2_us": "solver.solve_qp2",
    "solver.qp3_self_us": "solver.solve_qp3",
    "solver.banded_us": "solver.banded_forward_backward",
    "solver.residual_us": "solver.compute_residual",
    "solver.duals_us": "solver.update_duals",
}


def trace_targets(speed):
    """(namespace, attribute, span name) of every traced function.

    pendulum imports the solver entry points by name, so those are wrapped
    in both namespaces under one span name. Host-speed samples taken inside
    a closed loop become child spans, so they leave the loop's self time.
    """
    return [
        (solver, "solve_qp1", "solver.solve_qp1"),
        (solver, "solve_qp2", "solver.solve_qp2"),
        (solver, "solve_qp3", "solver.solve_qp3"),
        (solver, "banded_forward_backward", "solver.banded_forward_backward"),
        (solver, "compute_residual", "solver.compute_residual"),
        (solver, "update_duals", "solver.update_duals"),
        (solver, "cold_start", "solver.cold_start"),
        (solver, "warmstart_predict", "solver.warmstart_predict"),
        (solver, "eadmm_solve", "solver.eadmm_solve"),
        (pendulum, "cold_start", "solver.cold_start"),
        (pendulum, "warmstart_predict", "solver.warmstart_predict"),
        (pendulum, "eadmm_solve", "solver.eadmm_solve"),
        (pendulum, "rk4_step", "pendulum.rk4_step"),
        (pendulum, "closed_loop", "pendulum.closed_loop"),
        (offline, "build_offline", "offline.build_offline"),
        (offline, "compute_banded_cholesky", "offline.compute_banded_cholesky"),
        (offline, "compute_warmstart_gain", "offline.compute_warmstart_gain"),
        (artifact, "save_offline", "artifact.save_offline"),
        (artifact, "load_offline", "artifact.load_offline"),
        (speed, "sample", "bench.host_speed"),
    ]


class StepRecorder:
    """Keeps each closed-loop step's timestamps, state and result.

    Installed once in the pendulum namespace. scale_state is the first call
    of a control step: the recorder samples the host speed there and stamps
    the step's start. eadmm_solve stamps the solve and hands its result
    over for checking.
    """

    def __init__(self, speed):
        self.clear()
        self._speed = speed
        pendulum.scale_state = self._stamp(pendulum.scale_state)
        pendulum.eadmm_solve = self._keep(pendulum.eadmm_solve)

    def clear(self):
        self.t_stop, self.t_step, self.t_solve, self.t_end, self.steps = [], [], [], [], []

    def _stamp(self, fn):
        def stamped(*args, **kwargs):
            self.t_stop.append(perf_counter())
            self._speed.sample()
            self.t_step.append(perf_counter())
            return fn(*args, **kwargs)

        return stamped

    def _keep(self, fn):
        def kept(offline_data, problem, x, r, initial=None):
            t0 = perf_counter()
            result = fn(offline_data, problem, x, r, initial)
            self.t_end.append(perf_counter())
            self.t_solve.append(t0)
            self.steps.append((x, result))
            return result

        return kept


class _SobolSource:
    """Hands scrambled-Sobol columns to code that draws through rng.uniform."""

    def __init__(self, points):
        self._points = points
        self._col = 0

    def uniform(self, low, high, size):
        count, dim = size
        cols = self._points[:count, self._col : self._col + dim]
        self._col += dim
        return low + (high - low) * cols


def mc_instances(problem, seed):
    """Seeded cold-solve inputs: states and (mostly inadmissible) references."""
    model, n, m = problem.model, problem.n, problem.m
    points = qmc.Sobol(d=2 * n + m, scramble=True, seed=seed).random(MC_INSTANCES)
    source = _SobolSource(points)
    states = compare.sample_states(model, source, MC_INSTANCES)
    ref_states = compare.sample_states(model, source, MC_INSTANCES)
    mid, half = 0.5 * (model.u_lb + model.u_ub), 0.5 * MC_FRACTION * (model.u_ub - model.u_lb)
    ref_inputs = mid + source.uniform(-1.0, 1.0, (MC_INSTANCES, m)) * half
    return states, np.hstack([ref_states, ref_inputs])


def with_tracer(tracer, traced, fn):
    """Call fn with the tracer installed if ``traced``."""
    if not traced:
        return fn()
    tracer.install()
    try:
        return fn()
    finally:
        tracer.uninstall()


def set_up_once(kind, N, artifact_path):
    """Parse and validate the config, build, save and reload the offline data."""
    t0 = perf_counter()
    doc = config.default_pendulum_config()
    doc["horizon"] = N
    run_cfg = config.parse_config(doc)
    t1 = perf_counter()
    built = offline.build_offline(run_cfg.problem, with_warmstart=kind == "loop")
    t2 = perf_counter()
    artifact.save_offline(built, artifact_path)
    t3 = perf_counter()
    loaded = artifact.load_offline(artifact_path)
    t4 = perf_counter()
    return run_cfg, loaded, (t0, t1, t2, t3, t4)


class SetUp:
    """Repeated set-up: a block before the timed phase, one more after each pass.

    Spreading repetitions over the run keeps a few seconds of a slow host
    from holding all of them. Each repetition's parts are scaled to the
    reference speed; the figures are medians over all repetitions, the
    first, cold one included.
    """

    def __init__(self, kind, N, artifact_path, speed, tracer=None):
        self._args = (kind, N, artifact_path)
        self._speed = speed
        self._tracer = tracer
        self._stamps = []

    def once(self):
        """Set up once more; return the config and the loaded data."""
        self._speed.sample()
        run_cfg, data, stamps = with_tracer(
            self._tracer, self._tracer is not None, lambda: set_up_once(*self._args)
        )
        self._stamps.append(stamps)
        return run_cfg, data

    def block(self):
        """At least SETUP_MIN_REPS repetitions and SETUP_MIN_S, at most SETUP_MAX_REPS."""
        begin = perf_counter()
        while True:
            run_cfg, data = self.once()
            reps = len(self._stamps)
            if reps >= SETUP_MAX_REPS or (reps >= SETUP_MIN_REPS and perf_counter() - begin >= SETUP_MIN_S):
                return run_cfg, data

    def times(self):
        """Median seconds of set-up and of each part, and the artifact size.

        Call after a host-speed sample that follows the last repetition.
        """
        stamps = np.array(self._stamps)
        parts = np.diff(stamps, axis=1) / self._speed.slowdown(stamps[:, 0], stamps[:, -1])[:, None]
        times = np.median(np.column_stack([parts.sum(axis=1), parts]), axis=0)
        keys = ("setup_s", "config.parse_s", "offline.build_s", "artifact.save_s", "artifact.load_s")
        out = dict(zip(keys, map(float, times)))
        out["artifact.bytes"] = self._args[2].stat().st_size
        out["setup_reps"] = len(stamps)
        return out


class Tally:
    """Failures and correctness outcomes of the timed phase."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.incorrect = 0
        self.max_equality = 0.0

    def solution(self, problem, x, result):
        self.attempted += 1
        if not result.converged:
            self.failed += 1
            return
        ok, equality = checks.check_solution(problem, x, result)
        self.max_equality = max(self.max_equality, equality)
        if not ok:
            self.failed += 1
            self.incorrect += 1


def loop_pass(run_cfg, data, recorder, speed, tally):
    """One warm closed loop of the paper scenario, one unit per step.

    A step's wall runs from its start to the start of the next (solve,
    plant and loop code); the loop's code before its first step is counted
    in step 0. A step's latency is its warm start plus its solve.
    """
    problem, sim = run_cfg.problem, run_cfg.sim
    recorder.clear()
    speed.sample()
    t_begin = perf_counter()
    traj = pendulum.closed_loop(
        problem, data, sim, run_cfg.x0_physical, run_cfg.reference, warmstart=True
    )
    t_done = perf_counter()
    speed.sample()
    done = len(recorder.steps)
    for x, result in recorder.steps:
        tally.solution(problem, x, result)
    # Steps an aborted loop never reached count as failed solves.
    tally.attempted += sim.steps - done
    tally.failed += sim.steps - done
    over = int(np.sum(np.abs(traj.inputs) > U_MAX * (1 + 1e-12)))
    tally.failed += over
    tally.incorrect += over
    t_step = np.array(recorder.t_step[:done])
    t_stop = np.array([*recorder.t_stop[1 : done + 1], t_done][:done])
    slow = speed.slowdown(t_step, t_stop)
    wall = t_stop - t_step
    wall[:1] += recorder.t_stop[0] - t_begin
    t_end = np.array(recorder.t_end)
    x_ctl = traj.states[: len(traj.inputs)].copy()
    x_ctl[:, 2] /= sim.scale
    u_ctl = traj.inputs / sim.scale
    costs = problem.costs
    return {
        "ids": np.arange(done),
        "wall": wall / slow,
        "latency": (t_end - t_step) / slow,
        "solve": (t_end - np.array(recorder.t_solve)) / slow,
        "raw_wall": float(np.sum(wall)),
        "iters": np.array([result.iterations for _, result in recorder.steps]),
        "capped": np.array([not result.converged for _, result in recorder.steps], dtype=bool),
        "cost": float(np.sum(x_ctl**2 * costs.Q_diag) + np.sum(u_ctl**2 * costs.R_diag)),
        "cases": [(x, run_cfg.reference, result) for x, result in recorder.steps],
    }


def mc_pass(problem, data, states, refs, ids, speed, tally):
    """Cold-solve the instances ``ids`` once each; one unit per instance."""
    stamps, results = [], []
    for i in ids:
        speed.sample()
        t0 = perf_counter()
        try:
            result = solver.eadmm_solve(data, problem, states[i], refs[i])
        except NumericalBreakdown:
            result = None
        stamps.append((t0, perf_counter()))
        results.append(result)
    speed.sample()
    for i, result in zip(ids, results):
        if result is None:
            tally.attempted += 1
            tally.failed += 1
        else:
            tally.solution(problem, states[i], result)
    t0, t1 = np.array(stamps).T
    latency = (t1 - t0) / speed.slowdown(t0, t1)
    return {
        "ids": np.asarray(ids),
        "wall": latency,
        "latency": latency,
        "solve": latency,
        "raw_wall": float(np.sum(t1 - t0)),
        "iters": np.array([0 if r is None else r.iterations for r in results]),
        "capped": np.array([r is not None and not r.converged for r in results], dtype=bool),
        "cases": [(states[i], refs[i], r) for i, r in zip(ids, results) if r is not None],
    }


def timed_passes(next_pass, seconds, trace, min_passes, between):
    """Repeat passes until they have taken ``seconds`` and ``min_passes`` ran.

    ``next_pass(k, traced)`` runs pass k. With tracing, passes alternate
    plain and traced, and the run ends after a traced pass. ``between``
    runs after every pass and does not count toward ``seconds``.
    """
    passes, spent = [], 0.0
    while True:
        k = len(passes)
        traced = bool(trace) and k % 2 == 1
        t0 = perf_counter()
        record = next_pass(k, traced)
        spent += perf_counter() - t0
        record["traced"] = traced
        passes.append(record)
        between()
        if len(passes) >= min_passes and spent >= seconds and not (trace and not traced):
            return passes


def unit_medians(passes, traced=False):
    """Per unit: median over the passes of wall, latency and solve time.

    Returns the unit ids in order and the three arrays.
    """
    chosen = [p for p in passes if p["traced"] == traced]
    ids = np.concatenate([p["ids"] for p in chosen])
    order = np.unique(ids)
    out = [order]
    for key in ("wall", "latency", "solve"):
        values = np.concatenate([p[key] for p in chosen])
        out.append(np.array([np.median(values[ids == u]) for u in order]))
    return out


def groups(ids, size):
    """Slices of consecutive units that form the groups of group figures."""
    return [slice(a, min(a + size, ids.size)) for a in range(0, ids.size, size)]


def end_to_end(passes, counts, group_size, tally, setup_times, data, track_cost):
    """The user-facing metrics of one untraced run."""
    ids, wall, latency, solve = unit_medians(passes)
    it = counts[0][ids]
    parts = groups(ids, group_size)
    # Harrell-Davis estimates weight all order statistics, so they do not
    # jump when a percentile sits between clusters of steps that differ by
    # one iteration.
    p50, p95 = mstats.hdquantiles(latency, prob=(0.5, 0.95))
    return {
        "setup_s": (setup_times["setup_s"], "s"),
        "run_s": (median(float(wall[g].sum()) for g in parts), "s"),
        "solves_per_s": (median(latency[g].size / float(latency[g].sum()) for g in parts), "1/s"),
        "solve_p50_ms": (float(p50) * 1e3, "ms"),
        "solve_p95_ms": (float(p95) * 1e3, "ms"),
        "us_per_iter": (median(float(solve[g].sum()) / max(1, int(it[g].sum())) for g in parts) * 1e6, "us"),
        "ok_frac": (1.0 - tally.failed / tally.attempted, "frac"),
        "track_cost": (track_cost, "1"),
        "offline_scalars": (data.scalar_count(), "count"),
    }


def wall_per_iter(passes, traced):
    """Wall time per solver iteration over the plain or the traced passes.

    Per iteration, so that Monte-Carlo sweeps of different instances compare.
    """
    chosen = [p for p in passes if p["traced"] == traced]
    return float(sum(p["wall"].sum() for p in chosen) / sum(p["iters"].sum() for p in chosen))


def banded_counts(n, N):
    """Computed flops and bytes of one banded_forward_backward call.

    Each of the two sweeps does N-1 off-diagonal n-by-n products and N
    triangular substitutions; bytes count reading the factors twice, the
    right-hand side once and writing and re-reading the solution.
    """
    flops = 2 * (2 * n * n * (N - 1) + N * (n * n + n))
    words = 2 * (N - 1) * n * n + 2 * N * n * (n + 1) // 2 + 3 * N * n
    return flops, 8 * words


def probe_layers(run_cfg, speed):
    """Trace the offline gain and a short warm loop for a cold workload.

    The Monte-Carlo workload never builds the warmstart gain, predicts a
    warm start or steps the plant; these layers are measured here, outside
    set-up and the timed phase, at the workload's horizon.
    """
    probe = SpanTracer(trace_targets(speed))
    StepRecorder(speed)
    problem = run_cfg.problem
    speed.sample()
    probe.install()
    try:
        for _ in range(PROBE_BUILDS):
            data = offline.build_offline(problem, with_warmstart=True)
            speed.sample()
        sim = pendulum.SimConfig(steps=PROBE_STEPS)
        pendulum.closed_loop(problem, data, sim, run_cfg.x0_physical, run_cfg.reference, warmstart=True)
    finally:
        probe.uninstall()
    speed.sample()
    return probe


def span_scale(tracer, speed):
    """Per span, the host slowdown over it."""
    start, end = tracer.intervals()
    return speed.slowdown(start, end)


def per_layer(tracer, probe, passes, counts, setup_times, data, Ts, dense_stats, speed):
    """Layer metrics of one traced run.

    Stage times are self times per call, and each stage runs once per
    iteration; other times are per call unless named otherwise. Every span
    is scaled to the reference host speed. Layers the workload does not
    call are taken from the probe. Returns the metrics and the split of the
    traced solve time.
    """
    scale = span_scale(tracer, speed)
    summary = tracer.summary(scale)
    if probe is not None:
        probe_scale = span_scale(probe, speed)
        fallback = probe.summary(probe_scale)

    def stat(name):
        entry = summary.get(name)
        return entry if entry is not None and entry["calls"] else fallback[name]

    out = {}
    for metric, name in STAGES.items():
        s = stat(name)
        out[metric] = (s["self_s"] / s["calls"] * 1e6, "us")
    solve = stat("solver.eadmm_solve")
    out["solver.solve_self_us"] = (solve["self_s"] / solve["calls"] * 1e6, "us")
    for metric, name in (
        ("solver.warmstart_predict_us", "solver.warmstart_predict"),
        ("solver.cold_start_us", "solver.cold_start"),
        ("pendulum.rk4_us", "pendulum.rk4_step"),
    ):
        s = stat(name)
        out[metric] = (s["total_s"] / s["calls"] * 1e6, "us")
    # Self time of the loop per control step (one rk4_step call per step).
    loop, rk4 = stat("pendulum.closed_loop"), stat("pendulum.rk4_step")
    out["pendulum.loop_self_us"] = (loop["self_s"] / rk4["calls"] * 1e6, "us")
    banded = stat("solver.banded_forward_backward")
    out["solver.banded_share"] = (banded["total_s"] / solve["total_s"], "frac")
    iters, capped = counts
    out["solver.iters_per_solve"] = (float(iters.mean()), "count")
    out["solver.iters_max"] = (int(iters.max()), "count")
    out["solver.cap_hits"] = (int(capped.sum()), "count")
    flops, nbytes = banded_counts(data.n, data.N)
    out["solver.banded_flops_per_call"] = (flops, "flop")
    out["solver.banded_bytes_per_call"] = (nbytes, "B")
    out["solver.banded_mflops"] = (flops * banded["calls"] / banded["total_s"] / 1e6, "MFLOP/s")
    _, _, plain_latency, _ = unit_medians(passes)
    out["pendulum.deadline_miss_frac"] = (float(np.mean(plain_latency > Ts)), "frac")
    out["offline.build_s"] = (setup_times["offline.build_s"], "s")
    for metric, name in (
        ("offline.cholesky_s", "offline.compute_banded_cholesky"),
        ("offline.warmstart_gain_s", "offline.compute_warmstart_gain"),
    ):
        durations = tracer.durations(name, scale)
        if durations.size == 0:
            durations = probe.durations(name, probe_scale)
        out[metric] = (float(np.median(durations)), "s")
    for key in ("artifact.save_s", "artifact.load_s", "config.parse_s"):
        out[key] = (setup_times[key], "s")
    out["artifact.bytes"] = (setup_times["artifact.bytes"], "B")
    out["compare.max_deviation"] = (dense_stats["max_deviation"], "1")
    out["dense.kkt_residual_max"] = (dense_stats["kkt_residual_max"], "1")
    out["compare.check_s"] = (dense_stats["check_s"], "s")
    out["trace.overhead_frac"] = (wall_per_iter(passes, True) / wall_per_iter(passes, False) - 1.0, "frac")
    stages = sum(summary[name]["self_s"] for name in STAGES.values())
    # Traced solve time = stage self times + solve self time + the rest
    # (the cold_start a cold solve makes inside eadmm_solve).
    accounting = {
        "solve_total_s": solve["total_s"],
        "stages_self_s": stages,
        "solve_self_s": solve["self_s"],
        "rest_s": solve["total_s"] - stages - solve["self_s"],
    }
    return out, accounting


def unit_counts(passes):
    """Per unit id: iterations and whether the solve hit the iteration cap.

    The solver is deterministic, so any visit of a unit gives them.
    """
    size = 1 + max(int(p["ids"].max()) for p in passes)
    iters, capped = np.zeros(size, dtype=int), np.zeros(size, dtype=bool)
    for p in passes:
        iters[p["ids"]] = p["iters"]
        capped[p["ids"]] = p["capped"]
    return iters, capped


def run(workload, seed, seconds, trace, results_dir):
    """Run one workload; returns (correct, attempted, failed, metrics, details)."""
    kind, N = WORKLOADS[workload]
    speed = hostspeed.HostSpeed()
    tracer = SpanTracer(trace_targets(speed))
    artifact_path = results_dir / f"setup-{workload}.bin"
    setup = SetUp(kind, N, artifact_path, speed, tracer if trace else None)
    run_cfg, data = setup.block()
    problem = run_cfg.problem
    tally = Tally()
    if kind == "loop":
        recorder = StepRecorder(speed)
        warm_up = pendulum.SimConfig(steps=WARMUP_STEPS)
        pendulum.closed_loop(
            problem, data, warm_up, run_cfg.x0_physical, run_cfg.reference, warmstart=True
        )
        passes = timed_passes(
            lambda k, traced: with_tracer(
                tracer, traced, lambda: loop_pass(run_cfg, data, recorder, speed, tally)
            ),
            seconds,
            trace,
            MIN_LOOPS,
            setup.once,
        )
        group_size = run_cfg.sim.steps
        first = passes[0]["cases"]
        track_cost = passes[0]["cost"]
    else:
        states, refs = mc_instances(problem, seed)
        for i in range(MC_SWEEP):  # untimed warm-up
            solver.eadmm_solve(data, problem, states[i], refs[i])
        sweeps = MC_INSTANCES // MC_SWEEP

        def next_sweep(k, traced):
            g = k % sweeps
            ids = range(g * MC_SWEEP, (g + 1) * MC_SWEEP)
            return with_tracer(
                tracer, traced, lambda: mc_pass(problem, data, states, refs, ids, speed, tally)
            )

        passes = timed_passes(next_sweep, seconds, trace, sweeps, setup.once)
        group_size = MC_SWEEP
        first = [case for p in passes[:sweeps] for case in p["cases"]]
        track_cost = float(np.mean([checks.objective(problem, r, res) for _, r, res in first]))
    speed.sample()  # brackets the last set-up and the last pass's own samples
    setup_times = setup.times()
    counts = unit_counts(passes)
    picks = np.random.default_rng(seed).choice(len(first), size=min(DENSE_CASES, len(first)), replace=False)
    t0 = perf_counter()
    max_dev, max_kkt = checks.dense_replay(problem, data, [first[i] for i in sorted(picks)])
    dense_stats = {"max_deviation": max_dev, "kkt_residual_max": max_kkt, "check_s": perf_counter() - t0}
    correct = tally.incorrect == 0 and max_dev <= checks.COMPARE_BOUND
    if trace:
        probe = probe_layers(run_cfg, speed) if kind == "mc" else None
        metrics, accounting = per_layer(
            tracer, probe, passes, counts, setup_times, data, run_cfg.sim.Ts, dense_stats, speed
        )
        tracer.save(results_dir / f"spans-{workload}.npz")
    else:
        metrics = end_to_end(passes, counts, group_size, tally, setup_times, data, track_cost)
        accounting = None
    durations = np.frombuffer(speed.duration)
    details = {
        "solve_accounting": accounting,
        "passes": len(passes),
        "setup_reps": setup_times["setup_reps"],
        "raw_pass_walls_s": [p["raw_wall"] for p in passes],
        "host_speed": {
            "samples": int(durations.size),
            "fastest_s": float(durations.min()),
            "median_slowdown": float(np.median(durations) / hostspeed.REFERENCE_S),
        },
        "max_equality_residual": tally.max_equality,
        "incorrect": tally.incorrect,
        **dense_stats,
    }
    return correct, tally.attempted, tally.failed, metrics, details
