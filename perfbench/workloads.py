"""The three workloads, the timed passes over them, and the traced run.

Every workload is a closed loop: one client in one process sends the next
operation when the previous one returns. An operation is one in-process
`clmech.cli.main(argv)` call, timed from call to return:

- `simulate`: `simulate <scenario> -o <csv>` over one round of 25
  generated scenarios (`gen.SIMULATE_ROUND`); every round repeats the
  same scenarios, and its CSV output must be byte-identical to the first.
- `check_corpus`: `check all <scenario> --seed <seed>` over the eight
  bundled scenarios; clmech is imported afresh before each operation
  (outside its timing), as a one-shot `clmech check all` starts.
- `derive_cold`: `derive <scenario>` over a batch of 100 generated
  Lagrangians; every batch is new, so no Lagrangian is derived twice, and
  clmech is imported afresh before each operation (outside its timing), so
  every derive starts with empty caches, as a one-shot `clmech derive` does.

A pass is one round, corpus or batch. Passes repeat until the run has
measured for `--seconds`, and at least one pass. Then, on a workload whose
first pass outlasts the run (`check_corpus`), the inputs of that pass with
fewer than `min_samples` samples, totalling under `REPEAT_UNDER_S`, run
again until they have them. Outputs are checked against `oracle` after the
measuring ends.
"""

from __future__ import annotations

import bisect
import contextlib
import gc
import hashlib
import importlib
import io
import json
import math
import resource
import signal
import statistics
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable

import numpy as np

import gen
import layers
from spans import Tracer, aggregate

SETUP_REPEATS = 15
# an input measured for less than this in all is run again, up to its
# workload's `min_samples`
REPEAT_UNDER_S = 2.0
CALIBRATION_LOOPS = 600
# The calibration loop's usual time on the 2-vCPU Intel Xeon that the
# README's baseline comes from. It only sets the unit of the scaled times.
REFERENCE_CALIBRATION_S = 0.0075
CALIBRATE_EVERY_S = 0.2
DERIVE_BATCH = 100
PROBE_STEPS_SCALE = 0.1
REPLAY_STATES = 40


@dataclass
class Op:
    key: str
    seconds: float
    rc: int | None
    output: str = ""
    error: str = ""
    csv: Path | None = None
    start: float = 0.0  # perf_counter at the call


@dataclass
class Pass:
    ops: list[Op] = field(default_factory=list)

    @property
    def seconds(self) -> float:
        return sum(op.seconds for op in self.ops)


def forget_clmech() -> None:
    """Drop every clmech module and collect the garbage they leave."""
    for name in [m for m in sys.modules if m == "clmech" or m.startswith("clmech.")]:
        del sys.modules[name]
    gc.collect()


def fresh_import():
    """Import clmech anew, so its caches start empty; returns clmech.cli."""
    forget_clmech()
    return importlib.import_module("clmech.cli")


def _call(cli, argv: list[str], tracer: Tracer | None) -> tuple[int | None, float, float, str, str]:
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        start = time.perf_counter()
        try:
            rc = tracer.call("cli.main", cli.main, argv) if tracer else cli.main(argv)
        except Exception as exc:  # noqa: BLE001 - a raising operation counts as failed
            rc = None
            err.write(f"{type(exc).__name__}: {exc}")
        seconds = time.perf_counter() - start
    return rc, start, seconds, out.getvalue(), err.getvalue()


class Workload:
    name = ""
    # import clmech afresh before every operation, untimed
    cold = False
    # samples each input of the first pass gets, unless its samples
    # already total REPEAT_UNDER_S
    min_samples = 1

    def __init__(self, root: Path, seed: int, work: Path) -> None:
        self.root, self.seed, self.work = root, seed, work
        self.specs: dict[str, gen.Spec] = {}

    def inputs(self, index: int) -> list[Path]:
        raise NotImplementedError

    def run_op(self, cli, path: Path, tracer: Tracer | None = None) -> Op:
        raise NotImplementedError

    def check(self, ops: list[Op]) -> list[list[str]]:
        raise NotImplementedError

    def _write(self, specs: list[gen.Spec]) -> list[Path]:
        self.specs.update((s.name, s) for s in specs)
        return [s.write(self.work) for s in specs]


class Simulate(Workload):
    name = "simulate"

    def __init__(self, root: Path, seed: int, work: Path, steps_scale: float = 1.0) -> None:
        super().__init__(root, seed, work)
        self.steps_scale = steps_scale

    def inputs(self, index: int) -> list[Path]:
        n = len(gen.SIMULATE_ROUND)
        return self._write([gen.simulate_spec(self.seed, i, self.steps_scale) for i in range(n)])

    def run_op(self, cli, path: Path, tracer: Tracer | None = None) -> Op:
        csv = path.with_suffix(".csv")
        rc, start, seconds, _, err = _call(cli, ["simulate", str(path), "-o", str(csv)], tracer)
        if rc != 0:
            return Op(path.stem, seconds, rc, error=err, start=start)
        # the output kept is the CSV's digest and last row; the file stays
        # on disk for the replay of the traced run
        return Op(path.stem, seconds, rc, _csv_digest(csv), err, csv, start)

    def check(self, ops: list[Op]) -> list[list[str]]:
        import oracle

        first: dict[str, Op] = {}
        verdict: dict[str, list[str]] = {}
        out = []
        for op in ops:
            errors = [f"{op.key}: exit {op.rc} {op.error.strip()}"] if op.rc != 0 else []
            if not errors:
                ref = first.setdefault(op.key, op)
                if op.output != ref.output:
                    errors.append(f"{op.key}: CSV differs from the first run of the same scenario")
                elif op.key not in verdict:
                    verdict[op.key] = oracle.check_final_row(self.specs[op.key], _last_row(op.csv))
                errors += verdict.get(op.key, [])
            out.append(errors)
        return out

    def steps(self, ops: list[Op]) -> int:
        return sum(round(self.specs[op.key].t_end / self.specs[op.key].h) for op in ops)


def _csv_digest(csv: Path) -> str:
    data = csv.read_bytes()
    return hashlib.sha256(data).hexdigest() + ":" + data[data.rstrip().rfind(b"\n") + 1 :].decode().strip()


def _last_row(csv: Path) -> str:
    return csv.read_text().rstrip().rsplit("\n", 1)[1]


class DeriveCold(Workload):
    name = "derive_cold"
    cold = True

    def inputs(self, index: int) -> list[Path]:
        first = index * DERIVE_BATCH
        return self._write([gen.derive_spec(self.seed, i) for i in range(first, first + DERIVE_BATCH)])

    def run_op(self, cli, path: Path, tracer: Tracer | None = None) -> Op:
        rc, start, seconds, out, err = _call(cli, ["derive", str(path)], tracer)
        return Op(path.stem, seconds, rc, out, err, start=start)

    def check(self, ops: list[Op]) -> list[list[str]]:
        import oracle

        return [
            [f"{op.key}: exit {op.rc} {op.error.strip()}"] if op.rc != 0
            else oracle.check_derive(self.specs[op.key], op.output)
            for op in ops
        ]


class CheckCorpus(Workload):
    name = "check_corpus"
    cold = True
    # one pass outlasts a run, so each scenario would be measured once, and
    # the median falls on two scenarios of under a second each
    min_samples = 5

    def inputs(self, index: int) -> list[Path]:
        return sorted((self.root / "scenarios").glob("*.json"))

    def run_op(self, cli, path: Path, tracer: Tracer | None = None) -> Op:
        rc, start, seconds, out, err = _call(cli, ["check", "all", str(path), "--seed", str(self.seed)], tracer)
        return Op(path.stem, seconds, rc, out, err, start=start)

    def check(self, ops: list[Op]) -> list[list[str]]:
        import oracle

        return [
            ([f"{op.key}: exit {op.rc} {op.error.strip()}"] if op.rc != 0 else [])
            + oracle.check_corpus_report(op.key, op.output)
            for op in ops
        ]


WORKLOADS = {w.name: w for w in (Simulate, CheckCorpus, DeriveCold)}


def set_up(workload: Workload):
    """Import clmech, write the first pass's inputs and load each of them."""
    forget_clmech()
    start = time.perf_counter()
    cli = importlib.import_module("clmech.cli")
    paths = workload.inputs(0)
    for path in paths:
        cli.Scenario.load(path)
    return start, time.perf_counter(), cli, paths


def run_pass(workload: Workload, cli, items: list[Path]) -> Pass:
    run = Pass()
    for path in items:
        run.ops.append(workload.run_op(fresh_import() if workload.cold else cli, path))
    return run


def repeats(workload: Workload, paths: list[Path], passes: list[Pass]) -> list[Path]:
    """The first pass's inputs that still need a sample: fewer than
    `workload.min_samples` samples, together shorter than REPEAT_UNDER_S."""
    counts: dict[str, int] = {}
    totals: dict[str, float] = {}
    for op in (op for p in passes for op in p.ops):
        counts[op.key] = counts.get(op.key, 0) + 1
        totals[op.key] = totals.get(op.key, 0.0) + op.seconds
    return [p for p in paths if counts[p.stem] < workload.min_samples and totals[p.stem] < REPEAT_UNDER_S]


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def per_input(ops: list[Op], seconds: list[float]) -> list[float]:
    """One latency per distinct input: the median over the passes that ran it.

    `simulate` runs the same inputs in every pass, and `check_corpus` runs
    its short scenarios again (`repeats`), so a stretch slowed by the
    machine moves the median of each input much less than the mean; on
    `derive_cold` every input runs once in a run.
    """
    by_key: dict[str, list[float]] = {}
    for op, s in zip(ops, seconds):
        by_key.setdefault(op.key, []).append(s)
    return [statistics.median(v) for v in by_key.values()]


def percentile(values: list[float], q: int) -> float:
    """The q-th percentile, interpolated between observed values only.

    `statistics.quantiles`' default method extrapolates beyond the largest
    value when there are fewer than 100 / (100 - q) samples; the inclusive
    one never leaves the range that was measured.
    """
    if len(values) == 1:
        return values[0]
    return statistics.quantiles(values, n=100, method="inclusive")[q - 1]


@dataclass
class Result:
    correct: bool
    attempted: int
    failed: int
    metrics: dict[str, tuple[float, str]]
    info: dict = field(default_factory=dict)
    errors: list[str] = field(default_factory=list)


def _verdicts(workload: Workload, ops: list[Op]) -> tuple[int, list[str]]:
    found = workload.check(ops)
    failed = sum(1 for errors in found if errors)
    return failed, [e for errors in found for e in errors]


_CAL_MATRIX = np.array([[2.0, 0.1, 0.0], [0.1, 3.0, 0.2], [0.0, 0.2, 1.5]])


def calibration_s() -> float:
    """Time of a fixed loop that shares no code with clmech: 3x3 numpy
    solves, small-array arithmetic and float math, the mix that clmech's
    inner loops are made of. Its time follows the machine's speed changes
    on clmech's work far more closely than a pure-Python integer loop does
    (see the README)."""
    start = time.perf_counter()
    v, acc = np.array([1.0, 0.5, -0.3]), 0.0
    for _ in range(CALIBRATION_LOOPS):
        x = np.linalg.solve(_CAL_MATRIX, v)
        acc += math.sin(float(x[0]))
        v = v * 0.999 + 0.001
    return time.perf_counter() - start


class Speed:
    """Calibration samples taken every `CALIBRATE_EVERY_S` of a run.

    A shared machine can run a process faster or slower by a quarter or
    more, switching within a second and staying for seconds. Work done
    between two samples is scaled by the reference time of the calibration
    loop over the mean of those two samples, which removes most of that
    drift from the end-to-end metrics while any change to clmech itself
    shows in full. While `sampling()` is active a timer signal takes the
    samples, wherever the main thread is (Python runs the handler between
    two bytecodes), so an operation lasting seconds is scaled in pieces
    too; the samples' own time is not counted.
    """

    def __init__(self) -> None:
        self.spans: list[tuple[float, float]] = []  # (start, end) of each sample
        self.sample()

    @property
    def samples(self) -> list[float]:
        return [end - start for start, end in self.spans]

    def sample(self) -> None:
        start = time.perf_counter()
        calibration_s()
        self.spans.append((start, time.perf_counter()))

    @contextlib.contextmanager
    def sampling(self):
        """Sample on a one-shot timer, re-armed after each sample so that
        samples never overlap; the previous handler comes back on exit."""

        def handler(signum, frame):
            self.sample()
            signal.setitimer(signal.ITIMER_REAL, CALIBRATE_EVERY_S)

        previous = signal.signal(signal.SIGALRM, handler)
        signal.setitimer(signal.ITIMER_REAL, CALIBRATE_EVERY_S)
        try:
            yield
        finally:
            signal.setitimer(signal.ITIMER_REAL, 0)
            signal.signal(signal.SIGALRM, previous)

    def scaled(self, start: float, end: float) -> tuple[float, float]:
        """Work time within [start, end] outside the samples, and that time
        scaled segment by segment; call after the last sample is taken."""
        first = max(0, bisect.bisect_right(self.spans, (start, math.inf)) - 1)
        raw = scaled = 0.0
        for (s0, e0), (s1, e1) in zip(self.spans[first:], self.spans[first + 1 :]):
            if s0 >= end:
                break
            seconds = min(end, s1) - max(start, e0)
            if seconds > 0:
                raw += seconds
                scaled += seconds * REFERENCE_CALIBRATION_S / ((e0 - s0 + e1 - s1) / 2)
        return raw, scaled


def measure(workload: Workload, seconds: float) -> Result:
    """The untraced run: end-to-end metrics, scaled to the reference speed."""
    speed = Speed()
    setup_spans = []
    passes: list[Pass] = []
    rss = None
    with speed.sampling():
        for _ in range(SETUP_REPEATS):
            begin, end, cli, paths = set_up(workload)
            setup_spans.append((begin, end))
        start = time.perf_counter()
        while True:
            passes.append(run_pass(workload, cli, paths if not passes else workload.inputs(len(passes))))
            if rss is None:
                rss = peak_rss_mb()  # after set-up and one pass: fixed work, whatever the speed
            if time.perf_counter() - start >= seconds:
                break
        while again := repeats(workload, paths, passes):
            passes.append(run_pass(workload, cli, again))
    speed.sample()
    setups = [speed.scaled(*span)[1] for span in setup_spans]
    ops = [op for p in passes for op in p.ops]
    failed, errors = _verdicts(workload, ops)
    per_pass = len(passes[0].ops)
    timed = [speed.scaled(op.start, op.start + op.seconds) for op in ops]
    raw = per_input(ops, [r for r, _ in timed])
    latencies = per_input(ops, [s for _, s in timed])
    pass_s = math.fsum(latencies) * per_pass / len(latencies)
    metrics = {
        "setup_s": (statistics.median(setups), "s"),
        "pass_s": (pass_s, "s"),
        "op_p50_ms": (statistics.median(latencies) * 1e3, "ms"),
        "op_p90_ms": (percentile(latencies, 90) * 1e3, "ms"),
        "peak_rss_mb": (rss, "MB"),
    }
    info = {
        "passes": len(passes),
        "ops": len(ops),
        "inputs": len(latencies),
        "unscaled_pass_s": math.fsum(raw) * per_pass / len(raw),
        "unscaled_op_p50_ms": statistics.median(raw) * 1e3,
        "unscaled_op_p90_ms": percentile(raw, 90) * 1e3,
        "calibration_ms": [round(min(speed.samples) * 1e3, 3), round(statistics.median(speed.samples) * 1e3, 3),
                           round(max(speed.samples) * 1e3, 3)],
    }
    if isinstance(workload, Simulate):
        info["simulate_steps_per_s"] = workload.steps(passes[0].ops) / pass_s
    elif isinstance(workload, CheckCorpus):
        info["check_wall_s"] = pass_s
    else:
        info["derive_p50_ms"] = metrics["op_p50_ms"][0]
        info["derive_p90_ms"] = metrics["op_p90_ms"][0]
        info["derive_samples"] = len(ops)
    return Result(failed == 0, len(ops), failed, metrics, info, errors)


# --- traced run -------------------------------------------------------------


def _count_nodes(expr) -> int:
    stack, n = [expr], 0
    while stack:
        e = stack.pop()
        n += 1
        for child in ("arg", "left", "right"):
            sub = getattr(e, child, None)
            if sub is not None:
                stack.append(sub)
    return n


def _eom_nodes(eom) -> int:
    trees = list(eom.f) + list(eom.g) + list(eom.f_t)
    trees += [e for row in eom.A for e in row] + [e for row in eom.f_q for e in row]
    return sum(_count_nodes(e) for e in trees)


def install(tracer: Tracer, derived: list) -> None:
    """Wrap the public functions each calling module uses, in that module."""

    def integrated(span, args, traj):
        span.attrs["kind"] = traj.kind
        span.attrs["steps"] = traj.n_samples - 1

    def csv_rows(span, args, text):
        span.attrs["rows"] = args[0].n_samples

    def keep_eom(span, args, eom):
        derived.append(eom)

    patch = tracer.patch_module
    for module in ("clmech.scenario", "clmech.suites"):
        patch(module, "parse", "exprcore.parse")
    for module in ("clmech.lagrangian", "clmech.hamiltonian", "clmech.variational", "clmech.suites"):
        patch(module, "diff", "exprcore.diff")
        patch(module, "compile_expr", "exprcore.compile_expr")
    patch("clmech.lagrangian", "simplify", "exprcore.simplify")
    for module in ("clmech.cli", "clmech.suites", "clmech.equivalence"):
        patch(module, "derive_eom", "lagrangian.derive_eom", keep_eom)
    for module in ("clmech.cli", "clmech.suites", "clmech.geometry"):
        patch(module, "integrate", "dynamics.integrate", integrated)
    for module in ("clmech.cli", "clmech.suites"):
        patch(module, "integrate_hamiltonian", "dynamics.integrate_hamiltonian", integrated)
        patch(module, "HamiltonianField", "hamiltonian.HamiltonianField")
    patch("clmech.cli", "to_csv", "dynamics.to_csv", csv_rows)
    patch("clmech.suites", "sampled_path", "dynamics.sampled_path")
    for fn in ("action", "first_variation", "charge_series"):
        patch("clmech.suites", fn, f"variational.{fn}")
    for fn in ("eom_equivalent", "integrability_residual"):
        patch("clmech.suites", fn, f"equivalence.{fn}")
    for fn in ("lie_theta", "lie_theta_cartan"):
        patch("clmech.suites", fn, f"geometry.{fn}")
    patch("clmech.suites", "sample_states", "sampling.sample_states")
    suites = importlib.import_module("clmech.suites")
    for name in layers.SUITES:
        tracer.patch(suites.SUITE_FUNCTIONS, name, f"suites.{name}", "clmech.suites")
    scenario = importlib.import_module("clmech.scenario").Scenario
    tracer.patch(scenario, "load", "scenario.load", "clmech.cli")


def traced(run: Callable[[Callable[[], object], Tracer], None]) -> tuple[layers.PassTrace, Tracer]:
    """`run(reimport, tracer)`; each `reimport()` imports clmech afresh with
    every wrapper installed and returns its `clmech.cli`. The diff cache's
    hits and misses are summed over the imports."""
    tracer = Tracer()
    derived: list = []
    lookups = [0, 0]  # hits, misses
    exprcore = None

    def fold() -> None:
        if exprcore is not None:
            info = exprcore.diff.cache_info()
            lookups[0] += info.hits
            lookups[1] += info.misses

    def reimport():
        nonlocal exprcore
        tracer.restore()
        fold()
        cli = fresh_import()
        exprcore = importlib.import_module("clmech.exprcore")
        install(tracer, derived)
        return cli

    try:
        run(reimport, tracer)
    finally:
        tracer.restore()
    fold()
    hits, total = lookups[0], sum(lookups)
    trace = layers.PassTrace(
        spans=tracer.spans,
        agg=aggregate(tracer.spans),
        diff_cache_hit_ratio=hits / total if total else None,
        derived_nodes=sum(_eom_nodes(e) for e in derived) or None,
    )
    return trace, tracer


def span_cost_s(calls: int = 20_000, repeats: int = 5) -> float:
    """What a span adds to a call: a wrapped no-op against the bare one."""

    def noop(arg):
        return arg

    def loop(fn) -> float:
        start = time.perf_counter()
        for _ in range(calls):
            fn(1)
        return time.perf_counter() - start

    wrapped = Tracer().wrap("noop", noop, "perfbench")
    traced_s = statistics.median(loop(wrapped) for _ in range(repeats))
    plain_s = statistics.median(loop(noop) for _ in range(repeats))
    return (traced_s - plain_s) / calls


def _median_call_us(calls: list, repeats: int = 3) -> float | None:
    """Median over `repeats` sweeps of the mean time per call."""
    if not calls:
        return None
    sweeps = []
    for _ in range(repeats):
        start = time.perf_counter()
        for fn, args in calls:
            fn(*args)
        sweeps.append((time.perf_counter() - start) / len(calls) * 1e6)
    return statistics.median(sweeps)


def replay(workload: Simulate, ops: list[Op]) -> dict[str, float]:
    """Time the public per-state functions on states from simulate trajectories.

    Each call gets the previous CSV row's velocity as its Newton guess, as
    the integrators thread it from sample to sample.
    """
    cli = fresh_import()
    lagrangian = importlib.import_module("clmech.lagrangian")
    hamiltonian = importlib.import_module("clmech.hamiltonian")
    MechState, PhaseState = lagrangian.MechState, hamiltonian.PhaseState
    calls: dict[str, list] = {k: [] for k in (
        "lagrangian.momentum_us", "lagrangian.force_us", "lagrangian.accel_us.dim1",
        "lagrangian.accel_us.dim3", "lagrangian.closure_velocity_us",
        "hamiltonian.invert_velocity_us", "hamiltonian.flow_field_us")}
    for op in ops:
        if op.csv is None:
            continue
        spec = workload.specs[op.key]
        sc = cli.Scenario.load(workload.work / f"{op.key}.json")
        lagr = sc.build_lagrangian()
        eom = lagrangian.derive_eom(lagr, sc.probe_state(), closure_mass=sc.closure_mass)
        rows = [list(map(float, line.split(","))) for line in op.csv.read_text().splitlines()[1:]]
        n = spec.dim
        if spec.kind == gen.HAMILTONIAN:
            field = hamiltonian.HamiltonianField(lagr, eom, kappa0=sc.kappa0)
        step = max(1, len(rows) // REPLAY_STATES)
        for prev, row in zip(rows[step - 1 :: step], rows[step::step]):
            t, q, qd, p = row[0], row[1 : 1 + n], row[1 + n : 1 + 2 * n], row[1 + 2 * n : 1 + 3 * n]
            s = MechState(t, q, qd)
            calls["lagrangian.momentum_us"].append((lagrangian.momentum, (eom, s)))
            calls["lagrangian.force_us"].append((lagrangian.force, (eom, s)))
            guess = prev[1 + n : 1 + 2 * n]
            if spec.kind == gen.REGULAR:
                calls[f"lagrangian.accel_us.dim{n}"].append((lagrangian.accel, (eom, s)))
            elif spec.kind == gen.CLOSURE:
                calls["lagrangian.closure_velocity_us"].append(
                    (lagrangian.closure_velocity, (eom, t, q, guess)))
            else:
                calls["hamiltonian.invert_velocity_us"].append(
                    (hamiltonian.invert_velocity, (field, q[0], p[0], t, guess[0])))
                calls["hamiltonian.flow_field_us"].append(
                    (hamiltonian.flow_field, (field, PhaseState(t, q[0], p[0]))))
    return {k: v for k, v in ((k, _median_call_us(c)) for k, c in calls.items()) if v is not None}


def probe_check_scenario(root: Path, work: Path) -> Path:
    """damped_oscillator over 100 steps with all five suites declared."""
    raw = json.loads((root / "scenarios" / "damped_oscillator.json").read_text())
    raw["name"] = "probe_damped_oscillator"
    raw["integrator"] = {"h": 0.01, "t_start": 0.0, "t_end": 1.0}
    raw["checks"] = list(layers.SUITES)
    path = work / "probe_check.json"
    path.write_text(json.dumps(raw, sort_keys=True, indent=1) + "\n")
    return path


def run_probe(root: Path, seed: int, work: Path) -> layers.PassTrace:
    """A short traced pass over every layer: a simulate round at a tenth of
    the steps, then `check all` on a short damped oscillator."""
    work = work / "probe"
    work.mkdir(exist_ok=True)
    sim = Simulate(root, seed, work, PROBE_STEPS_SCALE)
    check = CheckCorpus(root, seed, work)
    sim_ops: list[Op] = []

    def probe(reimport, tracer: Tracer) -> None:
        cli = reimport()
        sim_ops.extend(sim.run_op(cli, p, tracer) for p in sim.inputs(0))
        check.run_op(cli, probe_check_scenario(root, work), tracer)

    trace, _ = traced(probe)
    trace.replay = replay(sim, sim_ops)
    return trace


def trace_run(workload: Workload, out: Path) -> Result:
    """The traced run: the first pass's inputs, each run once untraced and
    once traced against two fresh imports of clmech, so both start with
    empty caches and share any drift of the machine's speed (a cold
    workload imports both afresh before every pair). The order within a
    pair alternates, and a full garbage collection precedes each
    operation: otherwise where the collector's full sweeps land decides
    which side looks slower. The per-layer metrics come from the traced
    operations."""
    *_, paths = set_up(workload)
    plain, run = Pass(), Pass()

    def alternate(reimport, tracer: Tracer) -> None:
        plain_cli = cli = None
        for i, path in enumerate(paths):
            if cli is None or workload.cold:
                plain_cli, cli = fresh_import(), reimport()
            sides = [(plain, plain_cli, None), (run, cli, tracer)]
            for ops, side_cli, side_tracer in sides[:: 1 if i % 2 == 0 else -1]:
                gc.collect()
                ops.ops.append(workload.run_op(side_cli, path, side_tracer))

    own, tracer = traced(alternate)
    if isinstance(workload, Simulate):
        own.replay = replay(workload, run.ops)
    tracer.write(out)
    values, from_probe = layers.compute(
        own, lambda: run_probe(workload.root, workload.seed, workload.work))
    ops = plain.ops + run.ops
    failed, errors = _verdicts(workload, ops)
    units = {name: spec["unit"] for name, spec in layers.LAYERS.items()}
    metrics = {name: (value, units[name]) for name, value in values.items()}
    metrics["trace.overhead_s"] = (run.seconds - plain.seconds, "s")
    # the difference above is mostly the machine's noise; the estimate from
    # a wrapped no-op and the spread of the per-operation differences show
    # how much of it the tracing explains
    pair_ms = [(r.seconds - u.seconds) * 1e3 for u, r in zip(plain.ops, run.ops)]
    cost = span_cost_s()
    info = {
        "untraced_pass_s": plain.seconds,
        "traced_pass_s": run.seconds,
        "spans": len(tracer.spans),
        "span_cost_us": cost * 1e6,
        "overhead_estimate_s": cost * len(tracer.spans),
        "overhead_pair_ms_quartiles": [round(x, 3) for x in statistics.quantiles(pair_ms, n=4, method="inclusive")],
        "from_probe": from_probe,
        "trace_file": str(out),
    }
    return Result(failed == 0, len(ops), failed, metrics, info, errors)
