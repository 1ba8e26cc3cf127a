"""The three workloads: inputs, the timed op, the oracle check, and the
per-layer probes of the traced run.

Each workload is a closed loop with one client: the next op starts when the
previous one has finished. Probes call the package's public functions on
the op's own inputs after the op has been timed, so they never count toward
its latency.
"""

from __future__ import annotations

import json
import os
import signal
import subprocess
import sys
from contextlib import contextmanager, nullcontext
from dataclasses import dataclass, field
from statistics import median
from time import perf_counter

import numpy as np
import pobounds as pb
import pobounds.cli as pb_cli

import gen
import oracle


class Deadline(Exception):
    """An op ran past its deadline."""


class OpFailed(Exception):
    """The program reported an error for an op."""


# What counts as the program failing an op. Anything else is a defect of
# the benchmark and stops it.
FAILURES = (pb.PoboundsError, ArithmeticError, np.linalg.LinAlgError, OpFailed)


@contextmanager
def deadline(seconds: float):
    """Abort the block in-process with SIGALRM once ``seconds`` have passed."""

    def expire(signum, frame):
        raise Deadline()

    previous = signal.signal(signal.SIGALRM, expire)
    signal.setitimer(signal.ITIMER_REAL, seconds)
    try:
        yield
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, previous)


# On shared CPUs a host's speed can drift by up to a factor of two over
# tens of seconds. A fixed reference, timed before every op, tracks that
# drift: each op's latency is scaled by the reference's nominal time over
# the median reference time of the seven ops around it, giving the latency
# at the host's nominal speed. In-process workloads use a kernel that mixes
# interpreter work with the tableau-update numpy pattern the solver spends
# its time in; process workloads use a fresh interpreter that imports numpy
# and then runs an interpreter loop, as the CLI imports and then parses
# CSV. Neither calls the package. The nominal times are round
# values near the references' fastest times on a 2-CPU Intel Xeon host with
# Python 3.11 and numpy 2.4; they only set the unit of the scaled times.
REFERENCE_S = 0.003
SPAWN_REFERENCE_S = 0.12
_REF_T = np.random.default_rng(0).random((60, 1300))


def reference_kernel() -> float:
    """Seconds one run of the reference kernel takes now."""
    t0 = perf_counter()
    acc = 0
    for k in range(20_000):
        acc += k * k % 7
    t = _REF_T.copy()
    for _ in range(20):
        t -= np.outer(_REF_T[:, 0], _REF_T[0])
    return perf_counter() - t0


_SPAWN_CODE = "import numpy\nacc = 0\nfor k in range(100_000):\n    acc += k * k % 7"


def spawn_reference() -> float:
    """Seconds a fresh interpreter takes now to import numpy and run a loop."""
    t0 = perf_counter()
    subprocess.run([sys.executable, "-c", _SPAWN_CODE], check=True, timeout=60,
                   stdin=subprocess.DEVNULL, stdout=subprocess.DEVNULL)
    return perf_counter() - t0


def _span(tracer, name: str):
    return tracer.span(name) if tracer is not None else nullcontext()


@dataclass
class OpRecord:
    index: int
    label: str
    elapsed: float  # seconds
    prepared: object
    reference: float = 0.0  # reference time just before the op
    scaled: float = 0.0  # elapsed at the host's nominal speed
    result: object = None
    reason: str | None = None  # why the op failed; None when it passed
    extra: dict = field(default_factory=dict)


def run_ops(workload, seconds: float, tracer=None, count: int | None = None,
            min_probed: int = 3) -> tuple[list[OpRecord], float]:
    """Run ops back to back until their summed latency reaches ``seconds``.

    Untraced, the run ends with a complete cycle of the workload's op mix,
    so every run holds the mix in the same proportions; with ``count`` it
    runs exactly that many ops. Traced, it goes on until every label has
    ``min_probed`` probed ops. Input generation, reference timings and
    probes are not timed.

    Returns the records and the summed op latency, the timed window.
    """
    records, busy, i = [], 0.0, 0
    probed = dict.fromkeys(workload.labels, 0)

    def more() -> bool:
        if count is not None:
            return i < count
        if tracer is None:
            return busy < seconds or i % workload.cycle != 0
        return busy < seconds or (min(probed.values()) < min_probed and i < 50 * workload.cycle)

    while more():
        prepared = workload.prepare(i)
        rec = OpRecord(i, workload.label(prepared), 0.0, prepared)
        if tracer is not None:
            tracer.op = i
        rec.reference = workload.reference()
        t0 = perf_counter()
        try:
            with deadline(workload.deadline_s), _span(tracer, "op"):
                rec.result = workload.run(prepared, tracer)
        except Deadline:
            rec.reason = "timeout"
        except FAILURES as exc:
            rec.reason = "solver_error"
            rec.extra["error"] = f"{type(exc).__name__}: {exc}"
        rec.elapsed = perf_counter() - t0
        busy += rec.elapsed
        if tracer is not None and rec.reason is None:
            try:
                with deadline(4 * workload.deadline_s), tracer.span("probe"):
                    workload.probe(prepared, rec.result, tracer)
                tracer.count("probed", 1)
                probed[rec.label] += 1
            except (Deadline, *FAILURES):
                pass
        workload.release(prepared)
        records.append(rec)
        i += 1
    for k, rec in enumerate(records):
        local = median(r.reference for r in records[max(0, k - 3):k + 4])
        rec.scaled = rec.elapsed * workload.reference_s / local
    return records, busy


def check_all(workload, records: list[OpRecord], highs) -> None:
    """Run the oracle on every op that returned; set each failing op's reason."""
    for rec in records:
        if rec.reason is None:
            rec.reason, extra = workload.check(rec.prepared, rec.result, highs)
            rec.extra.update(extra)


def pb_query(dims: pb.Dims, q: gen.Query) -> pb.QuerySpec:
    a, b = q.arms
    if q.kind == "event":
        return pb.build_event_query(dims, {a: q.value, b: {"ge": q.at_least}})
    if q.kind == "moment":
        return pb.build_moment_query(dims, q.order, (a, b))
    return pb.build_posterior_effect_query(dims, (a, b), q.given)


def pb_assumptions(dims: pb.Dims, monotone: gen.Monotone | None, exogeneity: bool) -> pb.AssumptionSet:
    base = pb.preset(monotone.preset(), dims) if monotone is not None else pb.AssumptionSet()
    return base.with_exogeneity(exogeneity)


def _objective(query, dims, obs):
    if query.condition is not None:
        return pb.bind_condition(query, obs)
    return pb.collapse_to_objective(query, dims)


def _ms(seconds: float) -> float:
    return 1e3 * seconds


def _med(values) -> float:
    values = list(values)
    return float(median(values)) if values else 0.0


def _probed(tracer, records, label=None) -> list[dict]:
    per_op = tracer.by_op()
    """Spans and counts of the ops whose probes all completed."""
    return [per_op[r.index] for r in records
            if "probed" in per_op.get(r.index, {}) and (label is None or r.label == label)]


class BoundGrid:
    """One op builds a query and runs one ``bound()`` on a cold, independent instance."""

    name = "bound-grid"
    deadline_s = 2.5
    reference, reference_s = staticmethod(reference_kernel), REFERENCE_S
    cycle = gen.GRID_CYCLE
    labels = tuple(f"{dx}x{dy}" for dx, dy in gen.GRID_DIMS)

    def __init__(self, seed: int, workdir: str):
        self.seed = seed

    def prepare(self, i: int):
        inst = gen.grid_instance(self.seed, i)
        dims = pb.Dims(*inst.dims)
        args = {
            "exp": None if inst.exp is None else pb.ExperimentalMarginals(inst.exp),
            "obs": pb.ObservationalJoint(inst.obs),
            "assumptions": pb_assumptions(dims, inst.monotone, inst.exogeneity),
        }
        return inst, dims, args

    def label(self, prepared) -> str:
        return prepared[0].label

    def run(self, prepared, tracer):
        inst, dims, args = prepared
        with _span(tracer, "queries.build"):
            query = pb_query(dims, inst.query)
        with _span(tracer, "bounds.bound"):
            return pb.bound(dims, query, **args)

    def release(self, prepared) -> None:
        pass

    def check(self, prepared, res, highs):
        inst = prepared[0]
        rows = oracle.build_rows(inst.dims, inst.exp, inst.obs, inst.exogeneity, inst.monotone)
        c = oracle.objective(inst.dims, inst.query, inst.obs)
        witnesses = (res.lower_witness, res.upper_witness) if res.status == "ok" else None
        reason, resid = oracle.check_interval(rows, c, res.status, res.lower, res.upper, witnesses,
                                              truth=inst.truth.reshape(-1), highs=highs)
        return reason, {"witness_residual": resid}

    def probe(self, prepared, res, tracer) -> None:
        inst, dims, args = prepared
        query = pb_query(dims, inst.query)
        with tracer.span("queries.collapse"):
            obj = _objective(query, dims, args["obs"])
        with tracer.span("compile.assemble"):
            cs = pb.assemble_constraints(dims, **args)
        with tracer.span("simplex.check_feasible"):
            feas = pb.check_feasible(cs)
        with tracer.span("simplex.solve"):
            lo = pb.solve(pb.LpProblem(obj, cs, "minimize"))
            hi = pb.solve(pb.LpProblem(obj, cs, "maximize"))
        rows = oracle.build_rows(inst.dims, inst.exp, inst.obs, inst.exogeneity, inst.monotone)
        tracer.count("compile.rows", len(cs))
        tracer.count("compile.rank", rows.rank())
        tracer.count("simplex.phase1_pivots", feas.iterations)
        tracer.count("simplex.solve_pivots", lo.iterations + hi.iterations)

    def layer_metrics(self, tracer, records) -> dict:
        out = {}
        for label in self.labels:
            ops = _probed(tracer, records, label)
            resid = [r.extra.get("witness_residual", 0.0) for r in records if r.label == label]
            for name, unit, value in (
                ("queries.build_ms", "ms", _med(_ms(o["queries.build"] + o["queries.collapse"]) for o in ops)),
                ("compile.assemble_ms", "ms", _med(_ms(o["compile.assemble"]) for o in ops)),
                ("compile.rows", "count", _med(o["compile.rows"] for o in ops)),
                ("compile.rows_independent_frac", "ratio", _med(o["compile.rank"] / o["compile.rows"] for o in ops)),
                ("simplex.phase1_ms", "ms", _med(_ms(o["simplex.check_feasible"]) for o in ops)),
                ("simplex.phase1_pivots", "count", _med(o["simplex.phase1_pivots"] for o in ops)),
                ("simplex.solve_ms", "ms", _med(_ms(o["simplex.solve"]) for o in ops)),
                ("simplex.solve_pivots", "count", _med(o["simplex.solve_pivots"] for o in ops)),
                # solve() runs phase 1 once per sense; its pivot count also
                # holds the pivots that drive zero-level artificials out of
                # the basis, which stay in this figure
                ("simplex.phase2_pivots", "count",
                 _med(o["simplex.solve_pivots"] - 2 * o["simplex.phase1_pivots"] for o in ops)),
                ("simplex.witness_residual_max", "abs", max(resid, default=0.0)),
                ("bounds.bound_ms", "ms", _med(_ms(o["bounds.bound"]) for o in ops)),
                ("bounds.self_ms", "ms",
                 _med(_ms(o["bounds.bound"] - o["queries.collapse"] - o["compile.assemble"]) for o in ops)),
            ):
                out[f"{name}.{label}"] = (value, unit)
        return out


def _full_joint(p: np.ndarray, dx: int) -> dict:
    """Truth as ``SparseJointPO`` entries, in flattened cell order."""
    entries = {}
    for cell in zip(*np.nonzero(p)):
        y_vec, x = tuple(int(v) for v in cell[:dx]), int(cell[dx])
        entries[(y_vec, x, y_vec[x])] = float(p[cell])
    return entries


class Replicates:
    """One op is one ``bootstrap()`` or ``simulation_study()`` call with a fixed B."""

    name = "replicates"
    deadline_s = 10.0
    reference, reference_s = staticmethod(reference_kernel), REFERENCE_S
    cycle = len(gen.REPLICATE_CYCLE)
    labels = tuple(f"{dims[0]}x{dims[1]}" for dims, _, _ in gen.REPLICATE_CASES)

    def __init__(self, seed: int, workdir: str):
        self.seed = seed

    def prepare(self, i: int):
        op = gen.replicate_op(self.seed, i)
        dims = pb.Dims(*op.dims)
        query = pb_query(dims, op.query)
        assumptions = pb_assumptions(dims, op.monotone, op.exogeneity)
        marginals = gen.tables_from_truth(op.truth, *op.dims)
        if op.call == "bootstrap":
            exp_sample = None if op.exp_arms is None else pb.ExperimentalSample(dims, op.exp_arms)
            obs_sample = pb.ObservationalSample(dims, op.obs_records)
            call = (pb.bootstrap, (dims, query, op.replicates, op.op_seed),
                    {"mode": "bound", "exp_sample": exp_sample, "obs_sample": obs_sample, "assumptions": assumptions})
        else:
            truth = pb.SparseJointPO(dims, _full_joint(op.truth, op.dims[0]), "full")
            call = (pb.simulation_study, (truth, op.n, op.replicates, op.op_seed, query),
                    {"mode": "bound", "data_kind": "obs" if op.exogeneity else "both", "assumptions": assumptions})
        return op, dims, query, assumptions, call, marginals

    def label(self, prepared) -> str:
        return prepared[0].label

    def run(self, prepared, tracer):
        fn, args, kwargs = prepared[4]
        with _span(tracer, "estimate.call"):
            return fn(*args, **kwargs)

    def release(self, prepared) -> None:
        pass

    def _tables(self, op, marginals):
        if op.call == "bootstrap":
            return oracle.bootstrap_tables(op.dims, op.op_seed, op.replicates, op.exp_arms, op.obs_records)
        po, xy = marginals
        return oracle.simulation_tables(op.dims, op.op_seed, op.replicates, op.n, po, xy,
                                        not op.exogeneity, True)

    def check(self, prepared, res, highs):
        """Bookkeeping on every op; the HiGHS replay of every replicate on one
        op in three, a different position of the cycle in each cycle, since
        it costs about as much as the op itself."""
        op = prepared[0]
        report = res.to_json_dict()
        if highs is None or op.index % 3 != (op.index // self.cycle) % 3:
            return oracle.check_replication(report, None, ("lower", "upper")), {}
        solved, ambiguous = oracle.bound_replicates(self._tables(op, prepared[5]), op.dims, op.query,
                                                    op.monotone, op.exogeneity, highs)
        return oracle.check_replication(report, solved, ("lower", "upper"), ambiguous), {}

    def probe(self, prepared, res, tracer) -> None:
        op, dims, query, assumptions, call, _ = prepared
        child = np.random.SeedSequence(op.op_seed).spawn(1)[0]  # the first replicate
        exp = None
        with tracer.span("estimate.resample"):
            if op.call == "bootstrap":
                rng = np.random.default_rng(child)
                kw = call[2]
                if kw["exp_sample"] is not None:
                    arms = tuple(a[rng.integers(0, a.size, a.size)] for a in kw["exp_sample"].arms)
                    exp = pb.empirical_experimental(pb.ExperimentalSample(dims, arms))
                rec = kw["obs_sample"].records
                obs = pb.empirical_observational(pb.ObservationalSample(dims, rec[rng.integers(0, len(rec), len(rec))]))
            else:
                truth, grand = call[1][0], child.spawn(2)
                if not op.exogeneity:
                    exp = pb.empirical_experimental(pb.sample_from_truth(truth, op.n, grand[0], "experimental"))
                obs = pb.empirical_observational(pb.sample_from_truth(truth, op.n, grand[1], "observational"))
        args = {"exp": exp, "obs": obs, "assumptions": assumptions}
        with tracer.span("queries.collapse"):
            _objective(query, dims, obs)
        with tracer.span("compile.assemble"):
            cs = pb.assemble_constraints(dims, **args)
        with tracer.span("simplex.check_feasible"):
            feas = pb.check_feasible(cs)
        with tracer.span("bounds.bound"):
            pb.bound(dims, query, **args)
        tracer.count("compile.rows", len(cs))
        tracer.count("simplex.phase1_pivots", feas.iterations)
        tracer.count("estimate.replicates", op.replicates)
        tracer.count("estimate.used", res.used)

    def layer_metrics(self, tracer, records) -> dict:
        ops = _probed(tracer, records)

        def replicate(o):
            return o["estimate.call"] / o["estimate.replicates"]

        rows = (
            ("compile.assemble_ms", "ms", _med(_ms(o["compile.assemble"]) for o in ops)),
            ("compile.rows", "count", _med(o["compile.rows"] for o in ops)),
            ("simplex.phase1_ms", "ms", _med(_ms(o["simplex.check_feasible"]) for o in ops)),
            ("simplex.phase1_pivots", "count", _med(o["simplex.phase1_pivots"] for o in ops)),
            ("bounds.bound_ms", "ms", _med(_ms(o["bounds.bound"]) for o in ops)),
            ("bounds.self_ms", "ms",
             _med(_ms(o["bounds.bound"] - o["queries.collapse"] - o["compile.assemble"]) for o in ops)),
            ("estimate.call_ms", "ms", _med(_ms(o["estimate.call"]) for o in ops)),
            ("estimate.replicate_ms", "ms", _med(_ms(replicate(o)) for o in ops)),
            ("estimate.resample_ms", "ms", _med(_ms(o["estimate.resample"]) for o in ops)),
            ("estimate.bound_ms", "ms", _med(_ms(o["bounds.bound"]) for o in ops)),
            ("estimate.self_ms", "ms",
             _med(_ms(replicate(o) - o["estimate.resample"] - o["bounds.bound"]) for o in ops)),
            ("estimate.used_frac", "ratio",
             sum(o["estimate.used"] for o in ops) / max(1.0, sum(o["estimate.replicates"] for o in ops))),
        )
        return {f"{name}.{self.name}": (value, unit) for name, unit, value in rows}


CLI_MAIN = "import sys; from pobounds.cli import main; sys.exit(main())"


def _write_records(path: str, header: str, records: np.ndarray) -> None:
    with open(path, "w") as fh:
        fh.write(header + "\n")
        fh.write("\n".join(f"{a},{b}" for a, b in records.tolist()))
        fh.write("\n")


def _frequencies(records: np.ndarray, dx: int, dy: int, per_row: bool) -> np.ndarray:
    counts = np.zeros((dx, dy))
    np.add.at(counts, (records[:, 0], records[:, 1]), 1.0)
    return counts / (counts.sum(axis=1, keepdims=True) if per_row else counts.sum())


class CliRecords:
    """One op is one ``pobounds`` process on raw-record CSV files, one at a time."""

    name = "cli-records"
    deadline_s = 20.0
    reference, reference_s = staticmethod(spawn_reference), SPAWN_REFERENCE_S
    cycle = len(gen.CLI_CYCLE)
    labels = gen.CLI_CYCLE[:2]

    def __init__(self, seed: int, workdir: str, src: str):
        self.seed = seed
        self.workdir = workdir
        self.env = dict(os.environ, PYTHONPATH=src)
        self.peak_kb = 0

    def prepare(self, i: int):
        op = gen.cli_op(self.seed, i)
        d = os.path.join(self.workdir, f"op{i}")
        os.makedirs(d)
        paths = {name: os.path.join(d, name) for name in ("exp.csv", "obs.csv", "query.json", "out.json", "err.txt")}
        _write_records(paths["exp.csv"], "arm,y", op.exp_records)
        with open(paths["query.json"], "w") as fh:
            json.dump(op.query.to_json(), fh)
        dims = f"{gen.CLI_DIMS[0]},{gen.CLI_DIMS[1]}"
        argv = [op.command, "--dims", dims, "--exp", paths["exp.csv"], "--query", paths["query.json"]]
        if op.command == "identify":
            argv += ["--bootstrap", str(gen.CLI_BOOTSTRAP), "--seed", str(op.op_seed)]
        else:
            _write_records(paths["obs.csv"], "x,y", op.obs_records)
            argv += ["--obs", paths["obs.csv"], "--assume", op.monotone.preset(), "--witnesses"]
        return op, paths, argv

    def label(self, prepared) -> str:
        return prepared[0].command

    def run(self, prepared, tracer):
        _, paths, argv = prepared
        with _span(tracer, "cli.process"), open(paths["err.txt"], "w") as err:
            # SIGALRM stays blocked until the child has a handle to kill
            mask = signal.pthread_sigmask(signal.SIG_BLOCK, {signal.SIGALRM})
            try:
                proc = subprocess.Popen([sys.executable, "-c", CLI_MAIN, *argv, "--out", paths["out.json"]],
                                        env=self.env, stdin=subprocess.DEVNULL, stdout=subprocess.DEVNULL,
                                        stderr=err)
            except BaseException:
                signal.pthread_sigmask(signal.SIG_SETMASK, mask)
                raise
            try:
                signal.pthread_sigmask(signal.SIG_SETMASK, mask)
                _, status, usage = os.wait4(proc.pid, 0)
            except BaseException:
                proc.kill()
                os.wait4(proc.pid, 0)
                proc.returncode = -signal.SIGKILL
                raise
        proc.returncode = os.waitstatus_to_exitcode(status)
        self.peak_kb = max(self.peak_kb, usage.ru_maxrss)
        # exit 2 with a report is an infeasibility report, judged by the oracle
        if proc.returncode not in (0, 2) or not os.path.exists(paths["out.json"]):
            with open(paths["err.txt"]) as fh:
                raise OpFailed(f"exit {proc.returncode}: {fh.read().strip()[-300:]}")
        with open(paths["out.json"]) as fh:
            return json.load(fh)

    def release(self, prepared) -> None:
        for path in prepared[1].values():
            if os.path.exists(path):
                os.remove(path)
        os.rmdir(os.path.dirname(prepared[1]["out.json"]))

    def check(self, prepared, report, highs):
        op = prepared[0]
        dims = gen.CLI_DIMS
        exp = _frequencies(op.exp_records, *dims, per_row=True)
        if op.command == "bound":
            obs = _frequencies(op.obs_records, *dims, per_row=False)
            rows = oracle.build_rows(dims, exp, obs, False, op.monotone)
            c = oracle.objective(dims, op.query, obs)
            ok = report["status"] == "ok"
            witnesses = tuple(np.asarray(report["witnesses"][k]) for k in ("lower", "upper")) if ok else None
            reason, resid = oracle.check_interval(rows, c, report["status"], report.get("lower"),
                                                  report.get("upper"), witnesses, highs=highs)
            return reason, {"witness_residual": resid}
        value = oracle.identified_value(dims, exp, op.query)
        if value is None or abs(value - report["estimate"]) > oracle.SHARP_TOL * max(1.0, abs(value)):
            return "wrong_answer", {}
        arms = tuple(op.exp_records[op.exp_records[:, 0] == k, 1] for k in range(dims[0]))
        solved = []
        for exp_r, _ in oracle.bootstrap_tables(dims, op.op_seed, gen.CLI_BOOTSTRAP, arms, None):
            v = oracle.identified_value(dims, exp_r, op.query)
            solved.append(None if v is None else (v,))
        return oracle.check_replication(report["bootstrap"], solved, ("estimate",)), {}

    def probe(self, prepared, report, tracer) -> None:
        op, paths, argv = prepared
        dims = pb.Dims(*gen.CLI_DIMS)
        with tracer.span("cli.main"):
            code = pb_cli.main([*argv, "--out", paths["out.json"]])
        if code not in (0, 2):
            raise OpFailed(f"in-process cli.main exit {code}")
        with tracer.span("cli.ingest"):
            sample, exp = pb_cli.load_experimental(paths["exp.csv"], dims)
            if op.obs_records is not None:
                pb_cli.load_observational(paths["obs.csv"], dims)
        rows = len(op.exp_records) + (0 if op.obs_records is None else len(op.obs_records))
        tracer.count("cli.ingest_rows", rows)
        if op.command != "identify":
            return
        query, _ = pb_cli.load_query(paths["query.json"], dims)
        with tracer.span("identify.identify"):
            joint = pb.identify_experimental(exp)
        with tracer.span("identify.evaluate"):
            pb.evaluate(joint, query)
        with tracer.span("estimate.call"):
            pb.bootstrap(dims, query, gen.CLI_BOOTSTRAP, op.op_seed, mode="identify", exp_sample=sample)
        with tracer.span("estimate.resample"):
            rng = np.random.default_rng(np.random.SeedSequence(op.op_seed).spawn(1)[0])
            arms = tuple(a[rng.integers(0, a.size, a.size)] for a in sample.arms)
            pb.empirical_experimental(pb.ExperimentalSample(dims, arms))
        tracer.count("estimate.replicates", gen.CLI_BOOTSTRAP)

    def layer_metrics(self, tracer, records) -> dict:
        ops = _probed(tracer, records)
        ident = [o for o in ops if "identify.identify" in o]

        def replicate(o):
            return o["estimate.call"] / o["estimate.replicates"]

        rows = (
            ("cli.process_ms", "ms", _med(_ms(o["cli.process"]) for o in ops)),
            ("cli.main_ms", "ms", _med(_ms(o["cli.main"]) for o in ops)),
            ("cli.startup_ms", "ms", _med(_ms(o["cli.process"] - o["cli.main"]) for o in ops)),
            ("cli.ingest_ms", "ms", _med(_ms(o["cli.ingest"]) for o in ops)),
            ("cli.ingest_rows_per_s", "1/s", _med(o["cli.ingest_rows"] / o["cli.ingest"] for o in ops)),
            ("identify.identify_ms", "ms", _med(_ms(o["identify.identify"]) for o in ident)),
            ("identify.evaluate_ms", "ms", _med(_ms(o["identify.evaluate"]) for o in ident)),
            ("estimate.call_ms", "ms", _med(_ms(o["estimate.call"]) for o in ident)),
            ("estimate.replicate_ms", "ms", _med(_ms(replicate(o)) for o in ident)),
            ("estimate.resample_ms", "ms", _med(_ms(o["estimate.resample"]) for o in ident)),
            ("estimate.self_ms", "ms", _med(_ms(replicate(o) - o["estimate.resample"] - o["identify.identify"]
                                                - o["identify.evaluate"]) for o in ident)),
        )
        return {f"{name}.{self.name}": (value, unit) for name, unit, value in rows}
