"""Command-line front end: data ingestion, dispatch, JSON reports.

Exit codes: 0 ok, 1 usage or data error, 2 infeasible system, 3 data
incompatible with the identification assumption.
"""

from __future__ import annotations

import argparse
import contextlib
import csv
import json
import os
import re
import sys
import warnings
from typing import Any, NoReturn

import numpy as np

from . import bounds as bounds_mod
from . import estimate as estimate_mod
from . import identify as identify_mod
from .compile import preset
from .errors import (
    BootstrapFailureError,
    ConfigError,
    MalformedValueError,
    MiteIncompatibleError,
    PoboundsError,
    ValidationError,
)
from .model import (
    AssumptionSet,
    Dims,
    ExperimentalMarginals,
    MonotoneTerm,
    ObservationalJoint,
    QuerySpec,
    SparseJointPO,
    as_integer,
    as_number,
    scatter_cells,
)
from .queries import (
    build_conditional_query,
    build_event_query,
    build_moment_query,
    build_posterior_effect_query,
)

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_INFEASIBLE = 2
EXIT_MITE = 3


def _parse_dims(text: str) -> Dims:
    try:
        d_x, d_y = (int(part) for part in text.split(","))
    except ValueError:
        raise ConfigError(f"--dims expects 'dX,dY', got {text!r}")
    return Dims(d_x, d_y)


def _read_json(path: str) -> Any:
    try:
        with open(path, encoding="utf-8") as fh:
            return json.load(fh)
    except (json.JSONDecodeError, UnicodeDecodeError) as exc:
        raise ValidationError(f"{path}: malformed JSON: {exc}")


@contextlib.contextmanager
def _reading(path: str):
    """Re-raise a missing key or a malformed value met while reading ``path``
    as a ValidationError naming it; the package's other errors pass unchanged."""
    try:
        yield
    except MalformedValueError as exc:
        raise ValidationError(f"{path}: malformed value: {exc}") from None
    except PoboundsError:
        raise
    except KeyError as exc:
        raise ValidationError(f"{path}: missing key {exc}") from None
    except (AttributeError, TypeError, ValueError) as exc:
        raise ValidationError(f"{path}: malformed value: {exc}") from None


def _key_integer(key: str, what: str) -> int:
    """A JSON object key that spells an integer, such as ``"2"``."""
    if not _INTEGER.fullmatch(key):
        raise TypeError(f"{what} {key!r} is not an integer")
    return int(key)


def _read_json_object(path: str) -> dict:
    data = _read_json(path)
    if not isinstance(data, dict):
        raise ValidationError(f"{path}: expected a JSON object at the top level, got {type(data).__name__}")
    return data


# one data field: optional sign and ASCII digits, as numpy's integer parser
# reads it (Python's int() also takes "1_000" and non-ASCII digits)
_INTEGER = re.compile(r"[+-]?[0-9]+")


def _read_csv_records(path: str, columns: tuple[str, str], limits: tuple[int, int]) -> np.ndarray:
    """The ``(rows, 2)`` int64 records under a ``columns`` header.

    The body is parsed in one pass by numpy's C reader and its ranges are
    checked in one comparison.  Only a bad file is read again, row by row,
    so that the error names the first bad data row and its column.
    """
    try:
        with open(path, newline="", encoding="utf-8") as fh:
            header = next(csv.reader(fh), None)
            if header is None or [c.strip() for c in header] != list(columns):
                raise ValidationError(f"{path}: expected header '{','.join(columns)}', got {header}")
            try:
                with warnings.catch_warnings():
                    warnings.filterwarnings("ignore", "loadtxt: input contained no data", UserWarning)
                    records = np.loadtxt(
                        fh, delimiter=",", dtype=np.int64, ndmin=2, comments=None, quotechar='"'
                    )
            except ValueError as exc:
                _raise_first_bad_row(path, columns, limits, str(exc))
    except UnicodeDecodeError as exc:
        raise ValidationError(f"{path}: not valid UTF-8 text ({exc.reason})") from None
    if records.shape[0] == 0:
        return np.empty((0, 2), dtype=np.int64)
    if records.shape[1] != 2 or ((records < 0) | (records >= np.asarray(limits))).any():
        _raise_first_bad_row(path, columns, limits, "a field count other than 2 or a value out of range")
    return records


def _raise_first_bad_row(path: str, columns: tuple[str, str], limits: tuple[int, int], reason: str) -> NoReturn:
    """Re-read the file row by row and raise for the first bad data row;
    ``reason`` is why the bulk parse refused the file."""
    with open(path, newline="", encoding="utf-8") as fh:
        reader = csv.reader(fh)
        next(reader)  # the header, already checked
        rows = (row for row in reader if row)
        for rowno, row in enumerate(rows, start=1):
            if len(row) > len(columns):
                raise ValidationError(
                    f"{path}: row {rowno}: expected 2 fields ({','.join(columns)}), got {len(row)}"
                )
            row += [""] * (len(columns) - len(row))
            for col, limit, field in zip(columns, limits, row):
                raw = field.strip()
                if not _INTEGER.fullmatch(raw):
                    raise ValidationError(f"{path}: row {rowno}: {col}={raw!r} is not an integer")
                v = int(raw)
                if not 0 <= v < limit:
                    raise ValidationError(f"{path}: row {rowno}: {col}={v} outside [0, {limit})")
    raise ValidationError(f"{path}: unreadable records: {reason}")


def _load_table(path: str, dims: Dims, kind):
    """A ``kind`` table from a JSON matrix, bare or under ``"table"``, whose
    shape must match ``dims``."""
    data = _read_json(path)
    if isinstance(data, dict) and "table" in data:
        data = data["table"]
    with _reading(path):
        entries = np.asarray(data, dtype=object)
        table = np.array([as_number(v, "table entry") for v in entries.flat]).reshape(entries.shape)
    dist = kind(table)
    if dist.dims != dims:
        raise ValidationError(f"{path}: table shape {table.shape} does not match --dims")
    return dist


def load_experimental(path: str, dims: Dims):
    """Returns (sample or None, marginals). CSV gives raw records (header
    ``arm,y``); JSON gives a pre-aggregated d_x-by-d_y matrix."""
    if path.endswith(".csv"):
        rec = _read_csv_records(path, ("arm", "y"), (dims.d_x, dims.d_y))
        arms = tuple(rec[rec[:, 0] == k, 1] for k in range(dims.d_x))
        sample = estimate_mod.ExperimentalSample(dims, arms)
        return sample, estimate_mod.empirical_experimental(sample)
    return None, _load_table(path, dims, ExperimentalMarginals)


def load_observational(path: str, dims: Dims):
    """Returns (sample or None, joint). CSV header is ``x,y``."""
    if path.endswith(".csv"):
        rec = _read_csv_records(path, ("x", "y"), (dims.d_x, dims.d_y))
        sample = estimate_mod.ObservationalSample(dims, rec)
        return sample, estimate_mod.empirical_observational(sample)
    return None, _load_table(path, dims, ObservationalJoint)


def load_assumptions(source: str | None, dims: Dims) -> AssumptionSet:
    """``source`` is a preset name (possibly with arguments) or a JSON file."""
    if source is None:
        return AssumptionSet()
    with _reading(source):
        if not os.path.exists(source):
            return preset(source, dims)
        data = _read_json_object(source)
        exogeneity = data.get("exogeneity", False)
        if not isinstance(exogeneity, bool):
            raise TypeError(f"exogeneity {exogeneity!r} is not true or false")
        if "preset" in data:
            try:
                out = preset(data["preset"], dims)
            except ConfigError as exc:
                raise ConfigError(f"{source}: {exc}") from None
            return out.with_exogeneity() if exogeneity else out
        terms = []
        for t in data.get("terms", []):
            pairs = {}
            for p in t.get("pairs", []):
                lo = -np.inf if p.get("lower") is None else as_number(p["lower"], "lower")
                hi = np.inf if p.get("upper") is None else as_number(p["upper"], "upper")
                pairs[(as_integer(p["s"], "pair s"), as_integer(p["t"], "pair t"))] = (lo, hi)
            window = [as_number(t.get(end, 1.0), end) for end in ("prob_lower", "prob_upper")]
            try:
                terms.append(MonotoneTerm.from_pairs(dims.d_x, pairs, *window))
            except ValidationError as exc:
                raise ValidationError(f"{source}: {exc}") from None
        return AssumptionSet(tuple(terms), exogeneity)


def load_query(path: str, dims: Dims) -> tuple[QuerySpec, Any]:
    """Build a query from its JSON description; returns (query, raw spec)."""
    data = _read_json_object(path)
    kind = data.get("kind")
    with _reading(path):
        given = data.get("given")
        given_pair = (as_integer(given["x"], "given x"), as_integer(given["y"], "given y")) if given else None
        if kind == "event":
            po = {_key_integer(k, "po key"): v for k, v in (data.get("po") or {}).items()}
            x, y = (None if data.get(k) is None else as_integer(data[k], k) for k in ("x", "y"))
            if given_pair is not None:
                q = build_conditional_query(dims, po, given_pair, x=x, y=y)
            else:
                q = build_event_query(dims, po, x=x, y=y)
        elif kind == "moment":
            arms = tuple(as_integer(a, "arm") for a in data["arms"])
            q = build_moment_query(dims, as_integer(data["order"], "order"), arms)
        elif kind == "posterior_effect":
            if given_pair is None:
                raise ValidationError(f"{path}: posterior_effect queries need a 'given' pair")
            arms = tuple(as_integer(a, "arm") for a in data["arms"])
            q = build_posterior_effect_query(dims, arms, given_pair)
        elif kind == "raw":
            cells = data["cells"]
            y_vecs = [tuple(as_integer(v, "level") for v in cell["y_vec"]) for cell in cells]
            xy = [(as_integer(cell["x"], "level"), as_integer(cell["y"], "level")) for cell in cells]
            coeffs = scatter_cells(dims, y_vecs, [as_number(cell["coeff"], "coeff") for cell in cells], xy)
            q = QuerySpec(coeffs, given_pair)
            q.validate(dims)
        else:
            raise ValidationError(f"{path}: unknown query kind {kind!r}")
    return q, data


def load_truth(path: str) -> SparseJointPO:
    data = _read_json_object(path)
    with _reading(path):
        truth = SparseJointPO.from_json_dict(data)
    if truth.space != "full":
        raise ValidationError(f"{path}: simulation truth must live on the full (y_vec, x, y) space")
    bad = truth.consistency_violations()
    if bad:
        raise ValidationError(f"{path}: truth violates consistency: " + "; ".join(bad))
    return truth


def _emit(report: dict, out_path: str | None) -> None:
    text = json.dumps(report, indent=2, sort_keys=True) + "\n"
    if out_path:
        with open(out_path, "w") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def _bootstrap_block(args, dims, query, assumptions, mode, exp_sample, obs_sample):
    if (args.exp and exp_sample is None) or (args.obs and obs_sample is None):
        raise ConfigError("--bootstrap needs raw-record CSV inputs, not pre-aggregated tables")
    result = estimate_mod.bootstrap(
        dims,
        query,
        replicates=args.bootstrap,
        seed=args.seed,
        mode=mode,
        exp_sample=exp_sample,
        obs_sample=obs_sample,
        assumptions=assumptions,
        slack=getattr(args, "slack", None),
    )
    return result.to_json_dict()


def _load_data(args, dims: Dims):
    """The samples and tables that --exp and --obs name; None where a flag is absent."""
    exp_sample, exp = load_experimental(args.exp, dims) if args.exp else (None, None)
    obs_sample, obs = load_observational(args.obs, dims) if args.obs else (None, None)
    return exp_sample, exp, obs_sample, obs


def _report_head(args, query_raw: Any) -> dict:
    """The command, the echo of its parsed flags and the query as given."""
    config = {k: v for k, v in sorted(vars(args).items()) if k != "func"}
    return {"command": args.command, "config": config, "query": query_raw}


def _load_model(args, dims: Dims) -> tuple[AssumptionSet, QuerySpec, dict]:
    """The --assume set or-ed with --exogeneity, the --query, and the report
    head with the assumptions."""
    assumptions = load_assumptions(args.assume, dims)
    if args.exogeneity:
        assumptions = assumptions.with_exogeneity()
    query, query_raw = load_query(args.query, dims)
    return assumptions, query, {**_report_head(args, query_raw), "assumptions": assumptions.to_json_dict()}


def cmd_bound(args) -> int:
    dims = _parse_dims(args.dims)
    if not args.exp and not args.obs:
        raise ConfigError("need --exp and/or --obs")
    exp_sample, exp, obs_sample, obs = _load_data(args, dims)
    assumptions, query, report = _load_model(args, dims)
    result = bounds_mod.bound(dims, query, exp=exp, obs=obs, assumptions=assumptions, slack=args.slack)
    report.update(result.to_json_dict(include_witnesses=args.witnesses))
    ok = result.status == "ok"
    if ok and args.bootstrap:
        report["bootstrap"] = _bootstrap_block(args, dims, query, assumptions, "bound", exp_sample, obs_sample)
    _emit(report, args.out)
    return EXIT_OK if ok else EXIT_INFEASIBLE


def cmd_identify(args) -> int:
    dims = _parse_dims(args.dims)
    if bool(args.exp) == bool(args.obs):
        raise ConfigError("identification needs exactly one of --exp or --obs")
    query, query_raw = load_query(args.query, dims)
    report = _report_head(args, query_raw)
    if args.obs:
        print("note: observational identification assumes treatment exogeneity", file=sys.stderr)
    exp_sample, exp, obs_sample, obs = _load_data(args, dims)
    joint = identify_mod.identify_experimental(exp) if args.exp else identify_mod.identify_observational(obs)
    report.update(status="ok", estimate=identify_mod.evaluate(joint, query, obs=obs))
    if args.joint:
        report["joint"] = joint.to_json_dict()
    if args.bootstrap:
        report["bootstrap"] = _bootstrap_block(args, dims, query, None, "identify", exp_sample, obs_sample)
    _emit(report, args.out)
    return EXIT_OK


def cmd_simulate(args) -> int:
    truth = load_truth(args.truth)
    assumptions, query, report = _load_model(args, truth.dims)
    result = estimate_mod.simulation_study(
        truth,
        n=args.n,
        reps=args.reps,
        seed=args.seed,
        query=query,
        mode=args.mode,
        data_kind=args.data,
        assumptions=assumptions,
        slack=args.slack,
    )
    report.update({"status": "ok", **result.to_json_dict()})
    _emit(report, args.out)
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="pobounds",
        description="Sharp bounds and identification for joint potential-outcome probabilities.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    # each flag that several subcommands take is declared once, in a parent parser
    data = argparse.ArgumentParser(add_help=False)
    data.add_argument("--dims", required=True, help="treatment,outcome level counts, e.g. 3,3")
    data.add_argument("--exp", help="experimental data: CSV (arm,y) or JSON matrix")
    data.add_argument("--obs", help="observational data: CSV (x,y) or JSON matrix")
    data.add_argument("--bootstrap", type=int, default=0, metavar="B",
                      help="bootstrap replicates of the raw-record CSV inputs")
    model = argparse.ArgumentParser(add_help=False)
    model.add_argument("--assume", help="assumption preset name or JSON file")
    model.add_argument("--exogeneity", action="store_true",
                       help="add exogeneity constraints (needs observational data)")
    model.add_argument("--slack", type=float, default=None, metavar="EPS",
                       help="relax data equalities to |row-rhs| <= EPS")
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--query", required=True, help="query JSON file")
    common.add_argument("--seed", type=int, default=0, help="seed of all random draws")
    common.add_argument("--out", help="write the JSON report here instead of stdout")

    p_bound = sub.add_parser("bound", parents=[data, model, common], help="solve the min/max programs for a query")
    p_bound.add_argument("--witnesses", action="store_true", help="include achieving parameter vectors")
    p_bound.set_defaults(func=cmd_bound)

    p_ident = sub.add_parser("identify", parents=[data, common],
                             help="closed-form point identification; --obs assumes exogeneity")
    p_ident.add_argument("--joint", action="store_true", help="include the identified joint in the report")
    p_ident.set_defaults(func=cmd_identify)

    p_sim = sub.add_parser("simulate", parents=[model, common], help="sample -> estimate -> bound/identify loop")
    p_sim.add_argument("--truth", required=True, help="ground-truth joint JSON")
    p_sim.add_argument("--n", type=int, required=True, help="sample size (per arm for experimental)")
    p_sim.add_argument("--reps", type=int, required=True)
    p_sim.add_argument("--mode", choices=["bound", "identify"], default="bound")
    p_sim.add_argument("--data", choices=["exp", "obs", "both"], default="both")
    p_sim.set_defaults(func=cmd_simulate)
    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return EXIT_OK if exc.code in (0, None) else EXIT_USAGE
    try:
        return args.func(args)
    except MiteIncompatibleError as exc:
        report = {
            "command": args.command,
            "status": "mite-incompatible",
            "violations": [{"cell": name, "mass": mass} for name, mass in exc.violations],
        }
        _emit(report, args.out)
        return EXIT_MITE
    except (PoboundsError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INFEASIBLE if isinstance(exc, BootstrapFailureError) else EXIT_USAGE


if __name__ == "__main__":
    sys.exit(main())
