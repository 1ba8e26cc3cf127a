import csv
import json
import warnings

import numpy as np
import pytest

import pobounds as pb
from pobounds.cli import _read_csv_records, main
from pobounds.errors import ValidationError

from oracles import outcome_vectors, rare_arm_tables


def write_json(path, payload):
    path.write_text(json.dumps(payload))
    return str(path)


def exp_json(tmp_path, truth, name="exp.json"):
    return write_json(tmp_path / name, {"table": truth.po_marginals().table.tolist()})


def obs_json(tmp_path, truth, name="obs.json"):
    return write_json(tmp_path / name, {"table": truth.xy_marginal().table.tolist()})


def exp_csv(tmp_path, truth, n, seed, name="exp.csv"):
    sample = pb.sample_from_truth(truth, n, seed, "experimental")
    lines = ["arm,y"] + [f"{k},{y}" for k, arm in enumerate(sample.arms) for y in arm]
    (tmp_path / name).write_text("\n".join(lines) + "\n")
    return str(tmp_path / name)


def obs_csv(tmp_path, truth, n, seed, name="obs.csv"):
    sample = pb.sample_from_truth(truth, n, seed, "observational")
    lines = ["x,y"] + [f"{x},{y}" for x, y in sample.records]
    (tmp_path / name).write_text("\n".join(lines) + "\n")
    return str(tmp_path / name)


def event_query(tmp_path, name="query.json"):
    return write_json(tmp_path / name, {"kind": "event", "po": {"0": 0, "1": 0, "2": 1}})


def run(capsys, argv):
    code = main(argv)
    out = capsys.readouterr().out
    return code, json.loads(out) if out.strip() else None


def test_bound_golden_mtr(tmp_path, capsys, truth_a):
    code, report = run(capsys, [
        "bound", "--dims", "3,3",
        "--exp", exp_json(tmp_path, truth_a),
        "--obs", obs_json(tmp_path, truth_a),
        "--assume", "mtr",
        "--query", event_query(tmp_path),
    ])
    assert code == 0
    assert report["status"] == "ok"
    assert report["upper"] == pytest.approx(0.167, abs=0.01)
    assert report["lower"] == pytest.approx(0.0, abs=1e-9)


def test_bound_assume_file_and_witnesses(tmp_path, capsys, truth_a):
    assume = write_json(tmp_path / "assume.json", {
        "terms": [{"prob_lower": 0.95, "prob_upper": 1.0,
                   "pairs": [{"s": 1, "t": 0, "lower": 0, "upper": None},
                             {"s": 2, "t": 1, "lower": 0, "upper": None}]}],
    })
    code, report = run(capsys, [
        "bound", "--dims", "3,3",
        "--exp", exp_json(tmp_path, truth_a),
        "--obs", obs_json(tmp_path, truth_a),
        "--assume", assume,
        "--query", event_query(tmp_path),
        "--witnesses",
    ])
    assert code == 0
    w = np.array(report["witnesses"]["upper"])
    assert len(w) == 81 and w.sum() == pytest.approx(1.0, abs=1e-8)


def test_bound_contradictory_assumptions_exit_2(tmp_path, capsys):
    exp = write_json(tmp_path / "exp.json", {"table": [[0.0, 1.0], [1.0, 0.0]]})
    q = write_json(tmp_path / "q.json", {"kind": "event", "po": {"0": 0}})
    code, report = run(capsys, [
        "bound", "--dims", "2,2", "--exp", exp, "--assume", "mtr", "--query", q,
    ])
    assert code == 2
    assert report["status"] == "infeasible"
    assert any(tag.startswith("monotone") for tag in report["diagnostics"])


def test_bound_bootstrap_reports_are_reproducible(tmp_path, capsys, truth_a):
    argv = [
        "bound", "--dims", "3,3",
        "--exp", exp_csv(tmp_path, truth_a, 200, seed=1),
        "--query", event_query(tmp_path),
        "--bootstrap", "50", "--seed", "7",
    ]
    code1 = main(argv)
    out1 = capsys.readouterr().out
    code2 = main(argv)
    out2 = capsys.readouterr().out
    assert code1 == code2 == 0
    assert out1 == out2
    report = json.loads(out1)
    assert report["bootstrap"]["used"] + report["bootstrap"]["excluded"] == 50


def test_bound_bootstrap_rejects_aggregated_tables(tmp_path, capsys, truth_a):
    code, _ = run(capsys, [
        "bound", "--dims", "3,3",
        "--exp", exp_json(tmp_path, truth_a),
        "--query", event_query(tmp_path),
        "--bootstrap", "10",
    ])
    assert code == 1


def test_bound_bootstrap_with_every_replicate_excluded_exits_2(tmp_path, capsys):
    # the one (1,1) record is missed by the seed-0 resample, which leaves
    # P(X=1, Y=1) = 0 and the posterior effect undefined
    obs = tmp_path / "obs.csv"
    obs.write_text("x,y\n" + "0,0\n" * 40 + "0,1\n" * 40 + "1,0\n" * 19 + "1,1\n")
    q = write_json(tmp_path / "q.json", {"kind": "posterior_effect", "arms": [1, 0], "given": {"x": 1, "y": 1}})
    argv = ["bound", "--dims", "2,2", "--obs", str(obs), "--query", q, "--bootstrap", "1", "--seed", "0"]
    assert main(argv) == 2
    assert capsys.readouterr() == ("", "error: all 1 bootstrap replicates were excluded\n")


def test_bound_requires_data(tmp_path, capsys):
    code, _ = run(capsys, ["bound", "--dims", "2,2", "--query", event_query(tmp_path)])
    assert code == 1


def test_conditional_query_needs_obs(tmp_path, capsys, truth_a):
    q = write_json(tmp_path / "q.json", {
        "kind": "posterior_effect", "arms": [1, 0], "given": {"x": 2, "y": 2},
    })
    code, _ = run(capsys, [
        "bound", "--dims", "3,3", "--exp", exp_json(tmp_path, truth_a), "--query", q,
    ])
    assert code == 1


def test_identify_obs_golden(tmp_path, capsys, truth_b):
    q = write_json(tmp_path / "q.json", {
        "kind": "posterior_effect", "arms": [1, 0], "given": {"x": 2, "y": 2},
    })
    code, report = run(capsys, [
        "identify", "--dims", "3,3", "--obs", obs_json(tmp_path, truth_b), "--query", q,
    ])
    assert code == 0
    assert report["estimate"] == pytest.approx(1 / 3, abs=1e-9)


def test_identify_incompatible_exit_3(tmp_path, capsys):
    exp = write_json(tmp_path / "exp.json", {"table": [[0.0, 1.0], [1.0, 0.0]]})
    q = write_json(tmp_path / "q.json", {"kind": "event", "po": {"0": 0}})
    code, report = run(capsys, ["identify", "--dims", "2,2", "--exp", exp, "--query", q])
    assert code == 3
    assert report["status"] == "mite-incompatible"
    assert report["violations"]


def test_identify_uniform_marginals_flat_chains(tmp_path, capsys):
    exp = write_json(tmp_path / "exp.json", {"table": [[0.5, 0.5], [0.5, 0.5]]})
    q = write_json(tmp_path / "q.json", {"kind": "event", "po": {}})
    code, report = run(capsys, [
        "identify", "--dims", "2,2", "--exp", exp, "--query", q, "--joint",
    ])
    assert code == 0
    chains = [tuple(cell["y_vec"]) for cell in report["joint"]["cells"]]
    assert set(chains) == {(0, 0), (1, 1)}


def test_identify_rejects_both_sources(tmp_path, capsys, truth_b):
    q = event_query(tmp_path)
    code, _ = run(capsys, [
        "identify", "--dims", "3,3",
        "--exp", exp_json(tmp_path, truth_b),
        "--obs", obs_json(tmp_path, truth_b),
        "--query", q,
    ])
    assert code == 1


def reference_read_csv_records(path, columns, limits):
    """The per-row ``csv.DictReader`` loop the bulk reader replaced, kept as
    the reference on valid files."""
    with open(path, newline="") as fh:
        reader = csv.DictReader(fh)
        if reader.fieldnames is None or [c.strip() for c in reader.fieldnames] != list(columns):
            raise ValidationError(f"{path}: expected header '{','.join(columns)}', got {reader.fieldnames}")
        records = []
        for rowno, row in enumerate(reader, start=1):
            values = []
            for col, limit in zip(columns, limits):
                raw = (row.get(col) or "").strip()
                try:
                    v = int(raw)
                except ValueError:
                    raise ValidationError(f"{path}: row {rowno}: {col}={raw!r} is not an integer")
                if not 0 <= v < limit:
                    raise ValidationError(f"{path}: row {rowno}: {col}={v} outside [0, {limit})")
                values.append(v)
            records.append(values)
    return np.asarray(records, dtype=int).reshape(-1, 2)


def random_records_csv(path, header, limits, rng):
    """A valid raw-record file in a randomly drawn layout: line ending, blank
    lines, spaces and quotes around fields, trailing newline or not; about
    one file in eight has no data rows."""
    eol = str(rng.choice(["\n", "\r\n"]))
    n = 0 if rng.random() < 0.125 else int(rng.integers(1, 200))
    lines = [header]
    for _ in range(n):
        if rng.random() < 0.1:
            lines.append("")
        fields = []
        for limit in limits:
            v = str(rng.integers(0, limit))
            if rng.random() < 0.2:
                v = " " * int(rng.integers(1, 3)) + v + " " * int(rng.integers(0, 3))
            if rng.random() < 0.2:
                # a quote opens only at the start of a field; spaces may follow it
                v = f'"{v}"' + " " * int(rng.integers(0, 2))
            fields.append(v)
        lines.append(",".join(fields))
    text = eol.join(lines) + (eol if rng.random() < 0.8 else "")
    path.write_bytes(text.encode())
    return str(path)


def test_csv_reader_matches_row_by_row_reference(tmp_path):
    rng = np.random.default_rng(20)
    limits = (3, 4)
    for i in range(120):
        header = str(rng.choice(["arm,y", "x,y", '"x","y"']))
        columns = ("arm", "y") if header == "arm,y" else ("x", "y")
        path = random_records_csv(tmp_path / f"r{i}.csv", header, limits, rng)
        expected = reference_read_csv_records(path, columns, limits)
        got = _read_csv_records(path, columns, limits)
        assert got.dtype == expected.dtype and got.shape == expected.shape
        assert np.array_equal(got, expected), path


def test_csv_ingestion_and_row_errors(tmp_path, capsys):
    q = write_json(tmp_path / "q.json", {"kind": "event", "po": {"0": 0}})
    reports = []
    for i, header in enumerate(["x,y", " x , y "]):
        good = tmp_path / f"good{i}.csv"
        good.write_text(header + "\n0,1\n1,0\n")
        code, report = run(capsys, [
            "bound", "--dims", "2,2", "--obs", str(good), "--query", q,
        ])
        assert code == 0
        reports.append({k: v for k, v in report.items() if k != "config"})
    assert reports[0] == reports[1]

    bad_bodies = [
        ("0,5\n", "row 1: y=5 outside [0, 3)"),
        ("0,1\n1,a\n", "row 2: y='a' is not an integer"),
        ("0,1\n\n\n1,2.0\n", "row 2: y='2.0' is not an integer"),
        ("0,1\n-1,0\n", "row 2: x=-1 outside [0, 2)"),
        ("0,1\n99999999999999999999,0\n", "row 2: x=99999999999999999999 outside [0, 2)"),
        ("0,1\r\n  \r\n1,0\r\n", "row 2: x='' is not an integer"),
        ("0,1\n1\n", "row 2: y='' is not an integer"),
        ("0,1\n0,1,7\n", "row 2: expected 2 fields (x,y), got 3"),
        ("0,1,7\n0,2,1\n", "row 1: expected 2 fields (x,y), got 3"),
        ("1,0\n0_1,1\n", "row 2: x='0_1' is not an integer"),
    ]
    for i, (body, message) in enumerate(bad_bodies):
        bad = tmp_path / f"bad{i}.csv"
        bad.write_text("x,y\n" + body)
        code2 = main(["bound", "--dims", "2,3", "--obs", str(bad), "--query", q])
        err = capsys.readouterr().err
        assert code2 == 1
        assert err == f"error: {bad}: {message}\n"

    wrong_header = tmp_path / "hdr.csv"
    wrong_header.write_text("treat,y\n0,1\n")
    code3 = main(["bound", "--dims", "2,2", "--obs", str(wrong_header), "--query", q])
    capsys.readouterr()
    assert code3 == 1

    exp_empty, obs_empty = tmp_path / "exp_empty.csv", tmp_path / "obs_empty.csv"
    exp_empty.write_text("arm,y\n")
    obs_empty.write_text("x,y\n\n")
    for flag, path, message in [("--exp", exp_empty, "arm 0 has no observations"),
                                ("--obs", obs_empty, "observational sample is empty")]:
        code4 = main(["bound", "--dims", "2,2", flag, str(path), "--query", q])
        err = capsys.readouterr().err
        assert code4 == 1
        assert err == f"error: {message}\n"


def test_assume_preset_json(tmp_path, capsys, truth_b):
    assume = write_json(tmp_path / "assume.json", {"preset": "mite"})
    code, report = run(capsys, [
        "bound", "--dims", "3,3",
        "--exp", exp_json(tmp_path, truth_b),
        "--assume", assume,
        "--query", event_query(tmp_path),
    ])
    assert code == 0
    assert report["upper"] - report["lower"] < 1e-7


def test_exogeneity_flag_requires_obs(tmp_path, capsys, truth_a):
    code, _ = run(capsys, [
        "bound", "--dims", "3,3",
        "--exp", exp_json(tmp_path, truth_a),
        "--exogeneity",
        "--query", event_query(tmp_path),
    ])
    assert code == 1


def test_a_rare_arm_under_exogeneity_gets_its_interval(tmp_path, capsys):
    # the 3x3 tables whose full LP loses precision at pivot 9 (P(X=1) = 2.9e-9)
    exp, obs, truth = rare_arm_tables(3, 3, 5, 0.3)
    query = write_json(tmp_path / "query.json", {"kind": "event", "po": {"0": 0, "1": {"ge": 1}}})
    code, report = run(capsys, [
        "bound", "--dims", "3,3",
        "--exp", write_json(tmp_path / "exp.json", {"table": exp.tolist()}),
        "--obs", write_json(tmp_path / "obs.json", {"table": obs.tolist()}),
        "--exogeneity", "--query", query,
    ])
    assert code == 0
    assert report["status"] == "ok"
    assert (report["lower"], report["upper"]) == pytest.approx((0.0, 0.2661917633992854), abs=1e-12)
    assert report["lower"] <= truth <= report["upper"]


def test_malformed_input_files_exit_1(tmp_path, capsys, truth_a):
    listed = write_json(tmp_path / "assume.json", [{"preset": "mtr"}])
    keyless = write_json(tmp_path / "keyless.json", {"terms": [{"pairs": [{"s": 1}]}]})
    moment = write_json(tmp_path / "moment.json", {"kind": "moment"})
    argvs = [
        ["bound", "--dims", "3,3", "--exp", exp_json(tmp_path, truth_a), "--assume", assume, "--query", query]
        for assume, query in [(listed, event_query(tmp_path)), (keyless, event_query(tmp_path)), ("mtr", moment)]
    ]
    cell = {"y_vec": [0, 0], "x": 0, "y": 0}
    truths = [
        [1, 2],
        {"d_x": 2},
        {"d_y": 2, "cells": []},
        {"d_x": 2, "d_y": 2},
        {"d_x": 2, "d_y": 2, "cells": [cell]},
    ]
    for i, payload in enumerate(truths):
        truth = write_json(tmp_path / f"truth{i}.json", payload)
        argvs.append(["simulate", "--truth", truth, "--n", "10", "--reps", "2", "--query", event_query(tmp_path)])
    for argv in argvs:
        code = main(argv)
        err = capsys.readouterr().err
        assert code == 1
        assert err.startswith("error: ")


def test_negative_seed_and_sample_size_exit_1(tmp_path, capsys, truth_a):
    truth = write_json(tmp_path / "truth.json", truth_a.to_json_dict())
    simulate = ["simulate", "--truth", truth, "--reps", "2", "--query", event_query(tmp_path)]
    bootstrap = ["bound", "--dims", "3,3", "--exp", exp_csv(tmp_path, truth_a, 50, seed=1),
                 "--query", event_query(tmp_path), "--bootstrap", "3"]
    cases = [
        (simulate + ["--n", "5", "--seed", "-1"], "seed must be a nonnegative integer, got -1"),
        (bootstrap + ["--seed", "-1"], "seed must be a nonnegative integer, got -1"),
        (simulate + ["--n", "-1"], "need at least one draw per replicate, got n=-1"),
    ]
    for argv, message in cases:
        assert main(argv) == 1
        captured = capsys.readouterr()
        assert captured.out == "" and captured.err == f"error: {message}\n"


def test_malformed_values_exit_1_naming_the_file(tmp_path, capsys, truth_a):
    # non-numeric values (strings that spell numbers included), non-finite
    # window ends and probabilities, booleans outside `exogeneity` and
    # anything else in it, out-of-range assumption terms, wrong container
    # types and ragged tables end in "error: <path>: ...", never in a traceback
    exp = exp_json(tmp_path, truth_a)
    bound = ["bound", "--dims", "3,3", "--exp", exp]
    pairs = [{"s": 1, "t": 0, "lower": 0}]
    assumes = [{"terms": [{"prob_lower": "abc", "pairs": pairs}]}, {"terms": [{"pairs": 5}]},
               {"preset": "prob_mtr(abc,1)"}, {"preset": "prob_mtr(2,1)"}, {"terms": [{"pairs": [{"s": 3, "t": 0}]}]},
               {"preset": "mtr", "exogeneity": "false"}, {"terms": [], "exogeneity": "no"},
               {"terms": [], "exogeneity": 1}, {"terms": [{"prob_lower": True, "pairs": pairs}]},
               {"terms": [{"prob_upper": True, "pairs": pairs}]},
               {"terms": [{"pairs": [{"s": 1, "t": 0, "lower": True}]}]},
               {"terms": [{"pairs": [{"s": 1, "t": 0, "lower": 0, "upper": False}]}]},
               {"terms": [{"prob_lower": "0.5", "pairs": pairs}]},
               {"terms": [{"pairs": [{"s": 1, "t": 0, "lower": 0, "upper": "Infinity"}]}]},
               {"terms": [{"pairs": [{"s": 1, "t": 0, "lower": float("nan")}]}]},
               {"terms": [{"pairs": [{"s": 1, "t": 0, "lower": 0, "upper": float("inf")}]}]},
               {"terms": [{"prob_upper": float("nan"), "pairs": pairs}]}]
    queries = [
        {"kind": "moment", "order": "two", "arms": [1, 0]},
        {"kind": "event", "po": {"0": 0}, "x": "a"},
        {"kind": "event", "po": {"0": {"in": 5}}},
        {"kind": "event", "po": [0]},
        {"kind": "raw", "cells": [{"y_vec": 5, "x": 0, "y": 0, "coeff": 1.0}]},
    ]
    tables = [[[0.5, "a", 0.5]] * 3, [[0.5, 0.5, 0.0], [1.0], [0.5, 0.5, 0.0]], {"rows": 3}]
    # a string or a boolean where a number belongs: a table entry, a raw
    # query's coeff and a truth's mass are refused like a window end
    strict_tables = [("3,3", "--exp", [["0.5", "0.5", "0.0"]] * 3),
                     ("3,3", "--exp", [[True, False, False]] * 3),
                     ("3,3", "--exp", {"table": [[0.5, "0.5", 0.0]] * 3}),
                     ("2,2", "--exp", [["0.5", "0.5"], [True, False]]),
                     ("3,3", "--obs", [["0.25", 0.25, 0.0], [0.25, 0.25, 0.0], [0.0, 0.0, 0.0]])]
    strict_queries = [{"kind": "raw", "cells": [{"y_vec": [0, 0, 0], "x": 0, "y": 0, "coeff": coeff}]}
                      for coeff in ("1.5", True)]
    strict_truths = [{"d_x": 2, "d_y": 2, "space": "full",
                      "cells": [{"y_vec": [0, 0], "x": 0, "y": 0, "mass": mass}]} for mass in ("1.0", True)]
    cases = []
    for i, payload in enumerate(assumes):
        path = write_json(tmp_path / f"assume{i}.json", payload)
        cases.append((path, bound + ["--assume", path, "--query", event_query(tmp_path)]))
    for i, payload in enumerate(queries):
        path = write_json(tmp_path / f"query{i}.json", payload)
        cases.append((path, bound + ["--query", path]))
    for i, payload in enumerate(tables):
        path = write_json(tmp_path / f"table{i}.json", payload)
        cases.append((path, ["bound", "--dims", "3,3", "--exp", path, "--query", event_query(tmp_path)]))
    for preset in ("prob_mtr(abc,1)", "pairwise(3,0)"):
        cases.append((preset, bound + ["--assume", preset, "--query", event_query(tmp_path)]))
    for path, argv in cases:
        assert main(argv) == 1
        assert capsys.readouterr().err.startswith(f"error: {path}: ")
    strict, query_2x2 = [], write_json(tmp_path / "query_2x2.json", {"kind": "event", "po": {"0": 0}})
    for i, (dims, flag, payload) in enumerate(strict_tables):
        path = write_json(tmp_path / f"strict_table{i}.json", payload)
        query = query_2x2 if dims == "2,2" else event_query(tmp_path)
        strict.append((path, ["bound", "--dims", dims, flag, path, "--query", query]))
    for i, payload in enumerate(strict_queries):
        path = write_json(tmp_path / f"strict_query{i}.json", payload)
        strict.append((path, bound + ["--query", path]))
    for i, payload in enumerate(strict_truths):
        path = write_json(tmp_path / f"strict_truth{i}.json", payload)
        strict.append((path, ["simulate", "--truth", path, "--n", "10", "--reps", "1", "--query", query_2x2]))
    for path, argv in strict:
        assert main(argv) == 1
        assert capsys.readouterr().err.startswith(f"error: {path}: malformed value: ")


def test_each_subcommand_keeps_its_flags_and_defaults(tmp_path, capsys, truth_a, truth_b):
    query = event_query(tmp_path)
    exp = exp_json(tmp_path, truth_b)
    truth = write_json(tmp_path / "truth.json", truth_a.to_json_dict())
    shared = {"out": None, "query": query, "seed": 0}
    runs = {
        "bound": (["--dims", "3,3", "--exp", exp], {
            "assume": None, "bootstrap": 0, "dims": "3,3", "exogeneity": False, "exp": exp, "obs": None,
            "slack": None, "witnesses": False}),
        "identify": (["--dims", "3,3", "--exp", exp], {
            "bootstrap": 0, "dims": "3,3", "exp": exp, "joint": False, "obs": None}),
        "simulate": (["--truth", truth, "--n", "100", "--reps", "1"], {
            "assume": None, "data": "both", "exogeneity": False, "mode": "bound", "n": 100, "reps": 1,
            "slack": None, "truth": truth}),
    }
    for command, (argv, config) in runs.items():
        code, report = run(capsys, [command, *argv, "--query", query])
        assert code == 0
        assert report["config"] == {"command": command, **shared, **config}
        assert main([command, "--help"]) == 0
        assert capsys.readouterr().out.startswith(f"usage: pobounds {command} ")


def test_a_reports_assumptions_block_is_an_assume_file(tmp_path, capsys, truth_b):
    # the report of the block passed back as --assume equals the first, config aside
    data3 = ["--dims", "3,3", "--exp", exp_json(tmp_path, truth_b), "--obs", obs_json(tmp_path, truth_b)]
    data2 = ["--dims", "2,2", "--exp", write_json(tmp_path / "exp2.json", {"table": [[0.6, 0.4], [0.3, 0.7]]}),
             "--obs", write_json(tmp_path / "obs2.json", {"table": [[0.3, 0.2], [0.15, 0.35]]})]
    query3 = event_query(tmp_path)
    query2 = write_json(tmp_path / "query2.json", {"kind": "event", "po": {"0": 0, "1": 1}})
    custom = write_json(tmp_path / "custom.json", {"terms": [{"prob_lower": 0.9, "prob_upper": 1.0, "pairs": [
        {"s": 1, "t": 0, "lower": 0, "upper": None}, {"s": 2, "t": 1, "lower": None, "upper": 1}]}]})
    cases = [
        (data3, query3, ["--assume", "mtr"]),
        (data2, query2, ["--assume", "epsilon_harm(0.05)"]),
        (data3, query3, ["--assume", custom]),
        (data3, query3, ["--assume", "prob_mtr(0.9,1)", "--exogeneity"]),
    ]
    for i, (data, query, flags) in enumerate(cases):
        code, report = run(capsys, ["bound", *data, "--query", query, "--witnesses", *flags])
        assert code == 0
        block = write_json(tmp_path / f"block{i}.json", report["assumptions"])
        code, again = run(capsys, ["bound", *data, "--query", query, "--witnesses", "--assume", block])
        assert code == 0
        assert {k: v for k, v in again.items() if k != "config"} == {k: v for k, v in report.items() if k != "config"}


def test_non_utf8_inputs_exit_1_naming_the_file(tmp_path, capsys, truth_a):
    body = tmp_path / "body.csv"
    body.write_bytes(b"x,y\n0,1\n\xff\xfe,1\n")
    header = tmp_path / "header.csv"
    header.write_bytes(b"x,\xffy\n0,1\n")
    table = tmp_path / "table.json"
    table.write_bytes(b'{"table": [[0.5, 0.5], \xff]}')
    argvs = [["--obs", str(body)], ["--obs", str(header)], ["--exp", str(table)]]
    for argv in argvs:
        assert main(["bound", "--dims", "2,2", *argv, "--query", event_query(tmp_path)]) == 1
        assert capsys.readouterr().err.startswith(f"error: {argv[1]}: ")


def raw_query(tmp_path, cells, given=None, name="raw.json"):
    payload = {"kind": "raw", "cells": [{"y_vec": list(v), "x": x, "y": y, "coeff": c} for v, x, y, c in cells]}
    if given is not None:
        payload["given"] = {"x": given[0], "y": given[1]}
    return write_json(tmp_path / name, payload)


def test_raw_query_kind(tmp_path, capsys, truth_a):
    dims = truth_a.dims
    data = ["--exp", exp_json(tmp_path, truth_a), "--obs", obs_json(tmp_path, truth_a), "--assume", "mtr"]

    def bounds(query):
        code, report = run(capsys, ["bound", "--dims", "3,3", *data, "--query", query])
        assert code == 0
        return report["lower"], report["upper"]

    # the event Y_0=0, Y_1=0, Y_2=1 spelled out cell by cell
    event = [((0, 0, 1), x, y, 1.0) for x in range(3) for y in range(3)]
    assert bounds(raw_query(tmp_path, event)) == bounds(event_query(tmp_path))
    # duplicate cells add up: two halves give the same report as the whole
    halves = [cell[:3] + (0.5,) for cell in event for _ in range(2)]
    assert bounds(raw_query(tmp_path, halves)) == bounds(event_query(tmp_path))
    # a conditional event: P(Y_0 = 0 | X=2, Y=2), against the event builder
    cells = [(y_vec, 2, 2, 1.0) for y_vec in outcome_vectors(dims) if y_vec[0] == 0]
    conditional = write_json(tmp_path / "cond.json", {"kind": "event", "po": {"0": 0}, "given": {"x": 2, "y": 2}})
    assert bounds(raw_query(tmp_path, cells, given=(2, 2))) == bounds(conditional)

    bad = [
        ([((0, 0, -1), 0, 0, 1.0)], "outcome value out of range in (0, 0, -1)"),
        ([((0, 0, 3), 0, 0, 1.0)], "outcome value out of range in (0, 0, 3)"),
        ([((0, 0), 0, 0, 1.0)], "outcome vector has length 2, expected 3"),
        ([((0, 0, 0), -1, 0, 1.0)], "treatment value -1 out of range"),
        ([((0, 0, 0), 3, 0, 1.0)], "treatment value 3 out of range"),
        ([((0, 0, 0), 0, -1, 1.0)], "observed outcome -1 out of range"),
        ([((0, 0, 0), 0, 3, 1.0)], "observed outcome 3 out of range"),
    ]
    for cells, message in bad:
        assert main(["bound", "--dims", "3,3", *data, "--query", raw_query(tmp_path, cells)]) == 1
        assert capsys.readouterr().err == f"error: {message}\n"
    for cells in ([((0, 0, 1.5), 0, 0, 1.0)], [((0, 0, 0), 1.0, 0, 1.0)], [((0, 0, 0), 0, True, 1.0)]):
        query = raw_query(tmp_path, cells)
        assert main(["bound", "--dims", "3,3", *data, "--query", query]) == 1
        assert capsys.readouterr().err.startswith(f"error: {query}: malformed value: level ")
    conflict = raw_query(tmp_path, [((0, 0, 0), 2, 2, 1.0), ((0, 1, 0), 1, 2, 1.0)], given=(2, 2))
    assert main(["bound", "--dims", "3,3", *data, "--query", conflict]) == 1
    assert capsys.readouterr().err == "error: cell (y=(0, 1, 0), x=1, y_obs=2) conflicts with condition (2, 2)\n"


def test_usage_error_exit_1(capsys):
    assert main(["bound"]) == 1
    capsys.readouterr()
    assert main(["frobnicate"]) == 1
    capsys.readouterr()


def test_simulate_identify(tmp_path, capsys, truth_b):
    truth = write_json(tmp_path / "truth.json", truth_b.to_json_dict())
    code, report = run(capsys, [
        "simulate", "--truth", truth, "--n", "10000", "--reps", "5", "--seed", "11",
        "--mode", "identify", "--data", "exp", "--query", event_query(tmp_path),
    ])
    assert code == 0
    est = report["endpoints"]["estimate"]
    assert 0.13 <= est["mean"] <= 0.16


def test_simulate_single_rep_zero_width(tmp_path, capsys, truth_a):
    truth = write_json(tmp_path / "truth.json", truth_a.to_json_dict())
    code, report = run(capsys, [
        "simulate", "--truth", truth, "--n", "100", "--reps", "1", "--seed", "0",
        "--data", "both", "--query", event_query(tmp_path),
    ])
    assert code == 0
    up = report["endpoints"]["upper"]
    assert up["ci"][0] == up["mean"] == up["ci"][1]


def test_simulate_rejects_unnormalized_truth(tmp_path, capsys):
    payload = {"d_x": 2, "d_y": 2, "space": "full",
               "cells": [{"y_vec": [0, 0], "x": 0, "y": 0, "mass": 0.5}]}
    truth = write_json(tmp_path / "truth.json", payload)
    q = write_json(tmp_path / "q.json", {"kind": "event", "po": {"0": 0}})
    code, _ = run(capsys, [
        "simulate", "--truth", truth, "--n", "10", "--reps", "2", "--seed", "0", "--query", q,
    ])
    assert code == 1


@pytest.mark.parametrize("bad", [float("nan"), float("inf"), float("-inf")])
def test_simulate_rejects_non_finite_truth_mass(tmp_path, capsys, bad):
    payload = {"d_x": 2, "d_y": 2, "space": "full",
               "cells": [{"y_vec": [0, 0], "x": 0, "y": 0, "mass": bad},
                         {"y_vec": [1, 1], "x": 1, "y": 1, "mass": 0.5}]}
    truth = write_json(tmp_path / "truth.json", payload)
    q = write_json(tmp_path / "q.json", {"kind": "event", "po": {"0": 0}})
    argv = ["simulate", "--truth", truth, "--query", q, "--n", "50", "--reps", "3", "--data", "obs", "--exogeneity"]
    assert main(argv) == 1
    assert capsys.readouterr().err == f"error: {truth}: malformed value: mass {bad!r} is not a finite number\n"


def test_report_written_to_file(tmp_path, capsys, truth_a):
    out = tmp_path / "report.json"
    code, _ = run(capsys, [
        "bound", "--dims", "3,3",
        "--obs", obs_json(tmp_path, truth_a),
        "--query", event_query(tmp_path),
        "--out", str(out),
    ])
    assert code == 0
    report = json.loads(out.read_text())
    assert report["upper"] == pytest.approx(0.35, abs=0.01)
    assert report["config"]["dims"] == "3,3"


@pytest.mark.parametrize("bad", [1.9, 2.7, "1.5", True])
def test_index_fields_are_refused_not_truncated(tmp_path, capsys, truth_a, bad):
    # every index read from a query, assumption or truth file must be a JSON
    # integer; int() would read 1.9 as 1 and "1.5" not at all
    data = ["--exp", exp_json(tmp_path, truth_a), "--obs", obs_json(tmp_path, truth_a)]
    key = {1.9: "1.9", 2.7: "2.7", "1.5": "1.5", True: "true"}[bad]
    queries = [
        ("order", {"kind": "moment", "order": bad, "arms": [1, 0]}),
        ("arm", {"kind": "moment", "order": 2, "arms": [bad, 0]}),
        ("arm", {"kind": "posterior_effect", "arms": [1, bad], "given": {"x": 0, "y": 1}}),
        ("given x", {"kind": "event", "po": {"0": 0}, "given": {"x": bad, "y": 0}}),
        ("given y", {"kind": "raw", "cells": [], "given": {"x": 0, "y": bad}}),
        ("x", {"kind": "event", "po": {"0": 0}, "x": bad}),
        ("y", {"kind": "event", "po": {"0": 0}, "given": {"x": 1, "y": 1}, "y": bad}),
        ("po key", {"kind": "event", "po": {key: 0}}),
    ]
    assumes = [("pair s", {"s": bad, "t": 0, "lower": 0}), ("pair t", {"s": 1, "t": bad, "lower": 0})]
    cases = []
    for i, (what, payload) in enumerate(queries):
        path = write_json(tmp_path / f"query{i}.json", payload)
        cases.append((what, path, ["bound", "--dims", "3,3", *data, "--query", path]))
    for i, (what, pair) in enumerate(assumes):
        path = write_json(tmp_path / f"assume{i}.json", {"terms": [{"pairs": [pair]}]})
        cases.append((what, path, ["bound", "--dims", "3,3", *data, "--assume", path, "--query", event_query(tmp_path)]))
    for what, path, argv in cases:
        assert main(argv) == 1
        shown = repr(key) if what == "po key" else repr(bad)
        assert capsys.readouterr().err == f"error: {path}: malformed value: {what} {shown} is not an integer\n"
    truth = truth_a.to_json_dict()
    truth["cells"][0]["x"] = bad
    path = write_json(tmp_path / "truth.json", truth)
    argv = ["simulate", "--truth", path, "--n", "10", "--reps", "1", "--query", event_query(tmp_path)]
    assert main(argv) == 1
    assert capsys.readouterr().err == f"error: {path}: malformed value: x {bad!r} is not an integer\n"


def test_huge_moment_order_exits_1_with_one_line(tmp_path, capsys, truth_a):
    query = write_json(tmp_path / "moment.json", {"kind": "moment", "order": 2000, "arms": [1, 0]})
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert main(["bound", "--dims", "3,3", "--exp", exp_json(tmp_path, truth_a), "--query", query]) == 1
    assert capsys.readouterr().err == "error: query has a non-finite coefficient\n"
