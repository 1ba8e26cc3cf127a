"""What ``tools/pairs.py`` prints of paired benchmark runs, on hand-made run
lists: the verdict on one end-to-end metric, and each side's op counts."""

import importlib.util
import json
from pathlib import Path

import pytest

_spec = importlib.util.spec_from_file_location("pairs", Path(__file__).parent.parent / "tools" / "pairs.py")
pairs = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(pairs)
verdict = pairs.verdict

BASE = [10.0, 10.2, 9.8, 10.1, 9.9]  # median 10, quartiles 9.9 and 10.1


@pytest.mark.parametrize(
    "head, way, bound, want",
    [
        (BASE, "lower", 0.25, "same"),
        ([12.4, 12.6, 12.3, 12.5, 12.4], "lower", 0.25, "same"),  # +24%: worse, but within the bound
        ([12.6, 12.7, 12.6, 12.8, 12.6], "lower", 0.25, "worse"),  # +26%
        ([7.4, 7.5, 7.4, 7.6, 7.4], "higher", 0.25, "worse"),  # -26% of a higher-is-better metric
        ([9.7, 9.6, 9.7, 9.5, 9.6], "lower", 0.25, "gain"),  # 5 of 5 pairs, 0.4 below, IQR 0.2
        ([9.7, 9.6, 9.7, 9.5, 10.3], "lower", 0.25, "same"),  # 4 of 5 pairs is less than 9 in 10
        ([9.95, 10.1, 9.75, 10.05, 9.85], "lower", 0.25, "same"),  # 5 of 5 pairs, but 0.05 is inside the IQR
        ([10.3, 10.4, 10.3, 10.5, 10.4], "higher", 0.25, "gain"),
        ([9.95, 10.1, 9.75, 10.05, 9.85], "lower", 0.01, "unresolved"),  # IQR 0.2 against an allowance of 0.1
        ([9.0, 9.1, 9.0, 9.2, 9.0], "lower", 0.01, "gain"),  # every head run beats every base run
        ([10.2, 10.2, 10.2, 10.2, 10.2], "lower", 0.01, "worse"),  # worse first, however wide the base
    ],
)
def test_verdict(head, way, bound, want):
    assert verdict(BASE, head, way, bound) == want


def test_a_metric_that_never_moves_is_the_same():
    ok = [0.96] * 5
    assert verdict(ok, ok, "higher", 0.01) == "same"
    assert verdict(ok, [0.95] * 5, "higher", 0.01) == "worse"  # one failed op in a hundred more
    assert verdict([12.0], [9.0], "lower", 0.25) == "gain"  # one pair


def test_a_metric_is_declared_by_its_name_after_the_workload():
    metrics = {"op_ms_p50": {"name": "op_ms_p50", "better": "lower", "bound": 0.25}}
    assert pairs.metric("replicates.op_ms_p50", metrics) == metrics["op_ms_p50"]
    assert pairs.metric("op_ms_p50", metrics) == metrics["op_ms_p50"]
    assert pairs.metric("simplex.phase1_ms.3x3", metrics) == {}


def _stdout(attempted, failed, ok_frac, rss):
    last = {"correct": True, "attempted": attempted, "failed": failed,
            "metrics": {"ok_frac": {"value": ok_frac, "unit": "ratio"}, "peak_rss_mb": {"value": rss, "unit": "MB"}}}
    return f"machine: {{}}\nbound-grid ops={attempted}\n{json.dumps(last)}\n"


def test_a_run_carries_its_op_counts_as_undeclared_rows(capsys):
    runs = {"base": [pairs.outcome(_stdout(250, 10, 0.96, 50.6)), pairs.outcome(_stdout(260, 10, 0.96, 50.9))],
            "head": [pairs.outcome(_stdout(700, 28, 0.96, 55.7)), pairs.outcome(_stdout(720, 29, 0.96, 55.9))]}
    assert runs["base"][0] == {"correct": True,
                               "metrics": {"ok_frac": 0.96, "peak_rss_mb": 50.6, "attempted": 250, "failed": 10}}
    declared = {"ok_frac": {"name": "ok_frac", "better": "higher", "bound": 0.01},
                "peak_rss_mb": {"name": "peak_rss_mb", "better": "lower", "bound": 0.15}}
    pairs.report(runs, declared)
    rows = {line.split()[0]: line.split() for line in capsys.readouterr().out.splitlines()[1:]}
    assert set(rows) == {"attempted", "failed", "ok_frac", "peak_rss_mb"}
    assert rows["attempted"][1:] == ["255", "[252.5,", "257.5]", "710", "[705,", "715]", "+178.4%", "0/2"]
    assert rows["failed"][1:4] == ["10", "[10,", "10]"] and rows["failed"][-1] == "0/2"  # no verdict
    assert rows["ok_frac"][-1] == "same" and rows["peak_rss_mb"][-1] == "same"  # +10%, inside its 15%
