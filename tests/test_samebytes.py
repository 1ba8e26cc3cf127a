"""What ``tools/samebytes.py`` digests of a ``bounds._bound`` call, and
which call it names as the first to differ, on hand-made results."""

import importlib.util
import types
from pathlib import Path

import numpy as np
import pytest

import pobounds as pb

_spec = importlib.util.spec_from_file_location("samebytes", Path(__file__).parent.parent / "tools" / "samebytes.py")
samebytes = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(samebytes)
digest = samebytes.digest

WITNESS = np.array([0.25, 0.0, 0.75, 0.0])
OK = pb.BoundResult("ok", 0.1, 0.3, WITNESS, WITNESS[::-1].copy())


def test_a_result_is_digested_by_its_status_endpoints_witness_bytes_and_diagnostics():
    same = pb.BoundResult("ok", 0.1, 0.3, WITNESS.copy(), WITNESS[::-1].copy())
    assert digest(same) == digest(OK) and digest(OK)[1] == "ok [0.1, 0.3]"
    nudged = WITNESS.copy()
    nudged[2] = np.nextafter(nudged[2], 1.0)  # one ulp
    others = [
        pb.BoundResult("ok", 0.1, 0.3, nudged, OK.upper_witness),
        pb.BoundResult("ok", 0.1, 0.30000000000000004, OK.lower_witness, OK.upper_witness),
        pb.BoundResult("ok", 0.1, 0.3, OK.upper_witness, OK.lower_witness),  # the witnesses swapped
        pb.BoundResult("infeasible", diagnostics=("base-sum",)),
        pb.BoundResult("infeasible", diagnostics=("base-sum", "experimental(0,0)")),
    ]
    hashes = [digest(res)[0] for res in [OK] + others]
    assert len(set(hashes)) == len(hashes)


def test_a_raised_call_is_digested_by_its_type_and_text():
    failure = digest(error=pb.SolverFailureError("phase 1 terminated without optimum"))
    assert failure[1] == "SolverFailureError: phase 1 terminated without optimum"
    assert failure == digest(error=pb.SolverFailureError("phase 1 terminated without optimum"))
    assert failure[0] != digest(error=pb.ValidationError("phase 1 terminated without optimum"))[0]


def test_the_first_difference_is_named_in_the_base_order():
    a, b, c = digest(OK), digest(pb.BoundResult("infeasible", diagnostics=("base-sum",))), digest(error=ValueError())
    base = {"t::one": [a, a], "t::two": [a, b], "t::gone": [c], "t::three": [a]}
    assert samebytes.first_difference(base, dict(base, **{"t::new": [c]})) is None  # keys on one side are not compared
    assert samebytes.first_difference(base, dict(base, **{"t::two": [a, c], "t::three": [b]})) == ("t::two", 1)
    assert samebytes.first_difference(base, dict(base, **{"t::one": [a]})) == ("t::one", 1)  # a missing call
    assert samebytes.first_difference(base, dict(base, **{"t::three": [a, a]})) == ("t::three", 1)  # an extra one
    gone = {key: calls for key, calls in base.items() if key != "t::gone"}
    assert samebytes.first_difference(base, gone) == ("t::gone", 0)  # a key the head lacks


def test_a_missing_key_or_a_suite_that_did_not_pass_is_not_the_same(capsys):
    a = digest(OK)
    record = {"suite": {"t::one": [a], "t::two": [a]}, "ops": {"bound-grid op 0": [a]}, "returncode": 0}
    assert samebytes.judge(7, record, dict(record, suite={"t::one": [a], "t::two": [a], "t::new": [a]}))
    assert not samebytes.judge(7, record, dict(record, suite={"t::one": [a]}))
    assert "first difference at t::two call 0" in capsys.readouterr().out
    for base, head in ((record, dict(record, returncode=1)), (dict(record, returncode=2), record)):
        assert not samebytes.judge(7, base, head)
        assert "so some of its calls may be missing" in capsys.readouterr().out


def test_the_recorder_keys_each_call_and_raises_again():
    def bound(value):
        if value is None:
            raise pb.SolverFailureError("lost precision")
        return OK

    module = types.SimpleNamespace(_bound=bound)
    recorder = samebytes.Recorder(module)
    recorder.key = "t::first"
    assert module._bound(1) is OK
    recorder.key = "t::second"
    with pytest.raises(pb.SolverFailureError):
        module._bound(None)
    module._bound(1)
    assert recorder.calls == {"t::first": [digest(OK)],
                              "t::second": [digest(error=pb.SolverFailureError("lost precision")), digest(OK)]}
