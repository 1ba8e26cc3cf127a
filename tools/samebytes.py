"""Whether the working tree returns the same bytes as a base revision.

    python3 tools/samebytes.py --base HEAD~1 --seed 7

Each side runs its own sources in its own processes.  The base is a
``git archive`` of ``--base`` unpacked into a temporary directory and
removed after the run (``tools/pairs.py``'s ``unpack``); the other side is the
working tree.  On each side this records a digest of every
``bounds._bound`` call:

* in the tier-1 suite (``python -m pytest tests``), run with the fixed
  ``--hypothesis-seed`` ``HYPOTHESIS_SEED`` and no example database, with
  this file loaded as a pytest plugin; a call is keyed by its test's id and
  its number within that test;
* in bound-grid ops 0-499 and replicates ops 0-59 of ``--seed``, each built
  and run by the side's own ``perfbench/workloads.py``, which is imported
  as it is; a call is keyed by its workload, op and number within the op.

A digest covers a result's status, endpoints, witness bytes and
diagnostics, or the type and text of what the call raised.  Printed per
part: how many calls both sides made and compared, how many keys only one
side has, and the first call that differs.  The exit status is 1 when some
call of the base differs or is missing from the working tree, a whole key
included, or when the suite does not pass on either side, since a test
that fails or is not collected may stop before its calls.  Only keys that
the working tree alone has, its new tests, are allowed.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import shutil
import subprocess
import sys
import tempfile

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
OUT = "SAMEBYTES_OUT"  # where the plugin writes the suite's calls
HYPOTHESIS_SEED = 0
WORKLOADS = (("bound-grid", "BoundGrid", 500), ("replicates", "Replicates", 60))


def digest(result=None, error: BaseException | None = None) -> list[str]:
    """``[hash, summary]`` of one ``bounds._bound`` outcome: the result, or
    the exception it raised.  The hash covers the status, the endpoints as
    ``repr`` (exact for a float), the witness bytes and the diagnostics, or
    the exception's type and text; the summary is a short line of the same
    for a reader."""
    if error is not None:
        text = f"{type(error).__name__}: {error}"
        return [hashlib.sha256(text.encode()).hexdigest()[:16], text[:120]]
    h = hashlib.sha256(repr((result.status, result.lower, result.upper, tuple(result.diagnostics))).encode())
    for witness in (result.lower_witness, result.upper_witness):
        h.update(b"none" if witness is None else witness.dtype.str.encode() + witness.tobytes())
    return [h.hexdigest()[:16], f"{result.status} [{result.lower!r}, {result.upper!r}]"]


class Recorder:
    """Wraps ``bounds._bound`` in ``module`` and appends the digest of each
    call to ``calls[key]``, ``key`` being set by the caller before each unit
    of work; a call's exception is recorded and raised again."""

    def __init__(self, module):
        self.calls: dict[str, list[list[str]]] = {}
        self.key = ""
        honest = module._bound

        def recorded(*args, **kwargs):
            try:
                result = honest(*args, **kwargs)
            except Exception as exc:
                self.calls.setdefault(self.key, []).append(digest(error=exc))
                raise
            self.calls.setdefault(self.key, []).append(digest(result))
            return result

        module._bound = recorded


class SuiteRecorder(Recorder):
    """A recorder registered as a pytest plugin: each call is keyed by its
    test's id, and every call is written to ``out`` as the run ends."""

    def __init__(self, module, out: str):
        super().__init__(module)
        self.out = out

    def pytest_runtest_setup(self, item):
        self.key = item.nodeid

    def pytest_unconfigure(self, config):
        with open(self.out, "w") as fh:
            json.dump(self.calls, fh)


def pytest_configure(config):
    """Loaded by ``-p samebytes`` with ``SAMEBYTES_OUT`` set: record the
    suite's calls, with no example database to replay."""
    if os.environ.get(OUT):
        from hypothesis import settings

        from pobounds import bounds

        settings.register_profile("samebytes", database=None)
        settings.load_profile("samebytes")
        config.pluginmanager.register(SuiteRecorder(bounds, os.environ[OUT]))


def record_ops(seed: int, out: str) -> None:
    """Run the workloads' ops in this process, from the checkout in the
    working directory, and write their calls to ``out``."""
    sys.path[:0] = [os.path.join(os.getcwd(), "src"), os.path.join(os.getcwd(), "perfbench")]
    import workloads
    from pobounds import bounds

    recorder = Recorder(bounds)
    with tempfile.TemporaryDirectory(prefix="samebytes-ops-") as workdir:
        for name, cls, count in WORKLOADS:
            workload = getattr(workloads, cls)(seed, workdir)
            for i in range(count):
                recorder.key = f"{name} op {i}"
                prepared = workload.prepare(i)
                try:
                    workload.run(prepared, None)
                except workloads.FAILURES as exc:
                    recorder.calls.setdefault(f"{recorder.key} raised", []).append(digest(error=exc))
    with open(out, "w") as fh:
        json.dump(recorder.calls, fh)


def first_difference(base: dict, head: dict) -> tuple[str, int] | None:
    """The key and the number of the first call, in the base's order, whose
    digest differs between two sides' records; a side that made fewer calls
    under a key, or none, differs at its first missing call.  Keys only the
    head has are not compared."""
    for key, calls in base.items():
        other = head.get(key, [])
        for i in range(max(len(calls), len(other))):
            if i >= len(calls) or i >= len(other) or calls[i][0] != other[i][0]:
                return key, i
    return None


def compare(part: str, base: dict, head: dict) -> bool:
    """Print what ``part`` compares and its first difference; whether none differs."""
    shared = set(base) & set(head)
    calls = sum(min(len(base[k]), len(head[k])) for k in shared)
    print(f"{part}: {calls} calls under {len(shared)} keys compared; keys only in base {len(set(base) - shared)}, "
          f"only in head {len(set(head) - shared)}")
    found = first_difference(base, head)
    if found is None:
        print(f"{part}: identical")
        return True
    key, i = found

    def at(calls):
        return f"{calls[i][0]} {calls[i][1]}" if i < len(calls) else "no call"

    print(f"{part}: first difference at {key} call {i}\n  base: {at(base[key])}\n  head: {at(head.get(key, []))}")
    return False


def judge(seed: int, base: dict, head: dict) -> bool:
    """Print the comparison of two sides' records (:func:`side`); whether
    every call of the base is made again alike and the suite passed on both
    sides."""
    same = compare("suite", base["suite"], head["suite"])
    same &= compare(f"ops of seed {seed}", base["ops"], head["ops"])
    for name, record in (("base", base), ("head", head)):
        if record["returncode"] != 0:
            print(f"{name}: the suite exited with {record['returncode']}, so some of its calls may be missing")
            same = False
    return same


def side(checkout: str, args, scratch: str) -> dict[str, dict]:
    """Every call of the suite and of the ops, recorded in ``checkout``, and
    the suite's exit status."""
    suite_out, ops_out = os.path.join(scratch, "suite.json"), os.path.join(scratch, "ops.json")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([os.path.join(checkout, "src"), os.path.join(ROOT, "tools")]))
    env[OUT] = suite_out
    argv = [sys.executable, "-m", "pytest", "-q", "-p", "samebytes", "-p", "no:cacheprovider",
            f"--hypothesis-seed={HYPOTHESIS_SEED}", "--continue-on-collection-errors", "tests"]
    proc = subprocess.run(argv, cwd=checkout, env=env, stdin=subprocess.DEVNULL, stdout=subprocess.PIPE, text=True)
    print(f"{checkout}: {proc.stdout.strip().splitlines()[-1]}", flush=True)
    del env[OUT]
    argv = [sys.executable, os.path.abspath(__file__), "--record-ops", str(args.seed), "--out", ops_out]
    subprocess.run(argv, cwd=checkout, env=env, stdin=subprocess.DEVNULL, check=True)
    with open(suite_out) as fh:
        suite = json.load(fh)
    with open(ops_out) as fh:
        return {"suite": suite, "ops": json.load(fh), "returncode": proc.returncode}


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--base", help="git revision to compare against")
    parser.add_argument("--seed", type=int, help="the workloads' seed")
    parser.add_argument("--record-ops", type=int, metavar="SEED", help=argparse.SUPPRESS)
    parser.add_argument("--out", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if args.record_ops is None and (args.base is None or args.seed is None):
        parser.error("--base and --seed are required")
    return args


def main(argv=None) -> int:
    args = parse_args(argv)
    if args.record_ops is not None:
        record_ops(args.record_ops, args.out)
        return 0
    from pairs import unpack  # tools/, the script's own directory

    scratch = tempfile.mkdtemp(prefix="samebytes-")
    try:
        base_dir = os.path.join(scratch, "base")
        unpack(args.base, base_dir)
        for name in ("base-out", "head-out"):
            os.mkdir(os.path.join(scratch, name))
        base = side(base_dir, args, os.path.join(scratch, "base-out"))
        head = side(ROOT, args, os.path.join(scratch, "head-out"))
    finally:
        shutil.rmtree(scratch, ignore_errors=True)
    return 0 if judge(args.seed, base, head) else 1


if __name__ == "__main__":
    sys.exit(main())
