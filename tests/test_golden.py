"""Golden reports: the canonical report of every method on one small stream.

`golden/reports.json` holds, per method, the canonical report (accuracy
matrix, loss trace, steps, oracle calls, label fraction, config echo) of
one run on the stream of acceptance check 8. A refactor that means to
keep behaviour must leave every report equal to it: structure, strings
and integers exactly, floats to a relative 1e-9.

Regenerate the fixture only for a change that is meant to alter
behaviour, and say so in CHANGES.md:

    PYTHONPATH=src python tests/test_golden.py

Reports are reproducible only at a fixed BLAS thread count in general;
at these sizes the fixture is the same with one BLAS thread and with two.
"""

import json
import math
from pathlib import Path

import pytest

from semicon.models import MlpSpec
from semicon.reports import canonical_json
from semicon.stream import make_synthetic
from semicon.trainers import MEMORY_METHODS, METHODS, TrainConfig, run

FIXTURE = Path(__file__).parent / "golden" / "reports.json"
RTOL = 1e-9


def canonical_report(method: str) -> dict:
    stream = make_synthetic(4, 5, 3.0, 10, 2, seed=42, batch_size=5,
                            test_per_class=5)
    kw = {}
    if method in MEMORY_METHODS:
        kw = {"mem_size": 20, "mem_batch": 8}
    if method == "offline":
        kw = {"epochs": 3}
    cfg = TrainConfig(method=method, seed=7, stream_batch=5,
                      loss_trace=True, **kw)
    _, _, report = run(cfg, stream, MlpSpec(in_dim=5))
    return json.loads(canonical_json(report))


def assert_matches(got, want, path="report"):
    """Same structure and exact non-floats; floats to RTOL."""
    if isinstance(want, float) or isinstance(got, float):
        assert type(got) is type(want), f"{path}: {got!r} != {want!r}"
        assert math.isclose(got, want, rel_tol=RTOL, abs_tol=0.0), \
            f"{path}: {got!r} != {want!r}"
    elif isinstance(want, dict):
        assert isinstance(got, dict) and sorted(got) == sorted(want), \
            f"{path}: keys {sorted(got)} != {sorted(want)}"
        for key in want:
            assert_matches(got[key], want[key], f"{path}.{key}")
    elif isinstance(want, list):
        assert isinstance(got, list) and len(got) == len(want), \
            f"{path}: {got!r} != {want!r}"
        for i, (g, w) in enumerate(zip(got, want)):
            assert_matches(g, w, f"{path}[{i}]")
    else:
        assert type(got) is type(want) and got == want, \
            f"{path}: {got!r} != {want!r}"


@pytest.mark.parametrize("method", METHODS)
def test_report_matches_golden(method):
    want = json.loads(FIXTURE.read_text())[method]
    assert_matches(canonical_report(method), want, method)


if __name__ == "__main__":
    FIXTURE.parent.mkdir(exist_ok=True)
    golden = {m: canonical_report(m) for m in METHODS}
    FIXTURE.write_text(json.dumps(golden, indent=1, sort_keys=True) + "\n")
    print(f"wrote {FIXTURE}")
