"""Golden reports: the canonical report of every method on two small streams.

`golden/reports.json` holds, per method, the canonical report (accuracy
matrix, loss trace, steps, oracle calls, label fraction, config echo) of
one run of the MLP encoder on the stream of acceptance check 8.
`golden/conv_reports.json` holds the same for the conv encoder on a
seeded stream of 3x32x32 images, so a run through image augmentation,
the conv and pool primitives and NCM over conv latents is pinned too.
A refactor that means to keep behaviour must leave every report equal
to its entry: structure, strings and integers exactly, floats to a
relative 1e-9.

Regenerate the fixture only for a change that is meant to alter
behaviour, and say so in CHANGES.md, with the list of changed report
fields per encoder and method that the script prints:

    PYTHONPATH=src python tests/test_golden.py

Reports are reproducible only at a fixed BLAS thread count in general;
at these sizes the MLP fixture is the same with one BLAS thread and with
two. The conv reports differ between the two in the last digits of
some losses, well within the relative 1e-9.
"""

import json
import math
from pathlib import Path

import numpy as np
import pytest

from semicon.models import ConvSpec, MlpSpec
from semicon.reports import canonical_json
from semicon.stream import LabeledDataset, make_synthetic, split_dataset
from semicon.trainers import MEMORY_METHODS, METHODS, TrainConfig, run

GOLDEN = Path(__file__).parent / "golden"
FIXTURES = {"mlp": GOLDEN / "reports.json", "conv": GOLDEN / "conv_reports.json"}
RTOL = 1e-9


def image_stream():
    """4 classes of 3x32x32 images in [0, 1] (a class template half, a
    noise half), 8 train and 3 test per class, 2 tasks, batches of 4."""
    rng = np.random.default_rng(3)
    templates = rng.uniform(size=(4, 3, 32, 32))

    def draw(per_class):
        labels = np.repeat(np.arange(4), per_class)
        noise = rng.uniform(size=(len(labels), 3, 32, 32))
        return LabeledDataset(0.5 * templates[labels] + 0.5 * noise, labels)

    return split_dataset(draw(8), 2, seed=42, batch_size=4, test_data=draw(3))


def canonical_report(encoder: str, method: str) -> dict:
    if encoder == "mlp":
        stream = make_synthetic(4, 5, 3.0, 10, 2, seed=42, batch_size=5,
                                test_per_class=5)
        spec, memory, epochs = MlpSpec(in_dim=5), (20, 8), 3
    else:
        stream, spec, memory, epochs = image_stream(), ConvSpec(), (8, 4), 2
    kw = {}
    if method in MEMORY_METHODS:
        kw = {"mem_size": memory[0], "mem_batch": memory[1]}
    if method == "offline":
        kw = {"epochs": epochs}
    cfg = TrainConfig(method=method, seed=7, stream_batch=stream.batch_size,
                      loss_trace=True, **kw)
    _, _, report = run(cfg, stream, spec)
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
    want = json.loads(FIXTURES["mlp"].read_text())[method]
    assert_matches(canonical_report("mlp", method), want, method)


@pytest.mark.parametrize("method", METHODS)
def test_conv_report_matches_golden(method):
    want = json.loads(FIXTURES["conv"].read_text())[method]
    assert_matches(canonical_report("conv", method), want, method)


def changed_fields(got: dict, want: dict) -> list[str]:
    """Top-level report fields where `got` fails to match `want`."""
    changed = []
    for key in sorted(got.keys() | want.keys()):
        try:
            assert_matches(got.get(key), want.get(key))
        except AssertionError:
            changed.append(key)
    return changed


if __name__ == "__main__":
    GOLDEN.mkdir(exist_ok=True)
    for encoder, path in FIXTURES.items():
        old = json.loads(path.read_text()) if path.exists() else {}
        golden = {m: canonical_report(encoder, m) for m in METHODS}
        for method, report in golden.items():
            changed = changed_fields(report, old.get(method, {}))
            print(f"{encoder} {method}: {', '.join(changed) or 'unchanged'}")
        path.write_text(json.dumps(golden, indent=1, sort_keys=True) + "\n")
        print(f"wrote {path}")
