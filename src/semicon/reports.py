"""Run results: accuracy matrix, label budget, and JSON round-tripping.

A report is reproducible evidence: for a fixed config and seed the
canonical serialization is byte-identical across runs. Wall-clock time
is carried for the reader but excluded from the canonical form and from
equality, since it can never reproduce.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field, fields

from .errors import DataError

SCHEMA_VERSION = 2


@dataclass
class RunReport:
    config: dict
    accuracy: list[list[float]]
    final_avg: float
    oracle_calls: int
    label_fraction: float
    steps: int
    missing_classes: list[int] = field(default_factory=list)
    head_accuracy: list[float] | None = None
    loss_trace: list[float] | None = None
    wall_clock: float = field(default=0.0, compare=False)

    def __post_init__(self):
        config = self.config
        if not (isinstance(config, dict) and isinstance(config.get("method"), str)
                and isinstance(config.get("seed"), int)):
            raise ValueError(f"config lacks a string method or integer seed: {config}")
        if not self.accuracy:
            raise ValueError("a report needs at least one accuracy row")
        widths = {len(row) for row in self.accuracy}
        if len(widths) != 1 or 0 in widths:
            raise ValueError("accuracy rows must be non-empty and of equal width")
        if any(not 0.0 <= a <= 1.0 for row in self.accuracy for a in row):
            raise ValueError(f"accuracies must lie in [0, 1]: {self.accuracy}")
        last = self.accuracy[-1]
        if not abs(self.final_avg - sum(last) / len(last)) <= 1e-12:
            raise ValueError("final_avg must be the mean of the last row")
        if not 0.0 <= self.label_fraction <= 1.0:
            raise ValueError(f"label fraction out of range: {self.label_fraction}")


def as_dict(report: RunReport, *, wall_clock: bool = True) -> dict:
    out = {"schema": SCHEMA_VERSION}
    for f in fields(RunReport):
        if f.name == "wall_clock" and not wall_clock:
            continue
        out[f.name] = getattr(report, f.name)
    return out


def canonical_json(report: RunReport) -> str:
    """Deterministic serialization: sorted keys, no whitespace, no timing."""
    return json.dumps(as_dict(report, wall_clock=False),
                      sort_keys=True, separators=(",", ":"))


def to_json(report: RunReport) -> str:
    return json.dumps(as_dict(report), sort_keys=True, separators=(",", ":"))


def from_json(text: str) -> RunReport:
    try:
        raw = json.loads(text)
    except json.JSONDecodeError as e:
        raise DataError(f"malformed report JSON: {e}") from None
    if not isinstance(raw, dict):
        raise DataError(f"a report line must hold a JSON object, got {text[:40]!r}")
    version = raw.pop("schema", None)
    if version != SCHEMA_VERSION:
        raise DataError(f"unsupported report schema: {version!r}")
    names = {f.name for f in fields(RunReport)}
    unknown = set(raw) - names
    if unknown:
        raise DataError(f"unknown report fields: {sorted(unknown)}")
    try:
        return RunReport(**raw)
    except (TypeError, ValueError) as e:
        raise DataError(f"invalid report: {e}") from None


def write_reports(path, reports: list[RunReport]) -> None:
    """One JSON object per line."""
    with open(path, "w") as fh:
        for rep in reports:
            fh.write(to_json(rep) + "\n")


def read_reports(path) -> list[RunReport]:
    """The reports in a file of JSON lines; a file that cannot be read
    or decoded as text raises `DataError` naming it."""
    try:
        with open(path) as fh:
            lines = list(fh)
    except OSError as e:
        raise DataError(f"report file not found or unreadable: {path}: "
                        f"{e.strerror}") from None
    except UnicodeDecodeError as e:
        raise DataError(f"report file is not text: {path}: {e}") from None
    return [from_json(text) for text in map(str.strip, lines) if text]
