"""Report records shared by the bound pipelines and the CLI."""

from __future__ import annotations

import csv
import io
import json
from dataclasses import dataclass, field
from fractions import Fraction


def _num(x) -> float:
    return float(x) if isinstance(x, Fraction) else x


@dataclass
class BoundReport:
    """Outcome of one sieve-bound computation against the exact oracle.

    ``direction`` is "upper" or "lower"; the verdict is valid iff the bound
    lies on its claimed side of the exact count (within ``slack`` for the
    asymptotic linear-sieve main terms, 0.0 elsewhere).
    """

    method: str
    problem: str
    params: dict
    direction: str
    main: float
    remainder_bound: float
    bound: float
    exact: int
    slack: float = 0.0
    margin: float = field(init=False)
    verdict: str = field(init=False)

    def __post_init__(self):
        self.main = _num(self.main)
        self.remainder_bound = _num(self.remainder_bound)
        self.bound = _num(self.bound)
        if self.direction == "upper":
            self.margin = self.bound * (1 + self.slack) - self.exact
        elif self.direction == "lower":
            self.margin = self.exact * (1 + self.slack) - self.bound
        else:
            raise ValueError(f"unknown direction {self.direction!r}")
        self.verdict = "valid" if self.margin >= 0 else "violated"

    def row(self) -> dict:
        out = {
            "method": self.method,
            "problem": self.problem,
            "direction": self.direction,
            "main": self.main,
            "remainder_bound": self.remainder_bound,
            "bound": self.bound,
            "exact": self.exact,
            "margin": self.margin,
            "verdict": self.verdict,
        }
        for k, v in self.params.items():
            out[f"param_{k}"] = _num(v) if isinstance(v, Fraction) else v
        return out


def format_number(x) -> str:
    if isinstance(x, bool):
        return str(x)
    if isinstance(x, int):
        return str(x)
    if isinstance(x, float):
        return f"{x:.15g}"
    return str(x)


def write_rows(rows: list[dict], path: str | None, fmt: str) -> str:
    """Serialize rows to CSV (header mandatory) or JSON with 15 significant digits.

    Returns the rendered text; writes it to ``path`` when given.
    """
    if fmt not in ("csv", "json"):
        raise ValueError(f"unknown format {fmt!r}")
    if fmt == "csv":
        keys: list[str] = []
        for row in rows:
            for k in row:
                if k not in keys:
                    keys.append(k)
        buf = io.StringIO()
        writer = csv.writer(buf, lineterminator="\n")
        writer.writerow(keys)
        writer.writerows([format_number(row.get(k, "")) for k in keys] for row in rows)
        text = buf.getvalue()
    else:
        normalized = [{k: (format_number(v) if isinstance(v, float) else v) for k, v in row.items()} for row in rows]
        text = json.dumps(normalized, indent=2) + "\n"
    if path:
        with open(path, "w") as fh:
            fh.write(text)
    return text
