"""Per-inequality comparison records and their CSV/JSON serialization.

Report CSV bodies are deterministic: metadata (tool version, seed,
constants) lives in ``#``-prefixed header lines, data rows carry
repr-formatted floats so files round-trip and diff cleanly. Rows go
through ``csv.writer``, so a cell holding a comma (chain ids such as
``lazy-cycle(m=5,hold=0.5)``) is quoted and every row keeps its cells.
"""

from __future__ import annotations

import csv
import io
import json
from dataclasses import dataclass, field
from typing import Any

CSV_COLUMNS = ("name", "chain_id", "params", "bound", "value", "ci", "margin", "holds", "vacuous")

# metadata keys that get their own CSV column instead of the params blob
_RESERVED_META = ("chain_id",)


@dataclass
class BoundReport:
    """One inequality check: bound vs. the exact or empirical value.

    ``holds`` means ``value <= bound_value + tolerance`` where the
    tolerance already includes the recorded CI half-width ``ci``.
    """

    name: str
    bound_value: float
    value: float
    margin: float
    holds: bool
    vacuous: bool = False
    ci: float = 0.0
    metadata: dict[str, Any] = field(default_factory=dict)

    @classmethod
    def from_check(cls, name, bound_value, value, *, tol=0.0, ci=0.0,
                   vacuous=False, metadata=None):
        """Build a report, deriving ``margin`` and ``holds`` from the inputs."""
        bound_value = float(bound_value)
        value = float(value)
        return cls(
            name=name,
            bound_value=bound_value,
            value=value,
            margin=bound_value - value,
            holds=bool(value <= bound_value + tol + ci),
            vacuous=vacuous,
            ci=float(ci),
            metadata=dict(metadata or {}),
        )

    def params_string(self) -> str:
        """Deterministic ``k=v;...`` rendering of the free-form metadata."""
        items = sorted((k, v) for k, v in self.metadata.items() if k not in _RESERVED_META)
        return ";".join(f"{k}={_fmt(v)}" for k, v in items)

    def csv_cells(self) -> tuple[str, ...]:
        """The row's cells, in CSV_COLUMNS order."""
        return (
            self.name,
            str(self.metadata.get("chain_id", "")),
            self.params_string(),
            _fmt(self.bound_value),
            _fmt(self.value),
            _fmt(self.ci),
            _fmt(self.margin),
            _bool(self.holds),
            _bool(self.vacuous),
        )

    def to_dict(self) -> dict[str, Any]:
        return {
            "name": self.name,
            "bound": self.bound_value,
            "value": self.value,
            "ci": self.ci,
            "margin": self.margin,
            "holds": self.holds,
            "vacuous": self.vacuous,
            "metadata": {k: _jsonable(v) for k, v in self.metadata.items()},
        }


def _fmt(v) -> str:
    if isinstance(v, bool):
        return _bool(v)
    if isinstance(v, float):
        return repr(float(v))  # plain float repr even for numpy scalars
    if isinstance(v, (list, tuple)):
        return "|".join(_fmt(x) for x in v)
    return str(v)


def _bool(v) -> str:
    return "true" if v else "false"


def _jsonable(v):
    if isinstance(v, tuple):
        return list(v)
    if hasattr(v, "item"):  # numpy scalar
        return v.item()
    return v


def render_reports_csv(reports, header_meta=None) -> str:
    """Render reports as CSV text; ``header_meta`` goes into ``#`` lines."""
    buf = io.StringIO()
    for k, v in (header_meta or {}).items():
        buf.write(f"# {k}={_fmt(v)}\n")
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(CSV_COLUMNS)
    writer.writerows(r.csv_cells() for r in reports)
    return buf.getvalue()


def render_reports_json(reports, header_meta=None) -> str:
    payload = {
        "meta": {k: _jsonable(v) for k, v in (header_meta or {}).items()},
        "reports": [r.to_dict() for r in reports],
    }
    return json.dumps(payload, indent=2, sort_keys=True) + "\n"


def csv_body(text: str) -> str:
    """Strip ``#`` metadata lines; what remains must be byte-stable across runs."""
    return "".join(line for line in text.splitlines(keepends=True) if not line.startswith("#"))
