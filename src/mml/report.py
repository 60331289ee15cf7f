"""Per-inequality comparison records and their CSV/JSON serialization.

Report CSV bodies are deterministic: metadata (tool version, seed,
constants) lives in ``#``-prefixed header lines, data rows carry
repr-formatted floats so files round-trip and diff cleanly. Cells are
quoted as ``csv.writer``'s default dialect quotes them: a cell holding a
comma, a quote, ``\r`` or ``\n`` (chain ids such as
``lazy-cycle(m=5,hold=0.5)``) is quoted, so every row keeps its cells.
"""

from __future__ import annotations

import io
import json
import re
from dataclasses import dataclass, field
from typing import Any

CSV_COLUMNS = ("name", "chain_id", "params", "bound", "value", "ci", "margin", "holds", "vacuous")

# metadata keys that get their own CSV column instead of the params blob
_RESERVED_META = ("chain_id",)

# characters that make csv.writer's default dialect quote a cell
_NEEDS_QUOTES = re.compile('[,"\r\n]').search


@dataclass
class BoundReport:
    """One inequality check: bound vs. the exact or empirical value.

    ``holds`` means ``value <= bound_value + tol``. ``ci`` is 0 for an
    exact value. An iid row's value is the Chernoff-KL statistic of a
    Monte Carlo estimate, and its ``ci`` bounds |estimate - exact| on
    every estimate that the row's test accepts (by Pinsker).
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
    def from_check(cls, name, bound_value, value, *, tol=0.0, vacuous=False, metadata=None):
        """Build a report, deriving ``margin`` and ``holds`` from the inputs."""
        bound_value = float(bound_value)
        value = float(value)
        return cls(
            name=name,
            bound_value=bound_value,
            value=value,
            margin=bound_value - value,
            holds=bool(value <= bound_value + tol),
            vacuous=vacuous,
            metadata=dict(metadata or {}),
        )

    def params_string(self) -> str:
        """Deterministic ``k=v;...`` rendering of the free-form metadata."""
        items = sorted((k, v) for k, v in self.metadata.items() if k not in _RESERVED_META)
        return ";".join(f"{k}={_fmt(v)}" for k, v in items)

    def csv_cells(self) -> tuple[str, ...]:
        """The row's cells as written, in CSV_COLUMNS order. Only ``chain_id``
        and ``params`` hold free text; every other cell is a name, a number or
        a flag, which never needs quotes."""
        return (
            self.name,
            _csv_quote(str(self.metadata.get("chain_id", ""))),
            _csv_quote(self.params_string()),
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


def _csv_quote(text: str) -> str:
    """``text`` as a CSV cell, quoted only where csv.writer would quote it."""
    if _NEEDS_QUOTES(text):
        return '"' + text.replace('"', '""') + '"'
    return text


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
    buf.write(",".join(CSV_COLUMNS) + "\n")
    buf.writelines(",".join(r.csv_cells()) + "\n" for r in reports)
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
