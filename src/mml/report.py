"""Per-inequality comparison records, the column blocks that hold them, and
their CSV/JSON serialization.

A suite's reports are one ``ReportBlock``: one column per CSV column, and
one per metadata key. The lemma kernels fill a block straight from their
arrays; a list of ``BoundReport``s becomes one through
``ReportBlock.from_reports``. ``render_reports_csv`` renders a block column
by column: each label (a chain id, a member set) is formatted once, and
numeric columns are formatted from their arrays.

Report CSV bodies are deterministic: metadata (tool version, seed,
constants) lives in ``#``-prefixed header lines, data rows carry
repr-formatted floats so files round-trip and diff cleanly. Cells are
quoted as ``csv.writer``'s default dialect quotes them: a cell holding a
comma, a quote, ``\r`` or ``\n`` (chain ids such as
``lazy-cycle(m=5,hold=0.5)``) is quoted, so every row keeps its cells.
"""

from __future__ import annotations

import json
import re
from collections import namedtuple
from dataclasses import dataclass, field
from itertools import repeat
from typing import Any

import numpy as np

CSV_COLUMNS = ("name", "chain_id", "params", "bound", "value", "ci", "margin", "holds", "vacuous")

# metadata keys that get their own CSV column instead of the params blob
_RESERVED_META = ("chain_id",)

# characters that make csv.writer's default dialect quote a cell
_NEEDS_QUOTES = re.compile('[,"\r\n]').search

# rows rendered at a time, which bounds the memory their texts take before the join
RENDER_CHUNK = 4096

# A column of arbitrary values: row i holds labels[codes[i]]. In ``params``, code -1
# marks a row without the key.
Labels = namedtuple("Labels", "codes labels")


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


@dataclass
class ReportBlock:
    """Report rows held as columns.

    ``name`` and ``chain_id`` are ``Labels``; ``bound``, ``value``, ``ci``
    and ``margin`` are float arrays; ``holds`` and ``vacuous`` bool arrays.
    ``params`` maps each metadata key to its column: a bool, int or float
    array when every row has the key, else ``Labels``. Indexing or iterating
    a block gives its rows as ``BoundReport``s.
    """

    name: Labels
    chain_id: Labels
    bound: np.ndarray
    value: np.ndarray
    ci: np.ndarray
    margin: np.ndarray
    holds: np.ndarray
    vacuous: np.ndarray
    params: dict[str, Any]

    @classmethod
    def of_check(cls, name: str, chain_id: str, bound, value, holds, vacuous, params):
        """Rows of one exact check on one chain: ``ci`` is 0 and ``margin`` is bound - value."""
        same = np.zeros(len(bound), dtype=np.intp)
        return cls(Labels(same, [name]), Labels(same, [chain_id]), bound, value,
                   np.zeros(len(bound)), bound - value, holds, vacuous, params)

    @classmethod
    def from_reports(cls, reports) -> "ReportBlock":
        """The block of a list of reports, row for row."""
        n = len(reports)
        params: dict[str, Labels] = {}
        for i, r in enumerate(reports):
            for k, v in r.metadata.items():
                if k in _RESERVED_META:
                    continue
                if k not in params:
                    params[k] = Labels(np.full(n, -1, dtype=np.intp), [])
                col = params[k]
                col.codes[i] = len(col.labels)
                col.labels.append(v)
        rows = np.arange(n)
        return cls(
            name=Labels(rows, [r.name for r in reports]),
            chain_id=Labels(rows, [str(r.metadata.get("chain_id", "")) for r in reports]),
            bound=np.array([r.bound_value for r in reports], dtype=float),
            value=np.array([r.value for r in reports], dtype=float),
            ci=np.array([r.ci for r in reports], dtype=float),
            margin=np.array([r.margin for r in reports], dtype=float),
            holds=np.array([bool(r.holds) for r in reports], dtype=bool),
            vacuous=np.array([bool(r.vacuous) for r in reports], dtype=bool),
            params=params,
        )

    @classmethod
    def concat(cls, blocks) -> "ReportBlock":
        """The rows of ``blocks`` in order; the blocks share their params keys, and each
        key's column is an array in all of them or ``Labels`` in all of them. Columns
        that share one ``labels`` list share it in the result too."""
        def join(cols):
            if not isinstance(cols[0], Labels):
                return np.concatenate(cols)
            offsets: dict[int, int] = {}
            labels: list = []
            for c in cols:
                if id(c.labels) not in offsets:
                    offsets[id(c.labels)] = len(labels)
                    labels += c.labels
            return Labels(np.concatenate([np.where(c.codes < 0, -1, c.codes + offsets[id(c.labels)])
                                          for c in cols]), labels)

        columns = {f: join([getattr(b, f) for b in blocks])
                   for f in ("name", "chain_id", "bound", "value", "ci", "margin", "holds",
                             "vacuous")}
        return cls(**columns, params={k: join([b.params[k] for b in blocks])
                                      for k in blocks[0].params})

    def __len__(self) -> int:
        return len(self.bound)

    def __getitem__(self, i: int) -> BoundReport:
        metadata = {"chain_id": self.chain_id.labels[self.chain_id.codes[i]]}
        for k, col in self.params.items():
            if not isinstance(col, Labels):
                metadata[k] = col[i].item()
            elif col.codes[i] >= 0:
                metadata[k] = col.labels[col.codes[i]]
        return BoundReport(name=self.name.labels[self.name.codes[i]],
                           bound_value=float(self.bound[i]), value=float(self.value[i]),
                           margin=float(self.margin[i]), holds=bool(self.holds[i]),
                           vacuous=bool(self.vacuous[i]), ci=float(self.ci[i]),
                           metadata=metadata)

    def __iter__(self):
        return (self[i] for i in range(len(self)))


def _fmt(v) -> str:
    if isinstance(v, (bool, np.bool_)):
        return "true" if v else "false"
    if isinstance(v, float):
        return repr(float(v))  # plain float repr even for numpy scalars
    if isinstance(v, (list, tuple)):
        return "|".join(_fmt(x) for x in v)
    return str(v)


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


def _format_labels(col: Labels, fmt) -> Labels:
    """``col`` with each label formatted by ``fmt``, and "" appended for code -1."""
    return Labels(col.codes, [fmt(v) for v in col.labels] + [""])


def _cells(col, rows: slice) -> list[str]:
    """The texts of ``col`` in ``rows``: formatted labels, or an array's values by dtype."""
    if isinstance(col, Labels):
        return list(map(col.labels.__getitem__, col.codes[rows].tolist()))
    values = col[rows].tolist()
    if col.dtype == bool:
        return [("false", "true")[v] for v in values]
    return list(map(repr if col.dtype.kind == "f" else str, values))


def render_reports_csv(reports: ReportBlock, header_meta=None) -> str:
    """Render a block of reports as CSV text; ``header_meta`` goes into ``#`` lines.

    Each label is formatted once. A params cell joins ";k=v" for each key
    the row has and cuts the leading ";"; it needs quotes only when a key or
    a label does, as numbers and flags never do. Rows are joined
    RENDER_CHUNK at a time.
    """
    name = _format_labels(reports.name, str)
    chain_id = _format_labels(reports.chain_id, lambda v: _csv_quote(str(v)))
    params, quote = [], False
    for k in sorted(reports.params):
        col = reports.params[k]
        if isinstance(col, Labels):
            col = _format_labels(col, lambda v: f";{k}={_fmt(v)}")
            quote = quote or any(map(_NEEDS_QUOTES, col.labels))
            params.append(col)
        else:
            quote = quote or bool(_NEEDS_QUOTES(k))
            params += [f";{k}=", col]
    fixed = (reports.bound, reports.value, reports.ci, reports.margin, reports.holds,
             reports.vacuous)
    pieces = [f"# {k}={_fmt(v)}\n" for k, v in (header_meta or {}).items()]
    pieces.append(",".join(CSV_COLUMNS) + "\n")
    for lo in range(0, len(reports), RENDER_CHUNK):
        rows = slice(lo, lo + RENDER_CHUNK)
        names = _cells(name, rows)
        parts = [repeat(p) if isinstance(p, str) else _cells(p, rows) for p in params]
        cells = ["".join(row)[1:] for row in zip(*parts)] if parts else [""] * len(names)
        if quote:
            cells = list(map(_csv_quote, cells))
        pieces.append("".join(map("{},{},{},{},{},{},{},{},{}\n".format, names,
                                  _cells(chain_id, rows), cells,
                                  *(_cells(col, rows) for col in fixed))))
    return "".join(pieces)


def render_reports_json(reports, header_meta=None) -> str:
    payload = {
        "meta": {k: _jsonable(v) for k, v in (header_meta or {}).items()},
        "reports": [r.to_dict() for r in reports],
    }
    return json.dumps(payload, indent=2, sort_keys=True) + "\n"


def format_params(params: dict) -> str:
    """``k=v;...`` in sorted key order, each value formatted as in a params cell."""
    return ";".join(f"{k}={_fmt(params[k])}" for k in sorted(params))


def csv_body(text: str) -> str:
    """Strip ``#`` metadata lines; what remains must be byte-stable across runs."""
    return "".join(line for line in text.splitlines(keepends=True) if not line.startswith("#"))
