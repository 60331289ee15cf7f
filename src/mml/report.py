"""Per-inequality comparison records, the column blocks that hold them, and
their CSV/JSON serialization.

A suite's reports are one ``ReportBlock``: one column per CSV column, and
one per metadata key. Every check, from the suites to the one-row checks of
the CLI, builds its rows with ``ReportBlock.of_check`` from its arrays, and
a suite joins its blocks with ``ReportBlock.concat``, which also joins
blocks whose metadata keys differ. ``render_reports_csv`` renders a block
column by column: each label (a chain id, a member set) is formatted once,
and each float column is formatted from its distinct values.

Report CSV bodies are deterministic: metadata (tool version, seed,
constants) lives in ``#``-prefixed header lines, data rows carry
repr-formatted floats so files round-trip and diff cleanly. A row holds no
cell that its other cells determine: bound - value, for one, is left to the
reader. Cells are quoted as ``csv.writer``'s default dialect quotes them: a
cell holding a comma, a quote, ``\r`` or ``\n`` (chain ids such as
``iid:mu=0.25,0.75``) is quoted, so every row keeps its cells.
"""

from __future__ import annotations

import json
import re
from collections import namedtuple
from dataclasses import dataclass
from itertools import repeat
from typing import Any

import numpy as np

CSV_COLUMNS = ("name", "chain_id", "params", "bound", "value", "ci", "holds", "vacuous")

# characters that make csv.writer's default dialect quote a cell
_NEEDS_QUOTES = re.compile('[,"\r\n]').search

# rows rendered at a time, which bounds the memory their texts take before the join
RENDER_CHUNK = 4096

# A column of arbitrary values: row i holds labels[codes[i]]. In ``params``, code -1
# marks a row without the key.
Labels = namedtuple("Labels", "codes labels")


@dataclass
class BoundReport:
    """One row of a ``ReportBlock``: an inequality's bound vs. the exact or
    empirical value.

    ``holds`` means ``value <= bound_value + tol``. ``ci`` is 0 for an
    exact value. An iid row's value is the Chernoff-KL statistic of a
    Monte Carlo estimate, and its ``ci`` bounds |estimate - exact| on
    every estimate that the row's test accepts (by Pinsker).
    """

    name: str
    bound_value: float
    value: float
    holds: bool
    vacuous: bool
    ci: float
    metadata: dict[str, Any]

    def to_dict(self) -> dict[str, Any]:
        """The row as JSON data; the chain id "" of a check of no chain is left out."""
        metadata = {k: _jsonable(v) for k, v in self.metadata.items()}
        if metadata.get("chain_id") == "":
            del metadata["chain_id"]
        return {
            "name": self.name,
            "bound": self.bound_value,
            "value": self.value,
            "ci": self.ci,
            "holds": self.holds,
            "vacuous": self.vacuous,
            "metadata": metadata,
        }


@dataclass
class ReportBlock:
    """Report rows held as columns.

    ``name`` and ``chain_id`` are ``Labels``; ``bound``, ``value`` and ``ci``
    are float arrays; ``holds`` and ``vacuous`` bool arrays.
    ``params`` maps each metadata key to its column: a bool, int or float
    array when every row has the key, else ``Labels``. Indexing or iterating
    a block gives its rows as ``BoundReport``s.
    """

    name: Labels
    chain_id: Labels
    bound: np.ndarray
    value: np.ndarray
    ci: np.ndarray
    holds: np.ndarray
    vacuous: np.ndarray
    params: dict[str, Any]

    @classmethod
    def of_check(cls, name, chain_id, bound, value, holds, vacuous, params):
        """Rows of checks, with ``ci`` 0.

        ``bound`` and ``value`` are the float columns and fix the row count.
        Each other argument is a column or one value for every row: ``name``
        and ``chain_id`` are ``Labels`` or one label, ``holds`` and ``vacuous``
        bool arrays or one bool, and a params value that is neither an array
        nor ``Labels`` (a member set is a tuple) is the one label of its key.
        """
        bound, value = np.asarray(bound, dtype=float), np.asarray(value, dtype=float)
        same = np.zeros(len(bound), dtype=np.intp)
        name, chain_id = (col if isinstance(col, Labels) else Labels(same, [col])
                          for col in (name, chain_id))
        holds, vacuous = (np.full(len(bound), col, dtype=bool) if np.ndim(col) == 0 else col
                          for col in (holds, vacuous))
        params = {k: col if isinstance(col, (np.ndarray, Labels)) else Labels(same, [col])
                  for k, col in params.items()}
        return cls(name, chain_id, bound, value, np.zeros(len(bound)), holds, vacuous, params)

    @classmethod
    def concat(cls, blocks, order=None) -> "ReportBlock":
        """The rows of ``blocks`` in order, or with ``order`` the rows at ``order`` of
        those. A params key that every block holds as an array stays an array; any
        other key becomes ``Labels``, with code -1 on the rows of a block without
        it. Columns that share one ``labels`` list share it in the result too."""
        def join(cols):
            if not any(isinstance(c, Labels) for c in cols):
                col = np.concatenate(cols)
                return col if order is None else col[order]
            cols = [c if isinstance(c, Labels) else Labels(np.arange(len(c)), c.tolist())
                    for c in cols]
            offsets: dict[int, int] = {}
            labels: list = []
            for c in cols:
                if id(c.labels) not in offsets:
                    offsets[id(c.labels)] = len(labels)
                    labels += c.labels
            codes = np.concatenate([np.where(c.codes < 0, -1, c.codes + offsets[id(c.labels)])
                                    for c in cols])
            return Labels(codes if order is None else codes[order], labels)

        # column by column, so at most one column is held in both orders
        columns = {f: join([getattr(b, f) for b in blocks])
                   for f in ("name", "chain_id", "bound", "value", "ci", "holds", "vacuous")}
        keys = dict.fromkeys(k for b in blocks for k in b.params)
        return cls(**columns, params={
            k: join([b.params[k] if k in b.params else Labels(np.full(len(b), -1), [])
                     for b in blocks]) for k in keys})

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
                           holds=bool(self.holds[i]), vacuous=bool(self.vacuous[i]),
                           ci=float(self.ci[i]), metadata=metadata)

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
    """The texts of ``col`` in ``rows``: formatted labels, or an array's values by dtype.
    Each distinct float is formatted once, by ``repr``; floats are told apart by their
    bit patterns, so -0.0 keeps its sign."""
    if isinstance(col, Labels):
        return list(map(col.labels.__getitem__, col.codes[rows].tolist()))
    values = col[rows]
    if col.dtype == bool:
        return [("false", "true")[v] for v in values.tolist()]
    if col.dtype.kind != "f":
        return list(map(str, values.tolist()))
    distinct, codes = np.unique(np.ascontiguousarray(values, dtype=np.float64).view(np.uint64),
                                return_inverse=True)
    texts = list(map(repr, distinct.view(np.float64).tolist()))
    return list(map(texts.__getitem__, codes.reshape(-1).tolist()))


def render_reports_csv(reports: ReportBlock, header_meta=None) -> str:
    """Render a block of reports as CSV text; ``header_meta`` goes into ``#`` lines.

    Each label, and each distinct float of a chunk of rows, is formatted
    once. A params cell joins ";k=v" for each key the row has and cuts the
    leading ";"; it needs quotes only when a key or a label does, as numbers
    and flags never do. Rows are joined RENDER_CHUNK at a time.
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
    fixed = (reports.bound, reports.value, reports.ci, reports.holds, reports.vacuous)
    pieces = [f"# {k}={_fmt(v)}\n" for k, v in (header_meta or {}).items()]
    pieces.append(",".join(CSV_COLUMNS) + "\n")
    for lo in range(0, len(reports), RENDER_CHUNK):
        rows = slice(lo, lo + RENDER_CHUNK)
        names = _cells(name, rows)
        parts = [repeat(p) if isinstance(p, str) else _cells(p, rows) for p in params]
        cells = ["".join(row)[1:] for row in zip(*parts)] if parts else [""] * len(names)
        if quote:
            cells = list(map(_csv_quote, cells))
        pieces.append("\n".join(map(",".join, zip(names, _cells(chain_id, rows), cells,
                                                  *(_cells(col, rows) for col in fixed)))) + "\n")
    return "".join(pieces)


def render_reports_json(reports: ReportBlock, header_meta=None) -> str:
    """Render a block of reports as JSON, one object per row, keys sorted."""
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
