"""Compare the CSV bodies of two report directories cell by cell.

    python tests/body_diff.py DIR_A DIR_B

For each ``*.csv`` file of either directory it prints how many rows moved and
which columns moved, the largest relative move of a float, and every changed
verdict (``holds`` or ``vacuous``) or coordinate cell. A ``k=v;...`` cell (params,
a violation's coordinates) is compared piece by piece: its float values may move,
while its keys, sets and integers (J, n, t) are coordinates, as is any other cell
that is not a float (a name, a chain id, a count). The last line says whether
``summary.csv`` is equal. ``#`` lines are skipped. Rows are matched by position;
a file missing on one side, or a different header or row count, counts as a
coordinate change.

Exits 1 only when a verdict or coordinate cell changed, else 0: float cells
that move in their last bits (another BLAS kernel, another summation order)
are reported, not failed.
"""

from __future__ import annotations

import csv
import math
import re
import sys
from collections import Counter
from pathlib import Path

VERDICTS = ("holds", "vacuous")
_FLOAT = re.compile(r"[-+]?(\d+\.\d*(e[-+]?\d+)?|\d+e[-+]?\d+|inf|nan)", re.IGNORECASE)


def _rows(path: Path) -> list[list[str]]:
    with path.open(newline="") as fh:
        return list(csv.reader(line for line in fh if not line.startswith("#")))


def _is_float(text: str) -> bool:
    return _FLOAT.fullmatch(text) is not None


def _relative(a: str, b: str) -> float:
    x, y = float(a), float(b)
    if not (math.isfinite(x) and math.isfinite(y)):
        return math.inf
    return abs(x - y) / max(abs(x), abs(y))


def _move(x: str, y: str) -> float | None:
    """The largest relative move among the float pieces of two cells, or None when a
    piece that is not a float changed."""
    a, b = re.split(r"([;=])", x), re.split(r"([;=])", y)
    if len(a) != len(b):
        return None
    largest = 0.0
    for p, q in zip(a, b):
        if p != q:
            if not (_is_float(p) and _is_float(q)):
                return None
            largest = max(largest, _relative(p, q))
    return largest


def compare_file(name: str, a: Path, b: Path) -> tuple[list[str], bool]:
    """Report lines for one file, and whether a verdict or coordinate cell changed."""
    if not (a.exists() and b.exists()):
        return [f"{name}: only in {a.parent if a.exists() else b.parent}"], True
    rows_a, rows_b = _rows(a), _rows(b)
    if not rows_a or not rows_b or rows_a[0] != rows_b[0] or len(rows_a) != len(rows_b):
        return [f"{name}: header or row count differs "
                f"({len(rows_a) - 1} rows against {len(rows_b) - 1})"], True
    header, moved_rows, moved, largest, changes = rows_a[0], 0, Counter(), 0.0, []
    for i, (ra, rb) in enumerate(zip(rows_a[1:], rows_b[1:]), start=1):
        if ra == rb:
            continue
        moved_rows += 1
        if len(ra) != len(rb):
            changes.append(f"  row {i}: {len(ra)} cells against {len(rb)}")
            continue
        for column, x, y in zip(header, ra, rb):
            if x == y:
                continue
            moved[column] += 1
            move = None if column in VERDICTS else _move(x, y)
            if move is not None:
                largest = max(largest, move)
            else:
                changes.append(f"  row {i} ({ra[0]}): {column} {x!r} -> {y!r}")
    if not moved_rows:
        return [f"{name}: identical ({len(rows_a) - 1} rows)"], False
    by_column = ", ".join(f"{column} {count}" for column, count in moved.items())
    lines = [f"{name}: {moved_rows} of {len(rows_a) - 1} rows moved; cells by column: "
             f"{by_column}; largest relative move of a float {largest:.3g}"]
    lines += changes or ["  no verdict or coordinate cell changed"]
    return lines, bool(changes)


def main(argv: list[str]) -> int:
    if len(argv) != 2:
        print(__doc__.strip().splitlines()[0], "\nusage: body_diff.py DIR_A DIR_B", file=sys.stderr)
        return 2
    a, b = map(Path, argv)
    changed = False
    for name in sorted({p.name for p in a.glob("*.csv")} | {p.name for p in b.glob("*.csv")}):
        lines, failed = compare_file(name, a / name, b / name)
        print("\n".join(lines))
        changed |= failed
    equal = (a / "summary.csv").exists() and (b / "summary.csv").exists() and \
        _rows(a / "summary.csv") == _rows(b / "summary.csv")
    print(f"summary.csv {'equal' if equal else 'differs'}")
    return int(changed)


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
