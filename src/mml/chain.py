"""Finite Markov chains: validation, stationary distributions, generators, JSON I/O.

A chain is a validated row-stochastic matrix ``P`` over ``m`` states.
The stationary distribution solves ``pi P = pi`` on one of two paths. A
chain of POWER_MIN_STATES = 32 or more states first runs power iteration
x <- xP from the uniform law: each step must halve the fixed-point
residual max |xP - x| until it is within the rounding of one product,
and the first step that does not drops the iterate. Every other chain,
and every chain whose iteration is dropped (periodic, slow-mixing, stiff
or nearly reducible chains), takes a direct LAPACK solve with the
normalization row replacing one equation. Below 32 states a direct solve
costs about as much as a few products, and every chain ``verify`` builds
by default (m <= 20) keeps its bits. A solve that fails or leaves a
residual above tolerance raises ``SingularSystemError``.

A chain is named by a source text: a chain file, or a descriptor
``'family:key=value;...'`` that ``parse_descriptor`` builds with ``generate``.
The text is the chain's id wherever a report names it, so the id of any row
rebuilds its chain.
"""

from __future__ import annotations

import json
import math
import os
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .errors import ChainFileError, PreconditionError, SingularSystemError, ValidationError

ROW_SUM_TOL = 1e-12
ENTRY_CLAMP = 1e-15
STATIONARY_RESIDUAL_TOL = 1e-10
# Chains of this many states or more try power iteration before the direct solve.
POWER_MIN_STATES = 32
# Rows of P read per gather, by the irreducibility search and by a one-system hitting
# solve: a (64, m) block of P's rows.
GATHER_ROWS = 64


@dataclass(frozen=True, eq=False)
class TransitionMatrix:
    """Validated row-stochastic matrix over ``m`` states."""

    m: int
    rows: np.ndarray
    labels: tuple[str, ...] | None = None

    def __post_init__(self):
        self.rows.setflags(write=False)


@dataclass(frozen=True, eq=False)
class StationaryDistribution:
    """Probability vector ``pi`` with a recomputed fixed-point residual."""

    pi: np.ndarray
    residual: float

    def __post_init__(self):
        self.pi.setflags(write=False)

    def mass(self, members) -> float:
        """Total stationary mass of a collection of state indices."""
        idx = np.asarray(sorted(members), dtype=int)
        return float(self.pi[idx].sum()) if idx.size else 0.0


@dataclass(frozen=True, eq=False)
class ChainSpec:
    """A transition matrix plus an initial distribution.

    ``start=None`` means "start from the stationary distribution"; it is
    resolved lazily so generated chains stay cheap to construct.
    """

    matrix: TransitionMatrix
    start: np.ndarray | None = None

    def __post_init__(self):
        if self.start is not None:
            s = np.asarray(self.start, dtype=float)
            if s.shape != (self.matrix.m,):
                raise ValidationError(
                    f"start has length {s.shape}, expected ({self.matrix.m},)")
            if not np.all(np.isfinite(s)):
                j = int(np.flatnonzero(~np.isfinite(s))[0])
                raise ValidationError(f"start[{j}] is not finite: {float(s[j])!r}")
            if np.any(s < 0):
                raise ValidationError("start has a negative entry")
            if abs(s.sum() - 1.0) > ROW_SUM_TOL:
                raise ValidationError(f"start sums to {float(s.sum())!r}, expected 1")
            s.setflags(write=False)
            object.__setattr__(self, "start", s)

    def resolved_start(self, pi: StationaryDistribution | None = None) -> np.ndarray:
        if self.start is not None:
            return self.start
        if pi is None:
            pi = stationary(self.matrix)
        return pi.pi


def point_start(m: int, x: int) -> np.ndarray:
    """Point-mass initial distribution at state ``x``."""
    s = np.zeros(m)
    s[x] = 1.0
    return s


def validate(raw, labels=None) -> TransitionMatrix:
    """Validate a raw square matrix as a transition matrix.

    Entries within 1e-15 outside [0, 1] are clamped (decimal round-trip
    noise); each row must sum to 1 within 1e-12.

    Raises
    ------
    ValidationError
    """
    P = np.array(raw, dtype=float)
    if P.ndim != 2 or P.shape[0] != P.shape[1] or P.shape[0] < 1:
        raise ValidationError(f"expected a square matrix, got shape {P.shape}")
    # an entry outside [0, 1], NaN included, is searched for and clamped; the rest pass
    if not (P.min() >= 0.0 and P.max() <= 1.0):
        if not np.all(np.isfinite(P)):
            i, j = np.argwhere(~np.isfinite(P))[0]
            raise ValidationError(f"P[{i}][{j}] is not finite")
        P[(P > -ENTRY_CLAMP) & (P < 0.0)] = 0.0
        P[(P > 1.0) & (P < 1.0 + ENTRY_CLAMP)] = 1.0
        if np.any(P < 0):
            i, j = np.argwhere(P < 0)[0]
            raise ValidationError(f"P[{i}][{j}] = {float(P[i, j])!r} is negative")
    sums = P.sum(axis=1)
    bad = np.flatnonzero(np.abs(sums - 1.0) > ROW_SUM_TOL)
    if bad.size:
        i = int(bad[0])
        raise ValidationError(f"row {i} sums to {float(sums[i])!r}, expected 1")
    if labels is not None:
        labels = tuple(str(x) for x in labels)
        if len(labels) != P.shape[0]:
            raise ValidationError(f"got {len(labels)} labels for {P.shape[0]} states")
    return TransitionMatrix(m=int(P.shape[0]), rows=P, labels=labels)


def is_irreducible(P: TransitionMatrix) -> bool:
    """True iff the support graph {(x, y): P(x, y) > 0} is strongly connected:
    state 0 reaches every state, and every state reaches state 0."""
    return _reaches_all(P.rows) and _reaches_all(P.rows.T)


def _reaches_all(adj: np.ndarray) -> bool:
    """True iff a breadth-first search from state 0 along the nonzero entries of ``adj``
    visits every state.

    Each state enters the frontier once, and the frontier's rows are read GATHER_ROWS
    at a time, so the row reads total O(m^2) and no m x m array is built. The search
    stops once every state is seen: on a dense chain that is after one row.
    """
    unseen = np.ones(adj.shape[0], dtype=bool)
    unseen[0] = False
    left = adj.shape[0] - 1
    frontier = np.zeros(1, dtype=np.intp)
    while frontier.size and left:
        # P's entries are >= 0, so a nonzero entry is an edge
        reached = adj[frontier[:GATHER_ROWS]].any(axis=0)
        for lo in range(GATHER_ROWS, frontier.size, GATHER_ROWS):
            reached |= adj[frontier[lo:lo + GATHER_ROWS]].any(axis=0)
        frontier = np.flatnonzero(reached & unseen)
        unseen[frontier] = False
        left -= frontier.size
    return not left


def stationary(P: TransitionMatrix) -> StationaryDistribution:
    """Solve ``pi P = pi`` for an irreducible chain.

    A chain of at least POWER_MIN_STATES = 32 states first runs power iteration from
    the uniform law (``_power_iteration``); each step must halve its residual until that
    is down to the rounding of one product. Every other chain, and one whose iteration
    fails to halve it first, takes the direct LAPACK solve (``_direct_solve``).
    Below 32 states the direct solve costs about as much as a few products, and the
    chains ``verify`` builds (m <= 20) keep its bits. Both paths end in the same checks:
    a residual above STATIONARY_RESIDUAL_TOL (NaN included), or an entry that
    underflowed to zero, raises ``SingularSystemError``.
    """
    if not is_irreducible(P):
        raise PreconditionError("chain is not irreducible")
    found = _power_iteration(P) if P.m >= POWER_MIN_STATES else None
    pi, res = found if found is not None else _direct_solve(P)
    if not res <= STATIONARY_RESIDUAL_TOL:
        raise SingularSystemError(f"stationary residual {res!r} exceeds tolerance")
    if np.any(pi <= 0):
        raise SingularSystemError("stationary entry underflowed to zero on an irreducible chain")
    return StationaryDistribution(pi=pi, residual=res)


def _power_iteration(P: TransitionMatrix) -> tuple[np.ndarray, float] | None:
    """pi and its residual by x <- xP from the uniform law, or None where it does not contract.

    Each step takes one product y = xP; max |y - x| is x's own residual, and y,
    renormalized, is the next x. Until the residual is within the rounding of one
    product, m * eps * max x, every step must halve it: the first that does not ends
    the iteration and returns None, so an attempt stops within about 60 products.
    From there the iteration goes on while the residual still falls, and keeps the x
    of the smallest. It only adds non-negative terms.
    """
    rounding = P.m * np.finfo(float).eps
    x = np.full(P.m, 1.0 / P.m)
    best, best_res = x, math.inf
    while True:
        y = x @ P.rows
        res = float(np.max(np.abs(y - x)))
        converged = best_res <= rounding * best.max()
        if not res < (best_res if converged else best_res / 2):
            return (best, best_res) if converged else None
        best, best_res = x, res
        x = y / y.sum()


def _direct_solve(P: TransitionMatrix) -> tuple[np.ndarray, float]:
    """pi and its residual by one LAPACK solve of ``(P^T - I) pi = 0`` with the last
    equation replaced by ``sum(pi) = 1``, then clipped to >= 0 and normalized.

    Raises ``SingularSystemError`` if the solve fails, or if its residual before
    clipping exceeds STATIONARY_RESIDUAL_TOL; a non-finite solve has a NaN residual.
    """
    m = P.m
    # A^T = P - I with its last column set to 1, so A is column-major, as the solver copies it
    At = P.rows.copy()
    At.flat[::m + 1] -= 1.0
    At[:, -1] = 1.0
    b = np.zeros(m)
    b[-1] = 1.0
    try:
        pi = np.linalg.solve(At.T, b)
    except np.linalg.LinAlgError as e:
        raise SingularSystemError(f"stationary solve failed: {e}") from e
    res = _residual(pi, P)
    if not res <= STATIONARY_RESIDUAL_TOL:
        raise SingularSystemError(f"stationary solve residual {res!r} exceeds tolerance")
    pi = np.clip(pi, 0.0, None)
    pi = pi / pi.sum()
    return pi, _residual(pi, P)


def _residual(pi, P) -> float:
    return float(np.max(np.abs(pi @ P.rows - pi)))


def generate(family: str, /, m: int | None = None, **params) -> ChainSpec:
    """Deterministic chain construction for a named family.

    Families: ``iid(mu)``, ``two-state(p, q)``, ``lazy-cycle(m, hold)``,
    ``birth-death(m, p, q)``, ``random-dense(m, alpha, seed)``. Every family is
    irreducible by construction. A parameter the family does not read, such as
    a ``seed`` given to any family but random-dense (whose seed defaults to 0),
    is rejected. ``iid`` and ``two-state`` take their size from their
    parameters, so an ``m`` given to them must equal it.
    """
    if family not in FAMILY_BUILDERS:
        raise ValidationError(f"unknown chain family {family!r}; known: {CHAIN_FAMILIES}")
    rows = FAMILY_BUILDERS[family](m, params)
    _reject_extras(family, params)
    if m is not None and m != len(rows):
        raise ValidationError(f"{family} with these parameters has {len(rows)} states, got m={m}")
    return ChainSpec(matrix=validate(rows))


def _reject_extras(family, params):
    if params:
        raise ValidationError(f"unused parameters for family {family!r}: {sorted(params)}")


def _gen_iid(m, params):  # the size is mu's
    mu = np.asarray(params.pop("mu", None), dtype=float)
    if mu.ndim != 1 or mu.size < 1:
        raise ValidationError("iid needs a 1-d probability vector mu")
    if not (np.all(mu > 0) and abs(mu.sum() - 1.0) <= ROW_SUM_TOL):  # NaN fails too
        raise ValidationError("mu must be a strictly positive distribution")
    return np.tile(mu, (mu.size, 1))


def _gen_two_state(m, params):  # the size is 2
    p = params.pop("p", None)
    q = params.pop("q", None)
    if p is None or q is None or not (0 < p <= 1) or not (0 < q <= 1):
        raise ValidationError("two-state needs flip probabilities p, q in (0, 1]")
    return np.array([[1 - p, p], [q, 1 - q]])


def _gen_lazy_cycle(m, params):
    hold = params.pop("hold", None)
    if m is None or m < 1:
        raise ValidationError("lazy-cycle needs m >= 1")
    if hold is None or not (0 <= hold < 1):
        raise ValidationError("lazy-cycle needs hold probability in [0, 1)")
    i, step = np.arange(m), (1 - hold) / 2
    rows = np.zeros((m, m))
    for j, w in ((i, hold), ((i + 1) % m, step), ((i - 1) % m, step)):
        np.add.at(rows, (i, j), w)  # in index order: a cell hit twice (m <= 2) sums in turn
    return rows


def _gen_birth_death(m, params):
    p = params.pop("p", None)
    q = params.pop("q", None)
    if m is None or m < 1:
        raise ValidationError("birth-death needs m >= 1")
    if p is None or q is None or not (p > 0 and q > 0 and p + q <= 1):  # NaN fails too
        raise ValidationError("birth-death needs p > 0, q > 0 with p + q <= 1")
    up, down = np.full(m, float(p)), np.full(m, float(q))
    up[-1] = down[0] = 0.0
    return np.diag(1.0 - up - down) + np.diag(up[:-1], 1) + np.diag(down[1:], -1)


def _gen_random_dense(m, params):
    alpha = params.pop("alpha", 1.0)
    seed = params.pop("seed", 0)
    if m is None or m < 1:
        raise ValidationError("random-dense needs m >= 1")
    if not 0 < alpha < math.inf:  # NaN fails too
        raise ValidationError("random-dense needs a finite alpha > 0")
    from .simulate import derive_stream

    rng = derive_stream(seed, 0)
    rows = rng.dirichlet(np.full(m, float(alpha)), size=m)
    # Dirichlet samples are strictly positive a.s.; clamp defensively.
    np.clip(rows, 1e-300, None, out=rows)
    rows /= rows.sum(axis=1, keepdims=True)
    return rows


# each family's builder of its rows from (m, params); it pops the parameters it reads
FAMILY_BUILDERS = {"iid": _gen_iid, "two-state": _gen_two_state, "lazy-cycle": _gen_lazy_cycle,
                   "birth-death": _gen_birth_death, "random-dense": _gen_random_dense}
CHAIN_FAMILIES = tuple(FAMILY_BUILDERS)


# --- chain sources ----------------------------------------------------------


def list_items(text: str) -> list[str]:
    """The non-empty items of a list separated by ',' or by '|', as a report's params cell
    writes a set: the one tokenizer of every list a flag, config key or descriptor takes."""
    return [tok for tok in text.replace("|", ",").split(",") if tok != ""]


def parse_float_vector(text: str) -> np.ndarray:
    try:
        return np.array([float(tok) for tok in list_items(text)])
    except ValueError as e:
        raise ValidationError(f"bad number list {text!r}") from e


# descriptor parameters not parsed as a float: their parser and what a value must be
DESCRIPTOR_VALUES = {"mu": (parse_float_vector, "a comma-separated number list"),
                     "m": (int, "an integer"), "seed": (int, "an integer")}


def parse_descriptor(text: str) -> tuple[str, ChainSpec]:
    """The chain 'family:key=value;key=value' names, each key at most once, with the text
    as its id; a float parameter read back from its ``repr`` is the float written."""
    family, _, rest = text.partition(":")
    params: dict = {}
    for tok in rest.split(";"):
        if not tok:
            continue
        if "=" not in tok:
            raise ValidationError(f"bad descriptor parameter {tok!r} in {text!r}")
        k, v = tok.split("=", 1)
        if k in params:
            raise ValidationError(f"descriptor {text!r}: parameter {k!r} is given twice")
        parse, what = DESCRIPTOR_VALUES.get(k, (float, "a number"))
        try:
            params[k] = parse(v)
        except (ValueError, ValidationError) as e:
            raise ValidationError(f"descriptor {text!r}: parameter {k!r} must be {what}, "
                                  f"got {v!r}") from e
    return text, generate(family, **params)


def chain_source(text: str) -> tuple[str, ChainSpec]:
    """A chain given by the user: a .json path or an existing file, else a descriptor;
    the text is its id."""
    if text.endswith(".json") or os.path.exists(text):
        return text, load_chain(text)
    return parse_descriptor(text)


# --- chain-spec files -------------------------------------------------------
#
# UTF-8 JSON object {"m": int, "P": [[...]], "labels": [...]?, "start": [...]?}
# Absent "start" means "use the stationary distribution".


def chain_to_dict(chain: ChainSpec) -> dict:
    out = {"m": chain.matrix.m, "P": [list(map(float, row)) for row in chain.matrix.rows]}
    if chain.matrix.labels is not None:
        out["labels"] = list(chain.matrix.labels)
    if chain.start is not None:
        out["start"] = list(map(float, chain.start))
    return out


def save_chain(chain: ChainSpec, path) -> None:
    Path(path).write_text(json.dumps(chain_to_dict(chain), indent=2) + "\n", encoding="utf-8")


def load_chain(path) -> ChainSpec:
    """Load and validate a chain-spec file; errors name the offending field."""
    path = Path(path)
    try:
        text = path.read_text(encoding="utf-8")
    except OSError as e:
        raise ChainFileError(f"{path}: {e.strerror or e}") from e
    try:
        obj = json.loads(text)
    except json.JSONDecodeError as e:
        raise ChainFileError(f"{path}: line {e.lineno} column {e.colno}: {e.msg}") from e
    return chain_from_dict(obj, where=str(path))


def chain_from_dict(obj, where="<chain>") -> ChainSpec:
    if not isinstance(obj, dict):
        raise ChainFileError(f"{where}: top level must be a JSON object")
    if "m" not in obj:
        raise ChainFileError(f"{where}: field 'm' is missing")
    m = obj["m"]
    if not isinstance(m, int) or isinstance(m, bool) or m < 1:
        raise ChainFileError(f"{where}: field 'm' must be an integer >= 1, got {m!r}")
    if "P" not in obj:
        raise ChainFileError(f"{where}: field 'P' is missing")
    P = obj["P"]
    if not isinstance(P, list) or len(P) != m:
        raise ChainFileError(f"{where}: field 'P' must be a list of {m} rows")
    for i, row in enumerate(P):
        if not isinstance(row, list) or len(row) != m:
            raise ChainFileError(f"{where}: P[{i}] must be a list of {m} numbers")
        for j, v in enumerate(row):
            if not isinstance(v, (int, float)) or isinstance(v, bool) or not math.isfinite(v):
                raise ChainFileError(f"{where}: P[{i}][{j}] is not a finite number: {v!r}")
    labels = obj.get("labels")
    if labels is not None:
        if not isinstance(labels, list) or len(labels) != m:
            raise ChainFileError(f"{where}: field 'labels' must be a list of {m} strings")
    start = obj.get("start")
    if start is not None:
        if not isinstance(start, list) or len(start) != m:
            raise ChainFileError(f"{where}: field 'start' must be a list of {m} numbers")
        for j, v in enumerate(start):
            if not isinstance(v, (int, float)) or isinstance(v, bool) or not math.isfinite(v):
                raise ChainFileError(f"{where}: start[{j}] is not a finite number: {v!r}")
    extra = set(obj) - {"m", "P", "labels", "start"}
    if extra:
        raise ChainFileError(f"{where}: unknown field {sorted(extra)[0]!r}")
    matrix = validate(P, labels=labels)
    return ChainSpec(matrix=matrix, start=np.asarray(start, dtype=float) if start is not None else None)
