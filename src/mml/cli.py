"""Command-line harness: chain tools, hitting-time queries, simulation, bounds, verification.

Each leaf subcommand has one handler and exactly the flags it reads. A handler
returns its output text, which ``main`` writes to ``--out`` or stdout; ``verify``
writes a report directory and returns its exit code instead. A command that reads
a chain names it with ``--chain SOURCE``, a chain file or a descriptor
``'family:key=value;...'`` (``chain_source``), as each entry of verify's ``chains``
config is; the SOURCE text is the chain's id in the output. Every row of a ``verify``
report names its chain the same way, so ``--chain`` given a row's ``chain_id``
rebuilds the row's chain, and ``hit lemma1``, ``hit lemma2`` or ``hit survival``
replays the row.

Exit codes: 0 success, 1 verification found violations, 2 file/parse
error, 3 validation error, 4 mathematical precondition, 5 the rate
constant c cannot be calibrated. Report CSVs carry metadata in ``#`` header lines;
bodies are deterministic functions of the seed.
"""

from __future__ import annotations

import argparse
import csv
import json
import math
import sys
from dataclasses import fields
from pathlib import Path

import numpy as np

from . import __version__
from . import bounds as bnd
from .chain import (
    ROW_SUM_TOL,
    ChainSpec,
    StationaryDistribution,
    chain_source,
    chain_to_dict,
    is_irreducible,
    parse_float_vector,
    stationary,
)
from .errors import (
    ChainFileError,
    InsufficientTrialsError,
    MMLError,
    PreconditionError,
    SingularSystemError,
    ValidationError,
)
from .hitting import StateSet, hitting_table, survival_probabilities, t_large
from .report import format_params, render_reports_csv, render_reports_json
from .simulate import (
    _check_at_least_one,
    empirical_mgf,
    first_visit_table,
    missing_mass_values,
)
from .verify import (
    SUITE_ORDER,
    VerifyOptions,
    check_lemma1,
    check_lemma2,
    pinsker_check,
    product_inequality_check,
    run_all,
    run_suite,
)

EXIT_VIOLATIONS = 1
# the exit code of each error class, as listed above; an error takes the code of its
# nearest listed class
EXIT_CODES = {ChainFileError: 2, ValidationError: 3, PreconditionError: 4,
              SingularSystemError: 4, InsufficientTrialsError: 5, MMLError: 3}


def parse_index_set(text: str) -> StateSet:
    """State indices separated by ',' or by '|', as a report's params cell writes a set."""
    try:
        return StateSet(tuple(int(tok) for tok in text.replace("|", ",").split(",") if tok != ""))
    except ValueError as e:
        raise ValidationError(f"bad index list {text!r}: expected integers separated by ',' or '|'") from e


def parse_grid(text: str) -> list[int]:
    """n-grids: 'a..b' inclusive or comma-separated integers."""
    try:
        if ".." in text:
            lo, hi = text.split("..", 1)
            return list(range(int(lo), int(hi) + 1))
        return [int(tok) for tok in text.split(",") if tok != ""]
    except ValueError as e:
        raise ValidationError(f"bad grid {text!r}: expected 'a..b' or comma-separated integers") from e


def _chain(args) -> tuple[str, ChainSpec]:
    """The SOURCE text of ``--chain`` and the chain it names."""
    if args.chain is None:
        raise ValidationError("no chain given: use --chain FILE|DESCRIPTOR")
    return chain_source(args.chain)


def _json(obj) -> str:
    return json.dumps(obj, indent=2) + "\n"


def _csv(meta: dict, header: str, rows) -> str:
    """``# key=value`` metadata lines, then a CSV header and its rows."""
    return "\n".join([*(f"# {k}={v}" for k, v in meta.items()), header, *rows]) + "\n"


def _report(block, args) -> str:
    """A check's block of reports, in the ``--format`` asked for."""
    render = render_reports_json if args.format == "json" else render_reports_csv
    return render(block, _meta(args))


def _meta(args, **extra) -> dict:
    meta = {"tool": f"mml {__version__}"}
    for key in ("seed", "trials", "n", "workers"):
        if hasattr(args, key):
            meta[key] = getattr(args, key)
    meta.update(extra)
    return meta


# --- chain ------------------------------------------------------------------


def cmd_chain_validate(args) -> str:
    P = _chain(args)[1].matrix
    return f"ok m={P.m} irreducible={'true' if is_irreducible(P) else 'false'}\n"


def cmd_chain_stationary(args) -> str:
    pi = stationary(_chain(args)[1].matrix)
    if args.format == "json":
        return _json({"pi": list(map(float, pi.pi)), "residual": pi.residual})
    pretty = ", ".join(f"{x:.6g}" for x in pi.pi)
    return f"pi = ({pretty})\nresidual = {pi.residual!r}\n"


def cmd_chain_generate(args) -> str:
    return _json(chain_to_dict(_chain(args)[1]))


# --- hit --------------------------------------------------------------------


def cmd_hit_table(args) -> str:
    chain_id, chain = _chain(args)
    table = hitting_table(chain.matrix, parse_index_set(args.B))
    if args.format == "json":
        return _json({"B": list(table.target.members), "h": list(map(float, table.h)),
                      "t_plus_all": table.t_plus_all})
    return _csv({"chain": chain_id}, "state,h",
                [f"{x},{float(h)!r}" for x, h in enumerate(table.h)])


def cmd_hit_tlarge(args) -> str:
    P = _chain(args)[1].matrix
    res = t_large(P, stationary(P), args.eps)
    if args.format == "json":
        return _json({"epsilon": res.epsilon, "value": res.value,
                      "witness": list(res.argmax_set.members)})
    witness = "|".join(map(str, res.argmax_set.members))
    return f"T({args.eps})={res.value!r} witness={{{witness}}}\n"


def cmd_hit_lemma1(args) -> str:
    """Lemma 1's row for A and B: its t_plus cell is T+(A,B) = max_{x in A} E_x tau_B and
    its t_minus cell T-(B,A) = min_{x in B} E_x tau_A, so A and B swapped give T-(A,B)."""
    chain_id, chain = _chain(args)
    return _report(check_lemma1(chain.matrix, stationary(chain.matrix), parse_index_set(args.A),
                                parse_index_set(args.B), chain_id), args)


def cmd_hit_lemma2(args) -> str:
    chain_id, chain = _chain(args)
    return _report(check_lemma2(chain.matrix, stationary(chain.matrix), parse_index_set(args.A),
                                chain_id), args)


def cmd_hit_survival(args) -> str:
    """Exact Pr[N_B > t] for each horizon t of ``--t``, X_1 drawn from the chain's start law."""
    chain_id, chain = _chain(args)
    B = parse_index_set(args.B)
    horizons = parse_grid(args.t)
    if not horizons:
        raise ValidationError(f"--t {args.t!r} names no horizon")
    start = chain.resolved_start(stationary(chain.matrix))
    survival = survival_probabilities(chain.matrix, start, [B.members], horizons)[0].tolist()
    if args.format == "json":
        return _json({"chain": chain_id, "B": list(B.members), "t": horizons,
                      "survival": survival})
    return _csv({"chain": chain_id, "B": "|".join(map(str, B.members))}, "t,survival",
                [f"{t},{p!r}" for t, p in zip(horizons, survival)])


# --- simulate ---------------------------------------------------------------


def _simulation(args):
    """The chain, its stationary law and the header metadata of a checked simulate command."""
    chain_id, chain = _chain(args)
    pi = stationary(chain.matrix)
    _check_at_least_one(n=args.n, trials=args.trials, workers=args.workers)
    return chain, pi, _meta(args, chain=chain_id)


def _missing_mass(args):
    """The header metadata, the first-visit table and the per-trial missing masses."""
    chain, pi, meta = _simulation(args)
    tau = first_visit_table(chain, args.n, args.trials, args.seed, args.workers, pi)
    return meta, tau, missing_mass_values(tau, pi.pi, args.n).tolist()


def cmd_simulate_mm(args) -> str:
    meta, tau, values = _missing_mass(args)
    if args.dump:  # one row per trial: its missing mass and its unseen states
        with open(args.dump, "w", encoding="utf-8") as fh:
            fh.write("trial,value,unseen_set\n")
            for i, (row, value) in enumerate(zip(tau > args.n, values)):
                fh.write(f"{i},{value!r},{'|'.join(map(str, np.flatnonzero(row).tolist()))}\n")
    mean = math.fsum(values) / len(values)
    se = float(np.std(values, ddof=1)) / math.sqrt(len(values)) if len(values) > 1 else 0.0
    return _csv(meta, "trials,n,mean,se,min,max",
                [f"{args.trials},{args.n},{mean!r},{se!r},{min(values)!r},{max(values)!r}"])


def cmd_simulate_mgf(args) -> str:
    meta, _, values = _missing_mass(args)
    mgf = empirical_mgf(values, args.s)
    return _csv(meta, "s,mgf,trials", [f"{args.s!r},{mgf!r},{args.trials}"])


# --- bounds -----------------------------------------------------------------


def _bound_params(args) -> bnd.BoundParams:
    c = bnd.DEFAULT_C if args.c is None else args.c
    T = 1.0 if args.T is None else args.T
    return bnd.BoundParams(c=c, T=T, n=args.n, pi=_pi_from_args(args))


def _surrogate_params(args, unread=("c", "T")) -> bnd.BoundParams:
    """``_bound_params`` of a command with --iid surrogates (1 - pi(j))^n, which read
    neither c nor T: a flag of ``unread``, which the command then reads nowhere else,
    given with --iid is rejected, not ignored."""
    for flag in unread:
        if args.iid and getattr(args, flag) is not None:
            raise ValidationError(f"--{flag} has no effect with --iid: the surrogate "
                                  f"(1 - pi(j))^n does not depend on it")
    return _bound_params(args)


def _pi_from_args(args):
    if args.pi is None:
        return stationary(_chain(args)[1].matrix)
    if args.chain is not None:
        raise ValidationError("give --chain or --pi, not both")
    vec = parse_float_vector(args.pi)
    # the rule of a chain's start law, so every pi(J) the formulas sum stays within theirs
    if not abs(vec.sum() - 1.0) <= ROW_SUM_TOL or np.any(vec < 0):  # NaN fails too
        raise ValidationError("--pi must be a probability vector")
    return StationaryDistribution(pi=vec, residual=0.0)


def cmd_bounds_kl(args) -> str:
    return f"{bnd.kl_divergence(args.p, args.q)!r}\n"


def cmd_bounds_pinsker(args) -> str:
    return _report(pinsker_check(args.p, args.q), args)


def cmd_bounds_hittailbound(args) -> str:
    return f"{bnd.hitting_tail_bound(args.expected, args.t)!r}\n"


def cmd_bounds_explicittail(args) -> str:
    return f"{bnd.explicit_hitting_tail(args.pi_a, args.t_half, args.t, args.c)!r}\n"


def cmd_bounds_qprob(args) -> str:
    q = bnd.q_probabilities(_surrogate_params(args), iid_exact=args.iid)
    return ",".join(repr(float(x)) for x in q) + "\n"


def cmd_bounds_jointbound(args) -> str:
    params = _surrogate_params(args)
    return f"{bnd.joint_survival_bound(params, parse_index_set(args.J), iid_exact=args.iid)!r}\n"


def cmd_bounds_iidsurv(args) -> str:
    return f"{bnd.iid_exact_survival(_pi_from_args(args), parse_index_set(args.J), args.n)!r}\n"


def cmd_bounds_product(args) -> str:
    return _report(product_inequality_check(_pi_from_args(args), parse_index_set(args.J)), args)


def cmd_bounds_mmtail(args) -> str:
    # --T stays: the failure bound exp(-c2 n eps^2 / T) reads it under --iid too
    params = _surrogate_params(args, unread=("c",))
    tail = bnd.missing_mass_tail_bound(params, args.eps, c2=args.c2, iid_exact=args.iid)
    return (f"threshold={tail.threshold!r} failure_bound={tail.failure_bound!r} "
            f"mean_term={tail.mean_term!r} c2={tail.c2!r} ({tail.c2_note})\n")


# --- verify -----------------------------------------------------------------


def _each(parse, kind, what: str):
    """The parser of a JSON list of ``kind`` items: ``parse`` of each item."""
    def parse_list(value) -> list:
        if not (isinstance(value, list) and all(isinstance(x, kind) for x in value)):
            raise ValidationError(f"expected {what}, got {value!r}")
        return [parse(x) for x in value]
    return parse_list


# the parsers of the config values that are external text; every value is then checked
# as its option, before any suite runs
CONFIG_PARSERS = {"chains": _each(chain_source, str, "a list of chain descriptors"),
                  "j_sets": _each(tuple, list, "a list of lists of state indices"),
                  "n_grid": lambda v: parse_grid(v) if isinstance(v, str) else v}


def _options_from_args(args) -> VerifyOptions:
    """Defaults, then the --config file, then explicit flags."""
    opts = VerifyOptions()
    if args.config:
        _apply_config(opts, args.config)
    for f in fields(VerifyOptions):
        if getattr(args, f.name, None) is not None:
            setattr(opts, f.name, getattr(args, f.name))
    return opts


def _apply_config(opts: VerifyOptions, path: str) -> None:
    """Set the options a JSON config names, each key a field of ``VerifyOptions``; any other
    key, or text its parser rejects, is an error."""
    try:
        cfg = json.loads(Path(path).read_text(encoding="utf-8"))
    except OSError as e:
        raise ChainFileError(f"{path}: {e.strerror or e}") from e
    except json.JSONDecodeError as e:
        raise ChainFileError(f"{path}: line {e.lineno} column {e.colno}: {e.msg}") from e
    if not isinstance(cfg, dict):
        raise ValidationError(f"{path}: the config must be a JSON object")
    names = {f.name for f in fields(VerifyOptions)}
    for key, value in cfg.items():
        if key not in names:
            raise ValidationError(f"{path}: unknown config key {key!r}")
        try:
            setattr(opts, key, CONFIG_PARSERS.get(key, lambda v: v)(value))
        except ValidationError as e:
            raise ValidationError(f"{path}: config key {key!r}: {e}") from e


def cmd_verify(args) -> int:
    opts = _options_from_args(args)
    out_dir = Path(args.out or "reports")
    out_dir.mkdir(parents=True, exist_ok=True)
    results = run_all(opts) if args.suite == "all" else [(args.suite, *run_suite(args.suite, opts))]

    for name, reports, summary in results:
        meta = {"tool": f"mml {__version__}", "suite": name, "seed": opts.seed,
                "c": opts.c, "c2": opts.c2}
        meta.update(summary.extras)
        (out_dir / f"{name}.csv").write_text(render_reports_csv(reports, meta), encoding="utf-8")
        flag = "ok" if summary.ok else "VIOLATIONS"
        extras = " ".join(f"{k}={v}" for k, v in summary.extras.items())
        print(f"{name}: checks={summary.checks} passed={summary.passed} "
              f"vacuous={summary.vacuous} violations={len(summary.violations)} {flag} {extras}".rstrip())

    lines = ["suite,checks,passed,vacuous,violations,extras"]
    for *_, s in results:
        extras = ";".join(f"{k}={repr(float(v)) if isinstance(v, float) else v}"
                          for k, v in sorted(s.extras.items()))
        lines.append(f"{s.suite},{s.checks},{s.passed},{s.vacuous},{len(s.violations)},{extras}")
    (out_dir / "summary.csv").write_text(
        f"# tool=mml {__version__}\n# seed={opts.seed}\n" + "\n".join(lines) + "\n",
        encoding="utf-8")

    all_violations = [v for *_, s in results for v in s.violations]
    with open(out_dir / "violations.csv", "w", encoding="utf-8", newline="") as f:
        writer = csv.writer(f, lineterminator="\n")
        writer.writerow(("suite", "seed", "name", "chain_id", "coordinates"))
        for v in all_violations:
            coords = format_params({k: x for k, x in v.items()
                                    if k not in ("suite", "seed", "name", "chain_id")})
            writer.writerow((v["suite"], v["seed"], v["name"], v.get("chain_id", ""), coords))

    return EXIT_VIOLATIONS if all_violations else 0


# --- parser -----------------------------------------------------------------


def _command(group, name: str, handler, sets=(), source: bool = True, out: bool = True,
             fmt: bool = False):
    """A leaf subcommand run by ``handler``: ``--chain`` if it reads a chain, a required
    index-list flag per name in ``sets``, ``--out`` if it prints its output, and ``--format``
    if it has both a CSV and a JSON form. A flag is matched whole, never by a prefix, so a removed flag such
    as ``--p`` exits 2 rather than reading as ``--pi``."""
    p = group.add_parser(name, allow_abbrev=False)
    p.set_defaults(handler=handler)
    if source:
        p.add_argument("--chain", metavar="SOURCE",
                       help="chain file, or a descriptor such as 'lazy-cycle:m=5;hold=0.5'")
    for set_name in sets:
        p.add_argument("--" + set_name, required=True, help="comma-separated state indices")
    if out:
        p.add_argument("--out", metavar="PATH", help="write output here instead of stdout")
    if fmt:
        p.add_argument("--format", choices=("csv", "json"), default="csv")
    return p


def _add_numbers(p, *flags) -> None:
    """Required float flags."""
    for flag in flags:
        p.add_argument(flag, type=float, required=True)


def _add_sim(p):
    p.add_argument("--n", type=int, default=1, help="run length (steps)")
    p.add_argument("--trials", type=int, default=10000)
    p.add_argument("--seed", type=int, default=0, help="master seed")
    p.add_argument("--workers", type=int, default=1, help="worker threads")
    return p


def _add_bound_params(p, n: bool = True, c_and_t: bool = True):
    p.add_argument("--pi", help="explicit stationary vector, in place of --chain")
    if n:
        p.add_argument("--n", type=int, default=1)
    if c_and_t:
        # None until given, so qprob and jointbound can tell a flag --iid would ignore
        p.add_argument("--c", type=float, help=f"constant c (default {bnd.DEFAULT_C!r})")
        p.add_argument("--T", type=float, help="T(0.5) (default 1.0)")
        p.add_argument("--iid", action="store_true", help="use exact (1-pi)^n surrogates")
    return p


def build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(prog="mml",
                                 description="Hitting-time analysis, missing-mass simulation, "
                                             "and tail-bound verification for finite Markov chains")
    ap.add_argument("--version", action="version", version=f"mml {__version__}")
    sub = ap.add_subparsers(dest="cmd", required=True)

    chain = sub.add_parser("chain", help="validate, analyze, or generate chain files")
    chain = chain.add_subparsers(dest="chain_cmd", required=True)
    _command(chain, "validate", cmd_chain_validate, out=False)
    _command(chain, "stationary", cmd_chain_stationary, fmt=True)
    _command(chain, "generate", cmd_chain_generate)

    hit = sub.add_parser("hit", help="exact hitting-time queries and analytic checks")
    hit = hit.add_subparsers(dest="hit_cmd", required=True)
    _command(hit, "table", cmd_hit_table, ("B",), fmt=True)
    _command(hit, "tlarge", cmd_hit_tlarge, fmt=True).add_argument("--eps", type=float, default=0.5)
    _command(hit, "lemma1", cmd_hit_lemma1, ("B", "A"), fmt=True)
    _command(hit, "lemma2", cmd_hit_lemma2, ("A",), fmt=True)
    _command(hit, "survival", cmd_hit_survival, ("B",), fmt=True).add_argument(
        "--t", required=True, help="horizons >= 1: comma list or a..b")

    sim = sub.add_parser("simulate", help="seeded Monte Carlo estimates")
    sim = sim.add_subparsers(dest="sim_cmd", required=True)
    sp = _add_sim(_command(sim, "mm", cmd_simulate_mm))
    sp.add_argument("--dump", metavar="FILE", help="write trial,value,unseen_set CSV")
    _add_sim(_command(sim, "mgf", cmd_simulate_mgf)).add_argument("--s", type=float, required=True)

    b = sub.add_parser("bounds", help="closed-form bound evaluators")
    b = b.add_subparsers(dest="bounds_cmd", required=True)
    _add_bound_params(_command(b, "qprob", cmd_bounds_qprob))
    _add_bound_params(_command(b, "jointbound", cmd_bounds_jointbound, ("J",)))
    _add_bound_params(_command(b, "iidsurv", cmd_bounds_iidsurv, ("J",)), c_and_t=False)
    _add_bound_params(_command(b, "product", cmd_bounds_product, ("J",), fmt=True),
                      n=False, c_and_t=False)
    bp = _add_bound_params(_command(b, "mmtail", cmd_bounds_mmtail))
    _add_numbers(bp, "--eps")
    bp.add_argument("--c2", type=float, default=bnd.DEFAULT_C2)
    _add_numbers(_command(b, "hittailbound", cmd_bounds_hittailbound, source=False),
                 "--expected", "--t")
    bp = _command(b, "explicittail", cmd_bounds_explicittail, source=False)
    _add_numbers(bp, "--pi-a", "--t-half", "--t")
    bp.add_argument("--c", type=float, default=bnd.DEFAULT_C)
    _add_numbers(_command(b, "kl", cmd_bounds_kl, source=False), "--p", "--q")
    _add_numbers(_command(b, "pinsker", cmd_bounds_pinsker, source=False, fmt=True), "--p", "--q")

    ver = sub.add_parser("verify", allow_abbrev=False,
                         help="run inequality verification suites",
                         description="Every int or float VerifyOptions field is a flag; "
                                     "--config, then the flags override the defaults.")
    ver.set_defaults(handler=cmd_verify)
    ver.add_argument("suite", choices=SUITE_ORDER + ("all",))
    for f in fields(VerifyOptions):
        if type(f.default) in (int, float):
            ver.add_argument("--" + f.name.replace("_", "-"), type=type(f.default),
                             help=f"default {f.default!r}")
    ver.add_argument("--out", metavar="DIR", help="report directory (default ./reports)")
    ver.add_argument("--config", metavar="FILE", help="JSON experiment config")
    return ap


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        text = args.handler(args)
    except MMLError as e:
        print(f"error: {e}", file=sys.stderr)
        return next(EXIT_CODES[cls] for cls in type(e).__mro__ if cls in EXIT_CODES)
    if isinstance(text, int):  # verify wrote its report directory
        return text
    if getattr(args, "out", None):
        Path(args.out).write_text(text, encoding="utf-8")
    else:
        sys.stdout.write(text)
    return 0


if __name__ == "__main__":
    sys.exit(main())
