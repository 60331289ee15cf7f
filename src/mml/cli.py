"""Command-line harness: chain tools, hitting-time queries, simulation, bounds, verification.

Each leaf subcommand has one handler and exactly the flags it reads. A handler
returns its output text, which ``main`` writes to ``--out`` or stdout; ``verify``
writes a report directory and returns its exit code instead.

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
import os
import re
import sys
from dataclasses import fields
from pathlib import Path

import numpy as np

from . import __version__
from . import bounds as bnd
from .chain import (
    CHAIN_FAMILIES,
    ChainSpec,
    StationaryDistribution,
    chain_to_dict,
    generate,
    is_irreducible,
    load_chain,
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
from .hitting import (
    StateSet,
    _check_members,
    check_lemma1,
    check_lemma2,
    hitting_table,
    t_large,
    t_minus,
    t_plus,
)
from .report import Labels, format_params, render_reports_csv, render_reports_json
from .simulate import (
    _check_at_least_one,
    empirical_mgf,
    first_visit_table,
    hitting_time_samples,
    missing_mass_values,
)
from .verify import SUITE_ORDER, VerifyOptions, run_all, run_suite

EXIT_VIOLATIONS = 1
# the exit code of each error class, as listed above; an error takes the code of its
# nearest listed class
EXIT_CODES = {ChainFileError: 2, ValidationError: 3, PreconditionError: 4,
              SingularSystemError: 4, InsufficientTrialsError: 5, MMLError: 3}


def _default_workers() -> int:
    """MML_WORKERS, or 1 when it is unset; any other value must be an integer >= 1."""
    text = os.environ.get("MML_WORKERS", "1")
    try:
        workers = int(text)
    except ValueError:
        workers = 0
    if workers < 1:
        raise ValidationError(f"MML_WORKERS must be an integer >= 1, got {text!r}")
    return workers


def parse_index_set(text: str) -> StateSet:
    try:
        return StateSet(tuple(int(tok) for tok in text.split(",") if tok != ""))
    except ValueError as e:
        raise ValidationError(f"bad index list {text!r}: expected comma-separated integers") from e


def parse_float_vector(text: str) -> np.ndarray:
    try:
        return np.array([float(tok) for tok in text.replace("|", ",").split(",") if tok != ""])
    except ValueError as e:
        raise ValidationError(f"bad number list {text!r}") from e


def parse_grid(text: str) -> list[int]:
    """n-grids: 'a..b' inclusive or comma-separated integers."""
    try:
        if ".." in text:
            lo, hi = text.split("..", 1)
            return list(range(int(lo), int(hi) + 1))
        return [int(tok) for tok in text.split(",") if tok != ""]
    except ValueError as e:
        raise ValidationError(f"bad grid {text!r}: expected 'a..b' or comma-separated integers") from e


# descriptor parameters not parsed as a float: their parser and what a value must be
DESCRIPTOR_VALUES = {"mu": (parse_float_vector, "a comma-separated number list"),
                     "m": (int, "an integer"), "seed": (int, "an integer")}


def parse_descriptor(text: str) -> tuple[str, ChainSpec]:
    """Chain source: a .json path or 'family:key=value;key=value'."""
    if text.endswith(".json") or Path(text).exists():
        return text, load_chain(text)
    family, _, rest = text.partition(":")
    params: dict = {}
    for tok in rest.split(";"):
        if not tok:
            continue
        if "=" not in tok:
            raise ValidationError(f"bad descriptor parameter {tok!r} in {text!r}")
        k, v = tok.split("=", 1)
        parse, what = DESCRIPTOR_VALUES.get(k, (float, "a number"))
        try:
            params[k] = parse(v)
        except (ValueError, ValidationError) as e:
            raise ValidationError(f"descriptor {text!r}: parameter {k!r} must be {what}, "
                                  f"got {v!r}") from e
    m = params.pop("m", None)
    seed = params.pop("seed", 0)
    return text, generate(family, m=m, seed=seed, **params)


def _chain_from_args(args) -> tuple[str, ChainSpec]:
    if args.infile:
        return args.infile, load_chain(args.infile)
    if not args.family:
        raise ValidationError("no chain given: use --in FILE or --family NAME [params]")
    params = {}
    if args.mu is not None:
        params["mu"] = parse_float_vector(args.mu)
    for key in ("p", "q", "hold", "alpha"):
        if getattr(args, key) is not None:
            params[key] = getattr(args, key)
    chain = generate(args.family, m=args.m, seed=args.gen_seed, **params)
    # the label names every value that picks the chain, as verify's ids do
    label = [f"m={args.m}"] if args.m is not None else []
    label += [f"{k}={'|'.join(map(repr, v.tolist())) if k == 'mu' else repr(v)}"
              for k, v in params.items()]
    if args.family == "random-dense":
        label.append(f"seed={args.gen_seed}")
    return f"{args.family}({','.join(label)})", chain


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
    P = load_chain(args.infile).matrix
    return f"ok m={P.m} irreducible={'true' if is_irreducible(P) else 'false'}\n"


def cmd_chain_stationary(args) -> str:
    pi = stationary(_chain_from_args(args)[1].matrix)
    if args.format == "json":
        return _json({"pi": list(map(float, pi.pi)), "residual": pi.residual})
    pretty = ", ".join(f"{x:.6f}" for x in pi.pi)
    return f"pi = ({pretty})\nresidual = {pi.residual!r}\n"


def cmd_chain_generate(args) -> str:
    return _json(chain_to_dict(_chain_from_args(args)[1]))


# --- hit --------------------------------------------------------------------


def cmd_hit_table(args) -> str:
    chain_id, chain = _chain_from_args(args)
    table = hitting_table(chain.matrix, parse_index_set(args.B))
    if args.format == "json":
        return _json({"B": list(table.target.members), "h": list(map(float, table.h)),
                      "t_plus_all": table.t_plus_all})
    return _csv({"chain": chain_id}, "state,h",
                [f"{x},{float(h)!r}" for x, h in enumerate(table.h)])


def cmd_hit_tplus(args) -> str:
    P = _chain_from_args(args)[1].matrix
    return f"{t_plus(P, parse_index_set(args.A), parse_index_set(args.B))!r}\n"


def cmd_hit_tminus(args) -> str:
    P = _chain_from_args(args)[1].matrix
    return f"{t_minus(P, parse_index_set(args.A), parse_index_set(args.B))!r}\n"


def cmd_hit_tlarge(args) -> str:
    P = _chain_from_args(args)[1].matrix
    res = t_large(P, stationary(P), args.eps)
    if args.format == "json":
        return _json({"epsilon": res.epsilon, "value": res.value,
                      "witness": list(res.argmax_set.members)})
    witness = "|".join(map(str, res.argmax_set.members))
    return f"T({args.eps})={res.value!r} witness={{{witness}}}\n"


def cmd_hit_lemma1(args) -> str:
    chain_id, chain = _chain_from_args(args)
    pi = stationary(chain.matrix)
    block = check_lemma1(chain.matrix, pi, parse_index_set(args.A), parse_index_set(args.B))
    block.chain_id = Labels(block.chain_id.codes, [chain_id])
    return _report(block, args)


def cmd_hit_lemma2(args) -> str:
    chain_id, chain = _chain_from_args(args)
    block = check_lemma2(chain.matrix, stationary(chain.matrix), parse_index_set(args.A))
    block.chain_id = Labels(block.chain_id.codes, [chain_id])
    return _report(block, args)


# --- simulate ---------------------------------------------------------------


def _simulation(args):
    """The chain, its stationary law and the header metadata of a checked simulate command."""
    # MML_WORKERS is checked even under --workers, as in verify
    workers = _default_workers()
    if args.workers is None:
        args.workers = workers
    chain_id, chain = _chain_from_args(args)
    pi = stationary(chain.matrix)
    _check_at_least_one(**{k: getattr(args, k) for k in ("n", "trials", "workers")
                           if hasattr(args, k)})
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


def cmd_simulate_jointtail(args) -> str:
    chain, pi, meta = _simulation(args)
    J = parse_index_set(args.J)
    _check_members(J, chain.matrix.m, "set J")
    tau = first_visit_table(chain, args.n, args.trials, args.seed, args.workers, pi)
    hits = int((tau[:, J.indices()].min(axis=1) > args.n).sum())
    return _tail_rows([(f"tau_J>n J={'|'.join(map(str, J.members))} n={args.n}", hits)], args, meta)


def cmd_simulate_hittail(args) -> str:
    chain, pi, meta = _simulation(args)
    B = parse_index_set(args.B)
    if args.cap < 1:
        raise ValidationError(f"--cap must be >= 1, got {args.cap}")
    thresholds = parse_grid(args.t)
    for t in thresholds:
        # a trial cut at the cap has an unknown N_B > cap
        if not 0 <= t <= args.cap:
            raise ValidationError(f"threshold t={t} is outside 0..{args.cap} (--cap)")
    N = hitting_time_samples(chain, B, args.trials, args.seed, args.workers, args.cap, pi)
    meta["cap_hits"] = int((N > args.cap).sum())
    set_str = "|".join(map(str, B.members))
    return _tail_rows([(f"N_B>t B={set_str} t={t}", int((N > t).sum())) for t in thresholds],
                      args, meta)


# z of the two-sided 99% normal-approximation CI half-width of a tail row
Z99 = 2.576


def _tail_rows(events, args, meta) -> str:
    """One row per (event, hits): the share p_hat of the trials and its 99% CI half-width."""
    rows = []
    for event, hits in events:
        p = hits / args.trials
        rows.append({"event": event, "hits": hits, "trials": args.trials, "p_hat": p,
                     "ci99_halfwidth": Z99 * math.sqrt(p * (1 - p) / args.trials)})
    if args.format == "json":
        return _json({"meta": meta, "tails": rows})
    return _csv(meta, "event,hits,trials,p_hat,ci99_halfwidth",
                [f"{r['event']},{r['hits']},{r['trials']},{r['p_hat']!r},{r['ci99_halfwidth']!r}"
                 for r in rows])


# --- bounds -----------------------------------------------------------------


def _bound_params(args) -> bnd.BoundParams:
    c = bnd.DEFAULT_C if args.c is None else args.c
    T = 1.0 if args.T is None else args.T
    return bnd.BoundParams(c=c, T=T, n=args.n, pi=_pi_from_args(args))


def _surrogate_params(args) -> bnd.BoundParams:
    """``_bound_params`` of qprob and jointbound, whose --iid surrogates (1 - pi(j))^n
    read neither c nor T: either flag given with --iid is rejected, not ignored."""
    for flag in ("c", "T"):
        if args.iid and getattr(args, flag) is not None:
            raise ValidationError(f"--{flag} has no effect with --iid: the surrogate "
                                  f"(1 - pi(j))^n does not depend on it")
    return _bound_params(args)


def _pi_from_args(args):
    if args.pi is not None:
        vec = parse_float_vector(args.pi)
        if not abs(vec.sum() - 1.0) <= 1e-9 or np.any(vec < 0):  # NaN fails too
            raise ValidationError("--pi must be a probability vector")
        return StationaryDistribution(pi=vec, residual=0.0)
    _, chain = _chain_from_args(args)
    return stationary(chain.matrix)


def cmd_bounds_kl(args) -> str:
    return f"{bnd.kl_divergence(args.p, args.q)!r}\n"


def cmd_bounds_pinsker(args) -> str:
    return _report(bnd.pinsker_check(args.p, args.q), args)


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
    return _report(bnd.product_inequality_check(_pi_from_args(args), parse_index_set(args.J)), args)


def cmd_bounds_mmtail(args) -> str:
    params = _bound_params(args)
    tail = bnd.missing_mass_tail_bound(params, args.eps, c2=args.c2, iid_exact=args.iid)
    return (f"threshold={tail.threshold!r} failure_bound={tail.failure_bound!r} "
            f"mean_term={tail.mean_term!r} c2={tail.c2!r} ({tail.c2_note})\n")


# --- verify -----------------------------------------------------------------


# config keys under "constants", and the options they set
CONFIG_CONSTANTS = {"c": "c", "c2": "c2", "eps": "epsilon"}
# the type of each scalar option's default: config values and flags must have it
OPTION_TYPES = {f.name: type(f.default) for f in fields(VerifyOptions)
                if type(f.default) in (int, float)}
# options that are also verify flags of the same name (ergodic_steps is --ergodic-steps), with help
OPTION_FLAGS = {"seed": "master seed (default 3)",
                "workers": "worker threads (default MML_WORKERS or 1)",
                "trials": None, "c": None, "c2": None, "ergodic_steps": None}


def _ints(value, low: int) -> bool:
    return isinstance(value, list) and all(type(x) is int and x >= low for x in value)


# each config option: whether a value is well-formed, what it must be, and its parser
# (a bool is no number, and an int is a valid float)
CONFIG_CHECKS = {name: (lambda v, typ=typ: type(v) in (typ, int), typ.__name__, lambda v: v)
                 for name, typ in OPTION_TYPES.items()}
CONFIG_CHECKS.update(
    chains=(lambda v: isinstance(v, list) and all(isinstance(s, str) for s in v),
            "a list of chain descriptors", lambda v: [parse_descriptor(s) for s in v]),
    j_sets=(lambda v: isinstance(v, list) and all(_ints(js, 0) for js in v),
            "a list of lists of non-negative integers", lambda v: [tuple(js) for js in v]),
    n_grid=(lambda v: _ints(v, 1) or isinstance(v, str) and re.fullmatch(r"\d+\.\.\d+|[\d,]*", v),
            "an 'a..b' range, comma-separated integers or a list of positive integers",
            lambda v: parse_grid(v) if isinstance(v, str) else v),
)


def _options_from_args(args) -> VerifyOptions:
    """Defaults, then MML_WORKERS, then the --config file, then explicit flags."""
    opts = VerifyOptions(workers=_default_workers())
    if args.config:
        _apply_config(opts, args.config)
    given = {name: getattr(args, name) for name in OPTION_FLAGS}
    given.update(epsilon=args.eps, lemma1_max_pairs=args.max_pairs)
    if args.chains is not None:
        given.update(lemma1_chains=args.chains, lemma2_chains=args.chains,
                     prop1_chains=min(args.chains, 20))
    if args.m_max is not None:
        given.update(lemma1_m_max=min(args.m_max, 8), lemma2_m_max=min(args.m_max, 10))
    for name, value in given.items():
        if value is not None:
            setattr(opts, name, value)
    return opts


def _apply_config(opts: VerifyOptions, path: str) -> None:
    """Set the options named in a JSON config; any other key, or an ill-typed value, is an error."""
    try:
        cfg = json.loads(Path(path).read_text(encoding="utf-8"))
    except OSError as e:
        raise ChainFileError(f"{path}: {e.strerror or e}") from e
    except json.JSONDecodeError as e:
        raise ChainFileError(f"{path}: line {e.lineno} column {e.colno}: {e.msg}") from e
    constants = cfg.pop("constants", {}) if isinstance(cfg, dict) else None
    if not isinstance(constants, dict):
        raise ValidationError(f"{path}: the config and its 'constants' must be JSON objects")
    top = {f.name for f in fields(VerifyOptions)} - set(CONFIG_CONSTANTS.values())
    items = [(key, key if key in top else None, value) for key, value in cfg.items()]
    items += [(f"constants.{key}", CONFIG_CONSTANTS.get(key), value)
              for key, value in constants.items()]
    for key, option, value in items:
        if option is None:
            raise ValidationError(f"{path}: unknown config key {key!r}")
        check, what, parse = CONFIG_CHECKS[option]
        if not check(value):
            raise ValidationError(f"{path}: config key {key!r} must be {what}, got {value!r}")
        setattr(opts, option, parse(value))


def cmd_verify(args) -> int:
    opts = _options_from_args(args)
    out_dir = Path(args.out or "reports")
    out_dir.mkdir(parents=True, exist_ok=True)
    if args.suite == "all":
        results = run_all(opts)
    else:
        reports, summary = run_suite(args.suite, opts)
        results = [(args.suite, reports, summary)]

    summaries = []
    all_violations = []
    for name, reports, summary in results:
        meta = {"tool": f"mml {__version__}", "suite": name, "seed": opts.seed,
                "c": opts.c, "c2": opts.c2, "eps": opts.epsilon}
        meta.update(summary.extras)
        (out_dir / f"{name}.csv").write_text(render_reports_csv(reports, meta), encoding="utf-8")
        summaries.append(summary)
        all_violations.extend(summary.violations)
        flag = "ok" if summary.ok else "VIOLATIONS"
        extras = " ".join(f"{k}={v}" for k, v in summary.extras.items())
        print(f"{name}: checks={summary.checks} passed={summary.passed} "
              f"vacuous={summary.vacuous} violations={len(summary.violations)} {flag} {extras}".rstrip())

    lines = ["suite,checks,passed,vacuous,violations,extras"]
    for s in summaries:
        extras = ";".join(f"{k}={repr(float(v)) if isinstance(v, float) else v}"
                          for k, v in sorted(s.extras.items()))
        lines.append(f"{s.suite},{s.checks},{s.passed},{s.vacuous},{len(s.violations)},{extras}")
    (out_dir / "summary.csv").write_text(
        f"# tool=mml {__version__}\n# seed={opts.seed}\n" + "\n".join(lines) + "\n",
        encoding="utf-8")

    with open(out_dir / "violations.csv", "w", encoding="utf-8", newline="") as f:
        writer = csv.writer(f, lineterminator="\n")
        writer.writerow(("suite", "seed", "name", "chain_id", "coordinates"))
        for v in all_violations:
            coords = format_params({k: x for k, x in v.items()
                                    if k not in ("suite", "seed", "name", "chain_id")})
            writer.writerow((v["suite"], v["seed"], v["name"], v.get("chain_id", ""), coords))

    return EXIT_VIOLATIONS if all_violations else 0


# --- parser -----------------------------------------------------------------


def _command(group, name: str, handler, sets=(), source: bool = True, fmt: bool = False):
    """A leaf subcommand run by ``handler``: the chain-source flags if it reads a chain,
    a required index-list flag per name in ``sets``, ``--out``, and ``--format`` if it has
    both a CSV and a JSON form."""
    p = group.add_parser(name)
    p.set_defaults(handler=handler)
    if source:
        p.add_argument("--in", dest="infile", metavar="FILE", help="chain-spec JSON file")
        p.add_argument("--family", choices=CHAIN_FAMILIES)
        p.add_argument("--m", type=int)
        p.add_argument("--mu", help="comma-separated distribution for iid")
        for flag in ("--p", "--q", "--hold", "--alpha"):
            p.add_argument(flag, type=float)
        p.add_argument("--gen-seed", type=int, default=0)
    for set_name in sets:
        p.add_argument("--" + set_name, required=True, help="comma-separated state indices")
    p.add_argument("--out", metavar="PATH", help="write output here instead of stdout")
    if fmt:
        p.add_argument("--format", choices=("csv", "json"), default="csv")
    return p


def _add_numbers(p, *flags) -> None:
    """Required float flags."""
    for flag in flags:
        p.add_argument(flag, type=float, required=True)


def _add_sim(p, n: bool = True):
    if n:
        p.add_argument("--n", type=int, default=1, help="run length (steps)")
    p.add_argument("--trials", type=int, default=10000)
    p.add_argument("--seed", type=int, default=0, help="master seed")
    p.add_argument("--workers", type=int, help="worker threads (default MML_WORKERS or 1)")
    return p


def _add_bound_params(p, n: bool = True, c_and_t: bool = True):
    p.add_argument("--pi", help="explicit stationary vector (bypasses chain)")
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
    cv = chain.add_parser("validate")
    cv.set_defaults(handler=cmd_chain_validate)
    cv.add_argument("--in", dest="infile", required=True)
    _command(chain, "stationary", cmd_chain_stationary, fmt=True)
    _command(chain, "generate", cmd_chain_generate)

    hit = sub.add_parser("hit", help="exact hitting-time queries and analytic checks")
    hit = hit.add_subparsers(dest="hit_cmd", required=True)
    _command(hit, "table", cmd_hit_table, ("B",), fmt=True)
    _command(hit, "tplus", cmd_hit_tplus, ("B", "A"))
    _command(hit, "tminus", cmd_hit_tminus, ("B", "A"))
    _command(hit, "tlarge", cmd_hit_tlarge, fmt=True).add_argument("--eps", type=float, default=0.5)
    _command(hit, "lemma1", cmd_hit_lemma1, ("B", "A"), fmt=True)
    _command(hit, "lemma2", cmd_hit_lemma2, ("A",), fmt=True)

    sim = sub.add_parser("simulate", help="seeded Monte Carlo estimates")
    sim = sim.add_subparsers(dest="sim_cmd", required=True)
    sp = _add_sim(_command(sim, "mm", cmd_simulate_mm))
    sp.add_argument("--dump", metavar="FILE", help="write trial,value,unseen_set CSV")
    sp = _add_sim(_command(sim, "hittail", cmd_simulate_hittail, ("B",), fmt=True), n=False)
    sp.add_argument("--t", required=True, help="thresholds: comma list or a..b")
    sp.add_argument("--cap", type=int, default=10**6)
    _add_sim(_command(sim, "jointtail", cmd_simulate_jointtail, ("J",), fmt=True))
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

    ver = sub.add_parser("verify", help="run inequality verification suites")
    ver.set_defaults(handler=cmd_verify)
    ver.add_argument("suite", choices=SUITE_ORDER + ("all",))
    for name, help_text in OPTION_FLAGS.items():
        ver.add_argument("--" + name.replace("_", "-"), type=OPTION_TYPES[name], help=help_text)
    ver.add_argument("--out", metavar="DIR", help="report directory (default ./reports)")
    ver.add_argument("--config", metavar="FILE", help="JSON experiment config")
    ver.add_argument("--chains", type=int, help="random-chain count for lemma suites")
    ver.add_argument("--m-max", type=int)
    ver.add_argument("--max-pairs", type=int)
    ver.add_argument("--eps", type=float)
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
