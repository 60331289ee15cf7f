"""Command-line harness: chain tools, hitting-time queries, simulation, bounds, verification.

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
    ChainSpec,
    chain_to_dict,
    generate,
    is_irreducible,
    load_chain,
    save_chain,
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
from .report import ReportBlock, format_params, render_reports_csv, render_reports_json
from .simulate import (
    SimConfig,
    empirical_mgf,
    first_visit_table,
    hitting_time_samples,
    missing_mass_values,
)
from .verify import SUITE_ORDER, VerifyOptions, run_all, run_suite

EXIT_VIOLATIONS = 1
EXIT_PARSE = 2
EXIT_VALIDATION = 3
EXIT_PRECONDITION = 4
EXIT_TRIALS = 5


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
    if getattr(args, "infile", None):
        return args.infile, load_chain(args.infile)
    if getattr(args, "family", None):
        params = {}
        if args.mu is not None:
            params["mu"] = parse_float_vector(args.mu)
        for key in ("p", "q", "hold", "alpha"):
            v = getattr(args, key, None)
            if v is not None:
                params[key] = v
        chain = generate(args.family, m=args.m, seed=args.gen_seed, **params)
        desc = args.family + (f"(m={args.m})" if args.m else "")
        return desc, chain
    raise ValidationError("no chain given: use --in FILE or --family NAME [params]")


def _add_chain_source(p):
    p.add_argument("--in", dest="infile", metavar="FILE", help="chain-spec JSON file")
    p.add_argument("--family", choices=("iid", "two-state", "lazy-cycle", "birth-death", "random-dense"))
    p.add_argument("--m", type=int)
    p.add_argument("--mu", help="comma-separated distribution for iid")
    p.add_argument("--p", type=float)
    p.add_argument("--q", type=float)
    p.add_argument("--hold", type=float)
    p.add_argument("--alpha", type=float)
    p.add_argument("--gen-seed", type=int, default=0)


def _add_output(p):
    p.add_argument("--out", metavar="PATH", help="write output here instead of stdout")
    p.add_argument("--format", choices=("csv", "json"), default="csv")


def _add_sim(p):
    p.add_argument("--n", type=int, default=1, help="run length (steps)")
    p.add_argument("--trials", type=int, default=10000)
    p.add_argument("--seed", type=int, default=0, help="master seed")
    p.add_argument("--workers", type=int, help="worker threads (default MML_WORKERS or 1)")


def _emit(text: str, args) -> None:
    if getattr(args, "out", None):
        Path(args.out).write_text(text, encoding="utf-8")
    else:
        sys.stdout.write(text)


def _emit_reports(reports, args, meta) -> None:
    if args.format == "json":
        _emit(render_reports_json(reports, meta), args)
    else:
        _emit(render_reports_csv(ReportBlock.from_reports(reports), meta), args)


def _meta(args, **extra) -> dict:
    meta = {"tool": f"mml {__version__}"}
    for key in ("seed", "trials", "n", "workers"):
        if hasattr(args, key):
            meta[key] = getattr(args, key)
    meta.update(extra)
    return meta


# --- chain ------------------------------------------------------------------


def cmd_chain(args) -> int:
    if args.chain_cmd == "validate":
        chain = load_chain(args.infile)
        irr = is_irreducible(chain.matrix)
        print(f"ok m={chain.matrix.m} irreducible={'true' if irr else 'false'}")
        return 0
    if args.chain_cmd == "stationary":
        _, chain = _chain_from_args(args)
        pi = stationary(chain.matrix)
        if args.format == "json":
            _emit(json.dumps({"pi": list(map(float, pi.pi)), "residual": pi.residual},
                             indent=2) + "\n", args)
        else:
            pretty = ", ".join(f"{x:.6f}" for x in pi.pi)
            _emit(f"pi = ({pretty})\nresidual = {pi.residual!r}\n", args)
        return 0
    if args.chain_cmd == "generate":
        _, chain = _chain_from_args(args)
        if args.out:
            save_chain(chain, args.out)
        else:
            sys.stdout.write(json.dumps(chain_to_dict(chain), indent=2) + "\n")
        return 0
    raise ValidationError(f"unknown chain subcommand {args.chain_cmd!r}")


# --- hit --------------------------------------------------------------------


def cmd_hit(args) -> int:
    chain_id, chain = _chain_from_args(args)
    P = chain.matrix
    sub = args.hit_cmd
    if sub == "table":
        table = hitting_table(P, parse_index_set(args.B))
        if args.format == "json":
            _emit(json.dumps({"B": list(table.target.members), "h": list(map(float, table.h)),
                              "t_plus_all": table.t_plus_all}, indent=2) + "\n", args)
        else:
            body = "\n".join(f"{x},{float(h)!r}" for x, h in enumerate(table.h))
            _emit(f"# chain={chain_id}\nstate,h\n{body}\n", args)
        return 0
    if sub in ("tplus", "tminus"):
        A = parse_index_set(args.A)
        B = parse_index_set(args.B)
        value = t_plus(P, A, B) if sub == "tplus" else t_minus(P, A, B)
        _emit(f"{value!r}\n", args)
        return 0
    pi = stationary(P)
    if sub == "tlarge":
        res = t_large(P, pi, args.eps)
        witness = "|".join(map(str, res.argmax_set.members))
        if args.format == "json":
            _emit(json.dumps({"epsilon": res.epsilon, "value": res.value,
                              "witness": list(res.argmax_set.members)}, indent=2) + "\n", args)
        else:
            _emit(f"T({args.eps})={res.value!r} witness={{{witness}}}\n", args)
        return 0
    if sub in ("lemma1", "lemma2"):
        A = parse_index_set(args.A)
        rep = check_lemma1(P, pi, A, parse_index_set(args.B)) if sub == "lemma1" else check_lemma2(P, pi, A)
        rep.metadata["chain_id"] = chain_id
        _emit_reports([rep], args, _meta(args))
        return 0
    raise ValidationError(f"unknown hit subcommand {sub!r}")


# --- simulate ---------------------------------------------------------------


def cmd_simulate(args) -> int:
    # MML_WORKERS is checked even under --workers, as in verify
    workers = _default_workers()
    if args.workers is None:
        args.workers = workers
    chain_id, chain = _chain_from_args(args)
    pi = stationary(chain.matrix)
    # rejects a bad --n, --trials or --workers
    SimConfig(chain=chain, n=args.n, trials=args.trials, master_seed=args.seed,
              workers=args.workers)
    meta = _meta(args, chain=chain_id)
    sub = args.sim_cmd
    if sub == "hittail":
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
        _emit_tail_rows([(f"N_B>t B={set_str} t={t}", int((N > t).sum())) for t in thresholds],
                        args, meta)
        return 0
    if sub == "jointtail":
        J = parse_index_set(args.J)
        _check_members(J, chain.matrix.m, "set J")
    tau = first_visit_table(chain, args.n, args.trials, args.seed, args.workers, pi)
    if sub == "jointtail":
        hits = int((tau[:, J.indices()].min(axis=1) > args.n).sum())
        _emit_tail_rows([(f"tau_J>n J={'|'.join(map(str, J.members))} n={args.n}", hits)],
                        args, meta)
        return 0
    values = missing_mass_values(tau, pi.pi, args.n).tolist()
    lines = [f"# {k}={v}" for k, v in meta.items()]
    if sub == "mgf":
        lines += ["s,mgf,trials", f"{args.s!r},{empirical_mgf(values, args.s)!r},{args.trials}"]
    else:
        if args.dump:
            _dump_samples(args.dump, tau > args.n, values)
        mean = math.fsum(values) / len(values)
        se = float(np.std(values, ddof=1)) / math.sqrt(len(values)) if len(values) > 1 else 0.0
        lines += ["trials,n,mean,se,min,max",
                  f"{args.trials},{args.n},{mean!r},{se!r},{min(values)!r},{max(values)!r}"]
    _emit("\n".join(lines) + "\n", args)
    return 0


def _dump_samples(path, unseen: np.ndarray, values: list[float]) -> None:
    """Raw-sample dump: one row per trial, its missing mass and its unseen states."""
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("trial,value,unseen_set\n")
        for i, (row, value) in enumerate(zip(unseen, values)):
            fh.write(f"{i},{value!r},{'|'.join(map(str, np.flatnonzero(row).tolist()))}\n")


# z of the two-sided 99% normal-approximation CI half-width of a tail row
Z99 = 2.576


def _emit_tail_rows(events, args, meta) -> None:
    """One row per (event, hits): the share p_hat of the trials and its 99% CI half-width."""
    rows = []
    for event, hits in events:
        p = hits / args.trials
        rows.append({"event": event, "hits": hits, "trials": args.trials, "p_hat": p,
                     "ci99_halfwidth": Z99 * math.sqrt(p * (1 - p) / args.trials)})
    if args.format == "json":
        _emit(json.dumps({"meta": meta, "tails": rows}, indent=2, default=str) + "\n", args)
        return
    lines = [f"# {k}={v}" for k, v in meta.items()]
    lines.append("event,hits,trials,p_hat,ci99_halfwidth")
    lines += [f"{r['event']},{r['hits']},{r['trials']},{r['p_hat']!r},{r['ci99_halfwidth']!r}"
              for r in rows]
    _emit("\n".join(lines) + "\n", args)


# --- bounds -----------------------------------------------------------------


def _bound_params(args, pi) -> bnd.BoundParams:
    return bnd.BoundParams(c=args.c, T=args.T, n=args.n, pi=pi)


def _pi_from_args(args):
    if args.pi is not None:
        vec = parse_float_vector(args.pi)
        if abs(vec.sum() - 1.0) > 1e-9 or np.any(vec < 0):
            raise ValidationError("--pi must be a probability vector")
        from .chain import StationaryDistribution
        return StationaryDistribution(pi=vec, residual=0.0)
    _, chain = _chain_from_args(args)
    return stationary(chain.matrix)


def cmd_bounds(args) -> int:
    sub = args.bounds_cmd
    if sub == "kl":
        print(repr(bnd.kl_divergence(args.p, args.q)))
        return 0
    if sub == "pinsker":
        _emit_reports([bnd.pinsker_check(args.p, args.q)], args, _meta(args))
        return 0
    if sub == "hittailbound":
        print(repr(bnd.hitting_tail_bound(args.expected, args.t)))
        return 0
    if sub == "explicittail":
        print(repr(bnd.explicit_hitting_tail(args.pi_a, args.t_half, args.t, args.c)))
        return 0
    pi = _pi_from_args(args)
    if sub == "qprob":
        q = bnd.q_probabilities(_bound_params(args, pi), iid_exact=args.iid)
        print(",".join(repr(float(x)) for x in q))
        return 0
    if sub == "jointbound":
        value = bnd.joint_survival_bound(_bound_params(args, pi), parse_index_set(args.J),
                                         iid_exact=args.iid)
        print(repr(value))
        return 0
    if sub == "iidsurv":
        print(repr(bnd.iid_exact_survival(pi, parse_index_set(args.J), args.n)))
        return 0
    if sub == "product":
        _emit_reports([bnd.product_inequality_check(pi, parse_index_set(args.J))],
                      args, _meta(args))
        return 0
    if sub == "mmtail":
        tail = bnd.missing_mass_tail_bound(_bound_params(args, pi), args.eps, c2=args.c2)
        print(f"threshold={tail.threshold!r} failure_bound={tail.failure_bound!r} "
              f"mean_term={tail.mean_term!r} c2={tail.c2!r} ({tail.c2_note})")
        return 0
    raise ValidationError(f"unknown bounds subcommand {sub!r}")


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


def build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(prog="mml",
                                 description="Hitting-time analysis, missing-mass simulation, "
                                             "and tail-bound verification for finite Markov chains")
    ap.add_argument("--version", action="version", version=f"mml {__version__}")
    sub = ap.add_subparsers(dest="cmd", required=True)

    chain = sub.add_parser("chain", help="validate, analyze, or generate chain files")
    chain_sub = chain.add_subparsers(dest="chain_cmd", required=True)
    cv = chain_sub.add_parser("validate")
    cv.add_argument("--in", dest="infile", required=True)
    cs = chain_sub.add_parser("stationary")
    _add_chain_source(cs)
    _add_output(cs)
    cg = chain_sub.add_parser("generate")
    _add_chain_source(cg)
    cg.add_argument("--out", metavar="FILE")

    hit = sub.add_parser("hit", help="exact hitting-time queries and analytic checks")
    hit_sub = hit.add_subparsers(dest="hit_cmd", required=True)
    for name in ("table", "tplus", "tminus", "tlarge", "lemma1", "lemma2"):
        hp = hit_sub.add_parser(name)
        _add_chain_source(hp)
        _add_output(hp)
        if name in ("table", "tplus", "tminus", "lemma1"):
            hp.add_argument("--B", required=True, help="comma-separated state indices")
        if name in ("tplus", "tminus", "lemma1", "lemma2"):
            hp.add_argument("--A", required=True, help="comma-separated state indices")
        if name == "tlarge":
            hp.add_argument("--eps", type=float, default=0.5)

    sim = sub.add_parser("simulate", help="seeded Monte Carlo estimates")
    sim_sub = sim.add_subparsers(dest="sim_cmd", required=True)
    for name in ("mm", "hittail", "jointtail", "mgf"):
        sp = sim_sub.add_parser(name)
        _add_chain_source(sp)
        _add_output(sp)
        _add_sim(sp)
        if name == "mm":
            sp.add_argument("--dump", metavar="FILE", help="write trial,value,unseen_set CSV")
        if name == "hittail":
            sp.add_argument("--B", required=True)
            sp.add_argument("--t", required=True, help="thresholds: comma list or a..b")
            sp.add_argument("--cap", type=int, default=10**6)
        if name == "jointtail":
            sp.add_argument("--J", required=True)
        if name == "mgf":
            sp.add_argument("--s", type=float, required=True)

    b = sub.add_parser("bounds", help="closed-form bound evaluators")
    b_sub = b.add_subparsers(dest="bounds_cmd", required=True)
    for name in ("qprob", "jointbound", "iidsurv", "product", "mmtail"):
        bp = b_sub.add_parser(name)
        _add_chain_source(bp)
        _add_output(bp)
        bp.add_argument("--pi", help="explicit stationary vector (bypasses chain)")
        bp.add_argument("--n", type=int, default=1)
        bp.add_argument("--c", type=float, default=bnd.DEFAULT_C)
        bp.add_argument("--T", type=float, default=1.0)
        bp.add_argument("--iid", action="store_true", help="use exact (1-pi)^n surrogates")
        if name in ("jointbound", "iidsurv", "product"):
            bp.add_argument("--J", required=True)
        if name == "mmtail":
            bp.add_argument("--eps", type=float, required=True)
            bp.add_argument("--c2", type=float, default=bnd.DEFAULT_C2)
    for name, flags in (("hittailbound", (("--expected", float), ("--t", float))),
                        ("explicittail", (("--pi-a", float), ("--t-half", float),
                                          ("--t", float), ("--c", float))),
                        ("kl", (("--p", float), ("--q", float))),
                        ("pinsker", (("--p", float), ("--q", float)))):
        bp = b_sub.add_parser(name)
        _add_output(bp)
        for flag, typ in flags:
            required = not (name == "explicittail" and flag == "--c")
            default = bnd.DEFAULT_C if flag == "--c" else None
            bp.add_argument(flag, type=typ, required=required, default=default)

    ver = sub.add_parser("verify", help="run inequality verification suites")
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
        if args.cmd == "chain":
            return cmd_chain(args)
        if args.cmd == "hit":
            return cmd_hit(args)
        if args.cmd == "simulate":
            return cmd_simulate(args)
        if args.cmd == "bounds":
            return cmd_bounds(args)
        if args.cmd == "verify":
            return cmd_verify(args)
        raise ValidationError(f"unknown command {args.cmd!r}")
    except ChainFileError as e:
        print(f"error: {e}", file=sys.stderr)
        return EXIT_PARSE
    except ValidationError as e:
        print(f"error: {e}", file=sys.stderr)
        return EXIT_VALIDATION
    except (PreconditionError, SingularSystemError) as e:
        print(f"error: {e}", file=sys.stderr)
        return EXIT_PRECONDITION
    except InsufficientTrialsError as e:
        print(f"error: {e}", file=sys.stderr)
        return EXIT_TRIALS
    except MMLError as e:
        print(f"error: {e}", file=sys.stderr)
        return EXIT_VALIDATION


if __name__ == "__main__":
    sys.exit(main())
