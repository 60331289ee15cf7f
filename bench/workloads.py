"""The benchmark's workloads: inputs built from a seed, and the ops one pass runs.

Each workload calls mml's public API single-process (``workers=1``). An op
is one library call, or a short fixed sequence of them; its output is
fingerprinted on every pass and checked for correctness on the first.

- ``verify-all`` is ``mml verify all --seed S`` with default options, the
  run users make. Only here do ``verify``, ``report`` and ``cli`` do real
  work; the sampler dominates it.
- ``exact-hitting`` runs no Monte Carlo: stationary solves, exhaustive
  ``T(0.5)`` on m = 12..18 chains (tens of thousands of tiny solves),
  ``hitting_table`` at m = 500 and 2000 (a few large solves), and oracle
  chains with closed-form answers, including two known defects.
- ``mc-sampling`` calls the sampler entry points directly over a grid of
  state counts and horizons, with no ``verify`` or ``report`` around them.
"""

from __future__ import annotations

import contextlib
import io
import math
from dataclasses import dataclass
from pathlib import Path
from typing import Any, Callable

import numpy as np

import mml
import mml.cli
from mml.report import csv_body
from mml.simulate import TRAJECTORY_CAP, derive_stream
from mml.verify import SUITE_ORDER

import reference

EPSILON = 0.5
# Output entries may differ from a closed form by at most this much before
# the output counts as wrong; smaller errors are measured, not judged.
ORACLE_TOL = 1e-3
# Statistical checks use z = 6: a false alarm is about one in 10^9 per check.
Z_CHECK = 6.0


@dataclass
class Op:
    """One timed library call, with how to fingerprint and check its output."""

    name: str
    run: Callable[[], Any]
    fingerprint: Callable[[Any], dict[str, bytes]]
    check: Callable[[Any], list[str]]
    rel_err: Callable[[Any], float] | None = None


@dataclass
class Workload:
    name: str
    options: dict
    ops: list[Op]


def sub_seed(seed: int, index: int) -> int:
    """Deterministic per-input seed, distinct for each (seed, index)."""
    return (seed * 1_000_003 + index) % 2**63


def _array_bytes(a) -> dict[str, bytes]:
    a = np.ascontiguousarray(a)
    return {"array": f"{a.dtype}{a.shape}".encode() + a.tobytes()}


def _pi_problems(P, pi) -> list[str]:
    vec = pi.pi
    problems = []
    if np.any(vec <= 0) or abs(float(vec.sum()) - 1.0) > 1e-9:
        problems.append("stationary vector is not a positive distribution")
    if float(np.max(np.abs(vec @ P.rows - vec))) > 1e-9:
        problems.append("stationary vector does not solve pi P = pi")
    return problems


# --- verify-all ---------------------------------------------------------------


def build_verify_all(seed: int, workdir: Path) -> Workload:
    out_dir = workdir / "reports"
    argv = ["verify", "all", "--seed", str(seed), "--workers", "1", "--out", str(out_dir)]
    files = [f"{name}.csv" for name in SUITE_ORDER] + ["summary.csv", "violations.csv"]

    def run():
        with contextlib.redirect_stdout(io.StringIO()):
            code = mml.cli.main(argv)
        bodies = {}
        for name in files:
            path = out_dir / name
            if path.exists():
                bodies[name] = csv_body(path.read_text(encoding="utf-8"))
                path.unlink()
        return code, bodies

    def fingerprint(out):
        code, bodies = out
        return {"exit_code": str(code).encode(), **{n: b.encode() for n, b in bodies.items()}}

    def check(out):
        code, bodies = out
        problems = []
        if code not in (0, 1):  # 1 means violations were found: a result, not a failure
            problems.append(f"verify exited with code {code}")
        missing = [n for n in files if n not in bodies]
        if missing:
            return problems + [f"missing reports: {missing}"]
        rows = bodies["summary.csv"].splitlines()[1:]
        if [r.split(",")[0] for r in rows] != list(SUITE_ORDER):
            return problems + ["summary.csv does not list the suites in order"]
        violations = 0
        for row in rows:
            suite, checks, passed, _, n_viol = row.split(",")[:5]
            data = bodies[f"{suite}.csv"].splitlines()[1:]
            if len(data) != int(checks):
                problems.append(f"{suite}.csv has {len(data)} rows, summary says {checks}")
            if int(passed) + int(n_viol) != int(checks):
                problems.append(f"{suite}: passed + violations != checks")
            violations += int(n_viol)
        if len(bodies["violations.csv"].splitlines()) - 1 != violations:
            problems.append("violations.csv disagrees with summary.csv")
        if (code == 1) != (violations > 0):
            problems.append(f"exit code {code} with {violations} violations")
        return problems

    return Workload("verify-all", {"argv": argv[:-1] + ["<tmpdir>"]},
                    [Op("verify all", run, fingerprint, check)])


# --- exact-hitting ------------------------------------------------------------


def _t_large_op(label, chain):
    P = chain.matrix

    def run():
        pi = mml.stationary(P)
        return pi, mml.t_large(P, pi, EPSILON)

    def fingerprint(out):
        pi, res = out
        return {"pi": pi.pi.tobytes(),
                "t_large": repr((res.value, res.argmax_set.members)).encode()}

    def check(out):
        pi, res = out
        problems = _pi_problems(P, pi)
        ref = reference.t_large(P.rows, pi.pi, EPSILON)
        if abs(res.value - ref) > 1e-9 * max(1.0, ref):
            problems.append(f"T(0.5)={res.value!r}, reference {ref!r}")
        if pi.mass(res.argmax_set.members) < EPSILON - reference.MASS_TOL:
            problems.append("T(0.5) witness set has mass below 0.5")
        return problems

    return Op(f"t_large {label}", run, fingerprint, check)


def _stationary_op(label, chain):
    return Op(f"stationary {label}", lambda: mml.stationary(chain.matrix),
              lambda pi: _array_bytes(pi.pi), lambda pi: _pi_problems(chain.matrix, pi))


def _hitting_op(label, chain, members):
    P = chain.matrix
    B = mml.state_set(members)

    def check(table):
        h = table.h
        problems = []
        if np.any(h[B.indices()] != 0) or np.any(np.delete(h, B.indices()) < 1):
            problems.append("h is not 0 on the target and >= 1 off it")
        if reference.hitting_residual(P.rows, B.indices(), h) > 1e-8 * max(1.0, float(h.max())):
            problems.append("h does not solve the first-step equations")
        return problems

    return Op(f"hitting_table {label} |B|={len(B)}", lambda: mml.hitting_table(P, B),
              lambda table: _array_bytes(table.h), check)


def _oracle_ops(label, chain, target, pi_exact, h_exact):
    P = chain.matrix
    B = mml.state_set([target])

    def pi_check(pi):
        err = reference.max_rel_err(pi.pi, pi_exact)
        return [] if err <= ORACLE_TOL else [f"{label}: pi relative error {err!r}"]

    def h_check(table):
        err = reference.max_rel_err(table.h, h_exact)
        return [] if err <= ORACLE_TOL else [f"{label}: h relative error {err!r}"]

    return [
        Op(f"oracle pi {label}", lambda: mml.stationary(P), lambda pi: _array_bytes(pi.pi),
           pi_check, lambda pi: reference.max_rel_err(pi.pi, pi_exact)),
        Op(f"oracle h {label}", lambda: mml.hitting_table(P, B), lambda t: _array_bytes(t.h),
           h_check, lambda t: reference.max_rel_err(t.h, h_exact)),
    ]


def build_exact_hitting(seed: int, workdir: Path) -> Workload:
    ops = []
    enum_chains = []
    for m in (12, 14, 16):
        enum_chains += [
            (f"lazy-cycle(m={m},hold=0.5)", mml.generate("lazy-cycle", m=m, hold=0.5)),
            (f"birth-death(m={m},p=0.35,q=0.25)", mml.generate("birth-death", m=m, p=0.35, q=0.25)),
            (f"random-dense(m={m})",
             mml.generate("random-dense", m=m, alpha=1.0, seed=sub_seed(seed, m))),
        ]
    enum_chains.append(("random-dense(m=18)",
                        mml.generate("random-dense", m=18, alpha=1.0, seed=sub_seed(seed, 18))))
    ops += [_t_large_op(label, chain) for label, chain in enum_chains]

    targets = {}
    for m in (500, 2000):
        label = f"random-dense(m={m})"
        chain = mml.generate("random-dense", m=m, alpha=1.0, seed=sub_seed(seed, m))
        rng = np.random.default_rng(sub_seed(seed, m + 1))
        sets = [rng.choice(m, size=k, replace=False).tolist() for k in (1, m // 100, m // 10)]
        targets[label] = [sorted(s) for s in sets]
        ops.append(_stationary_op(label, chain))
        ops += [_hitting_op(label, chain, members) for members in targets[label]]

    # Oracle chains, kept whatever they do today: two-state loses ~2e-5 of
    # relative accuracy, and birth-death(m=20) raises SingularSystemError.
    oracles = [
        ("two-state(p=1e-12,q=0.5)", mml.generate("two-state", p=1e-12, q=0.5), 1,
         reference.two_state(1e-12, 0.5)),
        ("lazy-cycle(m=1000,hold=0.5)", mml.generate("lazy-cycle", m=1000, hold=0.5), 0,
         reference.lazy_cycle(1000, 0.5)),
        ("birth-death(m=20,p=0.1,q=0.8)", mml.generate("birth-death", m=20, p=0.1, q=0.8), 0,
         reference.birth_death(20, 0.1, 0.8)),
    ]
    for label, chain, target, (pi_exact, h_exact) in oracles:
        ops += _oracle_ops(label, chain, target, pi_exact, h_exact)

    options = {"epsilon": EPSILON, "t_large_chains": [label for label, _ in enum_chains],
               "hitting_targets": targets, "oracles": [o[0] for o in oracles],
               "chain_seeds": "random-dense(m) uses sub_seed(seed, m)"}
    return Workload("exact-hitting", options, ops)


# --- mc-sampling --------------------------------------------------------------


def _first_visit_op(m, n, trials, chain, pi, master_seed):
    def check(fv):
        problems = []
        if fv.shape != (trials, m) or fv.min() < 1 or fv.max() > n + 1:
            return [f"first-visit table m={m} n={n}: wrong shape or range"]
        if not np.all((fv == 1).sum(axis=1) == 1):
            problems.append(f"m={m} n={n}: a trial does not start in exactly one state")
        visited = np.sort(np.where(fv <= n, fv, 0), axis=1)
        if np.any((np.diff(visited, axis=1) == 0) & (visited[:, 1:] > 0)):
            problems.append(f"m={m} n={n}: two states first visited at the same step")
        starts = (fv == 1).sum(axis=0)
        sd = np.sqrt(trials * pi.pi * (1 - pi.pi))
        if np.any(np.abs(starts - trials * pi.pi) > Z_CHECK * sd + 1):
            problems.append(f"m={m} n={n}: start states do not follow pi")
        return problems

    return Op(f"first_visit_table m={m} n={n}",
              lambda: mml.first_visit_table(chain, n, trials, master_seed, 1, pi),
              _array_bytes, check)


def _hitting_samples_op(label, chain, pi, h_exact, trials, master_seed):
    B = mml.state_set([0])
    expected = 1.0 + float(sum(p * float(h) for p, h in zip(pi.pi, h_exact)))

    def check(N):
        if N.shape != (trials,) or N.min() < 1:
            return [f"{label}: bad N_B samples"]
        if np.any(N > TRAJECTORY_CAP):
            return [f"{label}: trajectories hit the step cap"]
        se = float(N.std(ddof=1)) / math.sqrt(trials)
        if abs(float(N.mean()) - expected) > Z_CHECK * se:
            return [f"{label}: mean N_B {N.mean()!r}, exact {expected!r}"]
        return []

    return Op(f"hitting_time_samples {label}",
              lambda: mml.hitting_time_samples(chain, B, trials, master_seed, 1, pi=pi),
              _array_bytes, check)


def build_mc_sampling(seed: int, workdir: Path) -> Workload:
    grid_trials = 16_384
    mm_trials, mm_n, mgf_s = 32_768, 16, 1.0
    hts_trials = 16_384
    occ_steps = 1_000_000
    ops = []
    for m in (4, 10, 32, 64):
        chain = mml.generate("random-dense", m=m, alpha=1.0, seed=sub_seed(seed, m))
        pi = mml.stationary(chain.matrix)
        for n in (64, 512):
            ops.append(_first_visit_op(m, n, grid_trials, chain, pi, sub_seed(seed, 1000 * m + n)))

    slow = [("lazy-cycle(m=32,hold=0.5)", mml.generate("lazy-cycle", m=32, hold=0.5),
             reference.lazy_cycle(32, 0.5)[1]),
            ("birth-death(m=20,p=0.25,q=0.25)", mml.generate("birth-death", m=20, p=0.25, q=0.25),
             reference.birth_death(20, 0.25, 0.25)[1])]
    for k, (label, chain, h_exact) in enumerate(slow):
        ops.append(_hitting_samples_op(label, chain, mml.stationary(chain.matrix), h_exact,
                                       hts_trials, sub_seed(seed, 2000 + k)))

    mu = derive_stream(sub_seed(seed, 3000), 0).dirichlet(np.ones(8))
    iid = mml.generate("iid", mu=mu)
    iid_pi = mml.stationary(iid.matrix)
    config = mml.SimConfig(chain=iid, n=mm_n, trials=mm_trials, master_seed=sub_seed(seed, 3001))
    mm_exact = float(np.sum(mu * (1.0 - mu) ** mm_n))

    def run_mm():
        samples = mml.sample_missing_mass(config, iid_pi)
        return samples, mml.empirical_mgf(samples, mgf_s)

    def mm_fingerprint(out):
        samples, mgf = out
        values = np.array([s.value for s in samples])
        unseen = "|".join(",".join(map(str, s.unseen_set.members)) for s in samples)
        return {"values": values.tobytes(), "unseen": unseen.encode(), "mgf": repr(mgf).encode()}

    def mm_check(out):
        samples, mgf = out
        values = np.array([s.value for s in samples])
        problems = []
        se = max(float(values.std(ddof=1)), 1e-12) / math.sqrt(mm_trials)
        if len(samples) != mm_trials or abs(float(values.mean()) - mm_exact) > Z_CHECK * se:
            problems.append(f"missing-mass mean {values.mean()!r}, exact {mm_exact!r}")
        direct = math.fsum(math.exp(mgf_s * v) for v in values) / values.size
        if abs(mgf - direct) > 1e-12 * direct:
            problems.append(f"empirical_mgf {mgf!r}, direct {direct!r}")
        return problems

    ops.append(Op(f"sample_missing_mass+empirical_mgf iid(m=8) n={mm_n}",
                  run_mm, mm_fingerprint, mm_check))

    occ_chain = mml.generate("random-dense", m=5, alpha=1.0, seed=sub_seed(seed, 4000))
    occ_pi = mml.stationary(occ_chain.matrix)
    occ_seed = sub_seed(seed, 4001)

    def occ_check(freq):
        tv = 0.5 * float(np.abs(freq - occ_pi.pi).sum())
        return [] if tv <= 0.02 else [f"occupancy total variation {tv!r} from pi"]

    ops.append(Op(f"occupancy_frequencies random-dense(m=5) steps={occ_steps}",
                  lambda: mml.occupancy_frequencies(occ_chain, occ_steps,
                                                derive_stream(occ_seed, 0), occ_pi),
                  _array_bytes, occ_check))

    options = {"grid": {"m": [4, 10, 32, 64], "n": [64, 512], "trials": grid_trials},
               "hitting_time_samples": {"chains": [s[0] for s in slow], "target": [0],
                                        "trials": hts_trials},
               "missing_mass": {"chain": "iid(m=8)", "n": mm_n, "trials": mm_trials,
                                "mgf_s": mgf_s},
               "occupancy": {"chain": "random-dense(m=5)", "steps": occ_steps},
               "workers": 1, "chain_seeds": "sub_seed(seed, index)"}
    return Workload("mc-sampling", options, ops)


BUILDERS = {
    "verify-all": build_verify_all,
    "exact-hitting": build_exact_hitting,
    "mc-sampling": build_mc_sampling,
}
