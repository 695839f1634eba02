"""Command-line surface: classification, projection, distances, Farey
values, ping-pong evidence, and verification suites.

All reports are JSON with sorted keys; identical configuration and seed
give byte-identical output.  Exit codes: 0 decided/pass, 1 a verification
suite failed, 2 usage or domain error (bad options, or input the
mathematics rejects, such as a non-primitive word for farey), 3 no answer
where the command wants one: for project and distance a projection is
empty, and for pingpong the fill check found a witness and no invariant
factor turned up, so there is no irreducibility evidence (classify always
decides).  A failed internal consistency check is a bug, not an exit code:
it raises RuntimeError with its traceback.
"""

from __future__ import annotations

import argparse
import json
import os
import random
import sys

from .complex_cn import (
    chain_progress_verify,
    cn_distance_bounds,
    corank1_tester,
    enumerate_cvertices,
    x_set,
)
from .irreducible import (
    build_pingpong,
    chain_windows,
    pingpong_word,
    spec_from_pair,
    window_xsets,
)
from .marked import MarkingError, rose, transformed
from .projection import (
    behrstock_check,
    classify_pair,
    factor_distance,
    farey_distance,
    joint_embedding,
    omega_data,
    primitive_vector,
    project_factor,
)
from .stallings import (
    Expression,
    FreeFactorResult,
    REASONS,
    _reduction_cache,
    apply_to_factor,
    class_frame,
    factor_class,
    factor_from_strs,
    is_free_factor,
    random_automorphism,
    substitute,
)
from .words import Automorphism, Word, word_from_str, word_to_str

CACHE_ENV = "SUBFACTOR_CACHE"

# the shipped filling pair: B = psi(<a,b>) and <a,b> have no common
# disjoint rank-1 class (both have corank 1, so fill_check decides exactly)
FILLING_PSI = ("bcAcbbcAcBCaCCBCaCBBCaCB", "BCaCCCB", "bcAcbbcAc")


class Config:
    def __init__(self, seed=0, complexity_bound=8, samples=8, powers=6,
                 factor_size=8, cache_path=None):
        self.seed = seed
        self.complexity_bound = complexity_bound
        self.samples = samples
        self.powers = powers
        self.factor_size = factor_size
        self.cache_path = cache_path


BUDGETS = ("complexity_bound", "samples", "powers", "factor_size")


def config_from_args(args):
    cfg = Config()
    for name in ("seed",) + BUDGETS:
        v = getattr(args, name, None)
        if v is not None:
            setattr(cfg, name, v)
    cfg.cache_path = getattr(args, "cache", None) or os.environ.get(CACHE_ENV)
    for name in BUDGETS:
        if getattr(cfg, name) <= 0:
            raise UsageError(f"budget {name} must be positive")
    return cfg


class UsageError(Exception):
    pass


# ---------------------------------------------------------------------------
# cache


def load_cache(path):
    """Seed the in-process reduction cache from a newline-delimited JSON
    file.  Lines that are not valid records are skipped: a truncated final
    line (crashed writer), a record missing a field or holding one of the
    wrong type, a record whose reason is not one stallings.REASONS pairs
    with its verdict, and a record marked "certified": false, which an
    older, budgeted reduction wrote.  Older records carrying a "depth"
    field load under the same (rank, code) key."""
    if not path or not os.path.exists(path):
        return set(_reduction_cache)
    with open(path) as fh:
        for line in fh:
            try:
                entry = _cache_entry(json.loads(line))
            except ValueError:  # bad JSON or an unparsable witness word
                continue
            if entry is not None and entry[0] not in _reduction_cache:
                _reduction_cache[entry[0]] = entry[1]
    return set(_reduction_cache)


def _cache_entry(rec):
    """The (key, result) pair of a cache record, or None if the record is
    malformed; raises ValueError on a witness word that does not parse."""
    if not isinstance(rec, dict) or rec.get("certified", True) is not True:
        return None
    rank, code = rec.get("rank"), rec.get("code")
    is_factor, reason = rec.get("is_factor"), rec.get("reason")
    if (type(rank) is not int or rank < 1 or not isinstance(code, str)
            or not isinstance(is_factor, bool) or not isinstance(reason, str)
            or REASONS.get(reason) is not is_factor):
        return None
    wit = None
    if is_factor:
        texts = rec.get("witness")
        if (not isinstance(texts, list) or len(texts) != rank
                or not all(isinstance(t, str) for t in texts)):
            return None
        wit = Automorphism.from_strs(rank, texts)
    return (rank, code), FreeFactorResult(is_factor, witness=wit,
                                          reason=reason)


def append_cache(path, known):
    """Append reduction results computed since load_cache returned known."""
    if not path:
        return
    lines = []
    for key, res in _reduction_cache.items():
        if key in known:
            continue
        rank, code = key
        rec = {"rank": rank, "code": code, "is_factor": res.is_factor,
               "reason": res.reason}
        if res.witness is not None:
            rec["witness"] = [word_to_str(x) for x in res.witness.images]
        lines.append(json.dumps(rec, sort_keys=True))
    if lines:
        with open(path, "a") as fh:
            fh.write("\n".join(lines) + "\n")


# ---------------------------------------------------------------------------
# parsing and serialization


def parse_factor(rank, text):
    gens = [p.strip() for p in text.split(",") if p.strip()]
    if not gens:
        raise UsageError("empty factor")
    try:
        return factor_from_strs(rank, gens)
    except ValueError as e:
        raise UsageError(str(e))


def factor_json(F):
    return {"rank": F.rank, "generators": [word_to_str(x) for x in F.gens()]}


def emit(report):
    sys.stdout.write(json.dumps(report, sort_keys=True, indent=2) + "\n")


# ---------------------------------------------------------------------------
# commands


def cmd_classify(args, cfg):
    A = parse_factor(args.rank, args.a)
    B = parse_factor(args.rank, args.b)
    emit(classify_pair(A, B).to_json())
    return 0


def cmd_project(args, cfg):
    A = parse_factor(args.rank, args.a)
    B = parse_factor(args.rank, args.b)
    members = sorted(project_factor(A, B, samples=cfg.samples, seed=cfg.seed),
                     key=lambda F: F.code)
    report = {"members": [factor_json(F) for F in members]}
    if members:
        lo, hi = factor_distance(A, members, [])
        report["diameter"] = {"lower": lo, "upper": hi}
    emit(report)
    return 0 if members else 3


def cmd_distance(args, cfg):
    A = parse_factor(args.rank, args.a)
    X = parse_factor(args.rank, args.x)
    Y = parse_factor(args.rank, args.y)
    px = project_factor(A, X, samples=cfg.samples, seed=cfg.seed)
    py = project_factor(A, Y, samples=cfg.samples, seed=cfg.seed)
    if not px or not py:
        emit({"error": "empty projection (nested or disjoint)",
              "x_projects": bool(px), "y_projects": bool(py)})
        return 3
    lo, hi = factor_distance(A, px, py)
    emit({"lower": lo, "upper": hi,
          "config": {"seed": cfg.seed, "samples": cfg.samples}})
    return 0


def cmd_farey(args, cfg):
    u = word_from_str(2, args.u)
    v = word_from_str(2, args.v)
    du = primitive_vector(factor_class([u]))
    dv = primitive_vector(factor_class([v]))
    d = farey_distance(du, dv)
    emit({"u": list(du), "v": list(dv), "distance": d})
    return 0


def cmd_pingpong(args, cfg):
    A = parse_factor(args.rank, args.a)
    B = parse_factor(args.rank, args.b)
    f = Automorphism.from_strs(args.rank, [s.strip() for s in args.f.split(",")])
    g = Automorphism.from_strs(args.rank, [s.strip() for s in args.g.split(",")])
    syllables = _parse_syllables(args.syllables)
    spec = spec_from_pair(f, g, A, B, m_emp=args.m_emp, d_emp=args.d_emp,
                          fill_bound=cfg.complexity_bound)
    ev = pingpong_word(spec, syllables, powers=cfg.powers,
                       core_bound=cfg.factor_size)
    report = {
        "N": spec.N,
        "fill": {"witnesses": [factor_json(F) for F in spec.fill.witnesses],
                 "bound": spec.fill.bound,
                 "inconclusive": spec.fill.inconclusive},
        "syllables": [[s, e] for s, e in ev.syllables],
        "invariant_factor": (None if ev.invariant_factor is None else
                             {"factor": factor_json(ev.invariant_factor[0]),
                              "power": ev.invariant_factor[1]}),
        "growth_table": [[name, lo, hi] for name, lo, hi in ev.growth_table],
        "candidates": ev.candidates,
        "capped_orbits": ev.capped,
        "config": {"seed": cfg.seed, "powers": cfg.powers,
                   "factor_size": cfg.factor_size,
                   "m_emp": args.m_emp, "d_emp": args.d_emp},
    }
    emit(report)
    if ev.invariant_factor is not None:
        return 0  # decided: reducible
    return 0 if spec.fill.witnesses == [] else 3


def _parse_syllables(text):
    exps = [int(p) for p in text.split(",") if p.strip()]
    if not exps:
        raise UsageError("empty syllable list")
    return [("f" if i % 2 == 0 else "g", e) for i, e in enumerate(exps)]


# ---------------------------------------------------------------------------
# verification suites


def _random_rank2_factor(rng):
    """A seeded random automorphic image of <a, b> in F_3."""
    phi = random_automorphism(3, rng, length=rng.randint(2, 4))
    return apply_to_factor(phi, factor_from_strs(3, ["a", "b"]))


def _random_graph(rng, n=3):
    phi = random_automorphism(n, rng, length=rng.randint(1, 3))
    return transformed(rose(n), phi)


def suite_farey_oracle(samples, seed):
    """Continued-fraction distance against an independent breadth-first
    search to radius 30 on the Farey tessellation (neighbors of p/q are
    mediant moves), for slopes with entries of size at most 15."""
    bound = 15

    def bfs(v, w):
        from collections import deque

        start, goal = tuple(v), tuple(w)
        if start == goal:
            return 0
        q = deque([(start, 0)])
        seen = {start}
        while q:
            cur, d = q.popleft()
            if d >= 30:
                continue
            for nxt in _farey_neighbors(cur, bound * 4):
                if nxt == goal:
                    return d + 1
                if nxt not in seen:
                    seen.add(nxt)
                    q.append((nxt, d + 1))
        return None

    rng = random.Random(seed)
    mism = checked = 0
    pairs = []
    for _ in range(samples):
        v = _random_slope(rng, bound)
        w = _random_slope(rng, bound)
        pairs.append((v, w))
    for v, w in pairs:
        d_cf = farey_distance(v, w)
        d_bfs = bfs(v, w)
        checked += 1
        if d_bfs is not None and d_cf != d_bfs:
            mism += 1
    return mism == 0, {"checked": checked, "mismatches": mism}


def _farey_neighbors(v, cap):
    p, q = v
    out = []
    for r in range(-cap, cap + 1):
        for s in range(-cap, cap + 1):
            if p * s - q * r in (1, -1):
                rr, ss = r, s
                if rr < 0 or (rr == 0 and ss < 0):
                    rr, ss = -rr, -ss
                out.append((rr, ss))
    return out


def _random_slope(rng, bound):
    from math import gcd

    while True:
        p = rng.randint(-bound, bound)
        q = rng.randint(-bound, bound)
        if (p, q) != (0, 0) and gcd(p, q) == 1:
            if p < 0 or (p == 0 and q < 0):
                p, q = -p, -q
            return (p, q)


def suite_trichotomy(samples, seed):
    """Random factor pairs always classify, and certified verdicts are
    consistent with containment checks."""
    from .stallings import contained_up_to_conjugacy

    rng = random.Random(seed)
    counts = {}
    for _ in range(samples):
        n = rng.choice([2, 3])
        A = _random_sub(rng, n)
        B = _random_sub(rng, n)
        res = classify_pair(A, B)
        counts[res.kind] = counts.get(res.kind, 0) + 1
        ok = True
        if res.kind in ("contained_in", "contains"):
            inner, outer = (A, B) if res.kind == "contained_in" else (B, A)
            ok = contained_up_to_conjugacy(inner, outer)
        elif res.kind == "disjoint":
            try:
                ok = res.witness is not None and res.witness.verify(A, B)
            except MarkingError:
                ok = False
        if not ok:
            return False, {"verdicts": counts, "refuted": res.kind}
    return True, {"verdicts": counts}


def _random_sub(rng, n):
    phi = random_automorphism(n, rng, length=rng.randint(1, 4))
    k = rng.randint(1, n - 1)
    base = factor_class([Word(n, (i,)) for i in range(1, k + 1)])
    return apply_to_factor(phi, base)


def suite_near_embedded(samples, seed):
    """Whenever the doubled preimage of the overlap edges is a forest, the
    subgroup is a free factor."""
    rng = random.Random(seed)
    confirmed = tried = 0
    while confirmed < samples and tried < samples * 60:
        tried += 1
        n = 3
        gens = [_random_word(rng, n, rng.randint(1, 5))
                for _ in range(rng.randint(1, 2))]
        gens = [w for w in gens if w]
        if not gens:
            continue
        A = factor_class(gens)
        G = _random_graph(rng, n)
        data = omega_data(A, G)
        if not data.is_nearly_embedded():
            continue
        if not is_free_factor(A).is_factor:
            return False, {"confirmed": confirmed, "counterexample": [
                word_to_str(x) for x in A.gens()]}
        confirmed += 1
    return confirmed >= samples, {"confirmed": confirmed, "tried": tried}


def _random_word(rng, n, length):
    letters = []
    for _ in range(length):
        x = rng.choice([i for s in range(1, n + 1) for i in (s, -s)])
        if letters and letters[-1] == -x:
            continue
        letters.append(x)
    return Word(n, tuple(letters))


def suite_joint_embedding(samples, seed):
    """Pairs passing the joint forest condition produce a wedge certificate
    that validates and re-classifies as disjoint."""
    rng = random.Random(seed)
    done = tried = 0
    while done < samples and tried < samples * 40:
        tried += 1
        n = 3
        phi = random_automorphism(n, rng, length=rng.randint(1, 3))
        A = apply_to_factor(phi, factor_from_strs(n, ["a", "b"]))
        B = apply_to_factor(phi, factor_from_strs(n, ["c"]))
        G = _random_graph(rng, n)
        got = joint_embedding(A, B, G)
        if got is None:
            continue
        if not got.verify(A, B):
            return False, {"done": done, "reason": "certificate failed"}
        if classify_pair(A, B).kind != "disjoint":
            return False, {"done": done, "reason": "not reclassified disjoint"}
        done += 1
    return done >= samples, {"certificates": done, "tried": tried}


def suite_diameter(samples, seed):
    """diam pi_A(B) for overlapping rank-2 pairs in F_3, at 10 and 20
    sampled splittings; reports D_emp and its stability."""
    k = 10
    rng = random.Random(seed)
    d_emp = 0
    stable = True
    measured = 0
    while measured < samples:
        A = _random_rank2_factor(rng)
        B = _random_rank2_factor(rng)
        if A == B:
            continue
        p1 = project_factor(A, B, samples=k, seed=rng.randint(0, 10**6))
        if not p1:
            continue
        p2 = project_factor(A, B, samples=2 * k, seed=rng.randint(0, 10**6))
        d1 = factor_distance(A, p1, [])[1]
        d2 = factor_distance(A, p2, [])[1]
        d_emp = max(d_emp, d1, d2)
        if d2 > d1 + 1:
            stable = False
        measured += 1
    return stable and d_emp <= 10, {"D_emp": d_emp, "stable": stable,
                                    "pairs": measured}


def suite_behrstock(samples, seed):
    """min(d_A(B,G), d_B(A,G)) over random overlapping triples; reports
    M_emp."""
    rng = random.Random(seed)
    m_emp = 0
    measured = 0
    while measured < samples:
        A = _random_rank2_factor(rng)
        B = _random_rank2_factor(rng)
        if A == B:
            continue
        G = _random_graph(rng)
        try:
            da, db, min_upper = behrstock_check(A, B, G, samples=6,
                                                seed=rng.randint(0, 10**6))
        except ValueError:
            continue
        if min_upper is None:
            continue
        m_emp = max(m_emp, min_upper)
        measured += 1
    return m_emp <= 10, {"M_emp": m_emp, "triples": measured}


def suite_bgit(samples, seed, m_emp=10):
    """Certified paths avoiding X_A project to a set of diameter at most
    M_emp in A's factor complex."""
    A = factor_from_strs(3, ["a", "b"])
    disjoint = corank1_tester(A)
    # classes meeting A, so not in X_A
    pool = [F for F, w in enumerate_cvertices(3, 4, cap=40)
            if not disjoint(w)]
    rng = random.Random(seed)
    done = 0
    worst = 0
    tried = 0
    while done < samples and tried < samples * 20:
        tried += 1
        u, v = rng.sample(pool, 2)
        lo, hi, path = cn_distance_bounds(u, v, pool=pool)
        if path is None:
            continue
        proj = set()
        ok = True
        for F in path:
            p = project_factor(A, F, samples=4, seed=seed)
            if not p:
                ok = False
                break
            proj |= p
        if not ok or not proj:
            continue
        d = factor_distance(A, proj, [])[1]
        worst = max(worst, d)
        done += 1
    return worst <= m_emp and done >= samples, {
        "paths": done, "max_diameter": worst}


def suite_equivariance(samples, seed):
    """d_{phi C}(phi A, phi B) = d_C(A, B): projection members (factors of
    C, written in C's basis) are carried to phi C's basis and the distance
    recomputed there; exact since the basis change has determinant +-1.
    Verdict invariance is the separate half of the suite."""
    rng = random.Random(seed)
    checked = 0
    while checked < samples:
        C = _random_rank2_factor(rng)
        A = _random_rank2_factor(rng)
        B = _random_rank2_factor(rng)
        if A == B or A == C or B == C:
            continue
        s = rng.randint(0, 10**6)
        pa = project_factor(C, A, samples=4, seed=s)
        pb = project_factor(C, B, samples=4, seed=s)
        if not pa or not pb:
            continue
        d0 = factor_distance(C, pa, pb)
        phi = random_automorphism(3, rng, length=2)
        Cp = apply_to_factor(phi, C)
        expr = Expression(Cp.gens())
        cgens = C.gens()
        # phi carries C's canonical representative onto a conjugate
        # d Cp0 d^-1 of Cp's, as in restriction()
        d = class_frame([phi(w) for w in cgens])

        def translate(member):
            out = []
            for w in member.gens():
                amb = phi(substitute(cgens, w))
                x = expr.express(~d * amb * d)
                if x is None:
                    raise AssertionError("translated member left phi(C)")
                out.append(x)
            return factor_class(out)

        qa = {translate(F) for F in pa}
        qb = {translate(F) for F in pb}
        d1 = factor_distance(Cp, qa, qb)
        if d0 != d1:
            return False, {"checked": checked,
                           "mismatch": [list(d0), list(d1)]}
        checked += 1
    # verdict invariance
    ok, metrics = suite_verdict_equivariance(max(5, samples // 2), seed + 1)
    metrics["distance_checked"] = checked
    return ok, metrics


def suite_verdict_equivariance(samples, seed):
    rng = random.Random(seed)
    for i in range(samples):
        n = 3
        A = _random_sub(rng, n)
        B = _random_sub(rng, n)
        phi = random_automorphism(n, rng, length=2)
        k0 = classify_pair(A, B).kind
        k1 = classify_pair(apply_to_factor(phi, A),
                           apply_to_factor(phi, B)).kind
        if k0 != k1:
            return False, {"at": i, "kinds": [k0, k1]}
    return True, {"checked": samples}


def suite_xset(samples, seed):
    A = factor_from_strs(3, ["a", "b"])
    xs = x_set(A, s=8, cap=samples)
    diam = xs.diameter_upper()
    return diam is not None and diam <= 2, {
        "members": len(xs.members), "diameter_upper": diam}


def suite_progress(samples, seed):
    """The progress hypotheses on both chain windows of the shipped
    ping-pong pair, at m_emp = 3 and d_emp = 2."""
    m_emp, d_emp = 3, 2
    A = factor_from_strs(3, ["a", "b"])
    psi = Automorphism.from_strs(3, list(FILLING_PSI))
    spec = build_pingpong(A, psi, m_emp=m_emp, d_emp=d_emp)
    reports = []
    ok = True
    xsets = window_xsets(spec, s=5, cap=6)
    for window, xrow in zip(chain_windows(spec), xsets):
        rep = chain_progress_verify(window, s=5, m_emp=m_emp, cap=6,
                                    samples=samples, seed=seed, xsets=xrow)
        ok = ok and rep.ok
        reports.append({"ok": rep.ok, "failures": rep.failures})
    return ok, {"N": spec.N, "windows": reports,
                "filling": not spec.fill.witnesses}


SUITES = {
    "farey-oracle": suite_farey_oracle,
    "trichotomy": suite_trichotomy,
    "diameter": suite_diameter,
    "behrstock": suite_behrstock,
    "bgit": suite_bgit,
    "near-embedded": suite_near_embedded,
    "joint-embedding": suite_joint_embedding,
    "equivariance": suite_equivariance,
    "xset": suite_xset,
    "progress": suite_progress,
}

DEFAULT_SAMPLES = {
    "farey-oracle": 60,
    "trichotomy": 30,
    "diameter": 10,
    "behrstock": 20,
    "bgit": 10,
    "near-embedded": 40,
    "joint-embedding": 20,
    "equivariance": 20,
    "xset": 12,
    "progress": 3,
}


def cmd_verify(args, cfg):
    if args.suite not in SUITES:
        raise UsageError(f"unknown suite {args.suite!r}")
    samples = args.samples or DEFAULT_SAMPLES[args.suite]
    ok, metrics = SUITES[args.suite](samples, cfg.seed)
    emit({"suite": args.suite, "pass": ok, "samples": samples,
          "seed": cfg.seed, "metrics": metrics})
    return 0 if ok else 1


# ---------------------------------------------------------------------------
# entry point


def build_parser():
    p = argparse.ArgumentParser(
        prog="subfactor",
        description="exact subfactor projections for outer automorphisms "
                    "of free groups")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--cache", help=f"reduction cache path (or ${CACHE_ENV})")
    p.add_argument("--samples", type=int, dest="samples", default=None)
    p.add_argument("--complexity-bound", type=int, dest="complexity_bound")
    p.add_argument("--powers", type=int, dest="powers")
    p.add_argument("--factor-size", type=int, dest="factor_size")
    sub = p.add_subparsers(dest="command", required=True)

    c = sub.add_parser("classify", help="trichotomy for a factor pair")
    c.add_argument("--rank", type=int, required=True)
    c.add_argument("--a", required=True)
    c.add_argument("--b", required=True)
    c.set_defaults(func=cmd_classify)

    c = sub.add_parser("project", help="projection of B to A's factor complex")
    c.add_argument("--rank", type=int, required=True)
    c.add_argument("--a", required=True)
    c.add_argument("--b", required=True)
    c.set_defaults(func=cmd_project)

    c = sub.add_parser("distance", help="projection distance d_A(X, Y)")
    c.add_argument("--rank", type=int, required=True)
    c.add_argument("--a", required=True)
    c.add_argument("--x", required=True)
    c.add_argument("--y", required=True)
    c.set_defaults(func=cmd_distance)

    c = sub.add_parser("farey", help="exact Farey distance of two primitives")
    c.add_argument("--u", required=True)
    c.add_argument("--v", required=True)
    c.set_defaults(func=cmd_farey)

    c = sub.add_parser("pingpong", help="bounded irreducibility evidence")
    c.add_argument("--rank", type=int, required=True)
    c.add_argument("--f", required=True, help="images of f, comma separated")
    c.add_argument("--g", required=True, help="images of g, comma separated")
    c.add_argument("--a", default="a,b")
    c.add_argument("--b", default="b,c")
    c.add_argument("--syllables", default="1,1",
                   help="alternating f,g exponents")
    c.add_argument("--m-emp", type=int, default=3)
    c.add_argument("--d-emp", type=int, default=2)
    c.set_defaults(func=cmd_pingpong)

    c = sub.add_parser("verify", help="run a verification suite")
    c.add_argument("--suite", required=True, choices=sorted(SUITES))
    c.set_defaults(func=cmd_verify)
    return p


def main(argv=None):
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as e:
        return 2 if e.code not in (0, None) else 0
    try:
        cfg = config_from_args(args)
        known = load_cache(cfg.cache_path)
        try:
            return args.func(args, cfg)
        finally:
            append_cache(cfg.cache_path, known)
    except (UsageError, ValueError) as e:
        sys.stderr.write(f"error: {e}\n")
        return 2


if __name__ == "__main__":
    sys.exit(main())
