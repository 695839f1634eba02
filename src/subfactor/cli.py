"""Command-line surface: classification, projection, distances, Farey
values, ping-pong evidence, and verification suites.

All reports are JSON with sorted keys; identical configuration and seed
give byte-identical output.  Exit codes: 0 decided/pass, 1 a verification
suite failed, 2 usage or domain error (bad options, or input the
mathematics rejects: a factor that is not a free factor, or a word for
farey whose class is not primitive), 3 no answer
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
from math import gcd

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
    contained_up_to_conjugacy,
    factor_class,
    factor_from_strs,
    is_free_factor,
    random_automorphism,
    substitute,
)
from .words import Automorphism, Word, word_to_str

# the shipped filling pair: B = psi(<a,b>) and <a,b> have no common
# disjoint rank-1 class (both have corank 1, so fill_check decides exactly)
FILLING_PSI = ("bcAcbbcAcBCaCCBCaCBBCaCB", "BCaCCCB", "bcAcbbcAc")


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
    """The factor of F_rank that the comma-separated words generate;
    UsageError unless they are words of F_rank generating a free factor."""
    gens = [p.strip() for p in text.split(",") if p.strip()]
    if not gens:
        raise UsageError("empty factor")
    try:
        F = factor_from_strs(rank, gens)
    except ValueError as e:
        raise UsageError(str(e))
    if not is_free_factor(F).is_factor:
        raise UsageError(f"<{text}> is not a free factor of F_{rank}")
    return F


def factor_json(F):
    return {"rank": F.rank, "generators": [word_to_str(x) for x in F.gens()]}


def emit(report):
    sys.stdout.write(json.dumps(report, sort_keys=True, indent=2) + "\n")


# ---------------------------------------------------------------------------
# commands


def cmd_classify(args):
    A = parse_factor(args.rank, args.a)
    B = parse_factor(args.rank, args.b)
    emit(classify_pair(A, B).to_json())
    return 0


def cmd_project(args):
    A = parse_factor(args.rank, args.a)
    B = parse_factor(args.rank, args.b)
    members = sorted(project_factor(A, B, samples=args.samples,
                                    seed=args.seed),
                     key=lambda F: F.code)
    report = {"members": [factor_json(F) for F in members],
              "config": {"seed": args.seed, "samples": args.samples}}
    if members:
        lo, hi = factor_distance(A, members, [])
        report["diameter"] = {"lower": lo, "upper": hi}
    emit(report)
    return 0 if members else 3


def cmd_distance(args):
    A = parse_factor(args.rank, args.a)
    X = parse_factor(args.rank, args.x)
    Y = parse_factor(args.rank, args.y)
    px = project_factor(A, X, samples=args.samples, seed=args.seed)
    py = project_factor(A, Y, samples=args.samples, seed=args.seed)
    if not px or not py:
        emit({"error": "empty projection (nested or disjoint)",
              "x_projects": bool(px), "y_projects": bool(py)})
        return 3
    lo, hi = factor_distance(A, px, py)
    emit({"lower": lo, "upper": hi,
          "config": {"seed": args.seed, "samples": args.samples}})
    return 0


def cmd_farey(args):
    du, dv = (primitive_vector(parse_factor(2, t)) for t in (args.u, args.v))
    d = farey_distance(du, dv)
    emit({"u": list(du), "v": list(dv), "distance": d})
    return 0


def cmd_pingpong(args):
    if args.m_emp < 0 or args.d_emp < 0:
        raise UsageError("--m-emp and --d-emp must not be negative")
    A = parse_factor(args.rank, args.a)
    B = parse_factor(args.rank, args.b)
    f = Automorphism.from_strs(args.rank, [s.strip() for s in args.f.split(",")])
    g = Automorphism.from_strs(args.rank, [s.strip() for s in args.g.split(",")])
    syllables = _parse_syllables(args.syllables)
    spec = spec_from_pair(f, g, A, B, m_emp=args.m_emp, d_emp=args.d_emp,
                          fill_bound=args.complexity_bound)
    ev = pingpong_word(spec, syllables, powers=args.powers,
                       core_bound=args.factor_size)
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
        # the search draws nothing at random; the seed field stays for
        # the reports pinned with it
        "config": {"seed": 0, "powers": args.powers,
                   "factor_size": args.factor_size,
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

    def bfs(v, w):
        seen = frontier = {v}
        for d in range(31):
            if w in frontier:
                return d
            frontier = {x for u in frontier
                        for x in _farey_neighbors(u, 60)} - seen
            seen = seen | frontier
        return None

    rng = random.Random(seed)
    pairs = [(_random_slope(rng, 15), _random_slope(rng, 15))
             for _ in range(samples)]
    mism = sum(1 for v, w in pairs
               if bfs(v, w) not in (None, farey_distance(v, w)))
    return mism == 0, {"checked": len(pairs), "mismatches": mism}


def _farey_neighbors(v, cap):
    """Every (r, s) with |r|, |s| <= cap and p*s - q*r = +-1, in order of r
    and then s, each signed as a slope.  Solved, not scanned: when p = 0,
    the r with q*r = +-1 take every s; otherwise s = (q*r - e) / p is whole
    exactly when q*r = e mod p, one residue class of r for each e = +-1."""
    p, q = v if v[0] >= 0 else (-v[0], -v[1])  # the same equation
    if p == 0:
        pairs = [(r, s) for r in range(-cap, cap + 1) if q * r in (1, -1)
                 for s in range(-cap, cap + 1)]
    else:
        pairs = []
        for e in (1, -1) if gcd(p, q) == 1 else ():
            r0 = e * pow(q, -1, p) % p
            for r in range(r0 - (r0 + cap) // p * p, cap + 1, p):
                s = (q * r - e) // p
                if -cap <= s <= cap:
                    pairs.append((r, s))
        pairs.sort()
    return [(r, s) if r > 0 or (r == 0 and s > 0) else (-r, -s)
            for r, s in pairs]


def _random_slope(rng, bound):
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
        cgens = C.gens()
        # phi carries C's canonical representative onto a conjugate
        # d Cp0 d^-1 of Cp's, as in restriction()
        Cp, d = class_frame([phi(w) for w in cgens])
        expr = Expression(Cp.gens())

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


# each suite with its default sample count
SUITES = {
    "farey-oracle": (suite_farey_oracle, 60),
    "trichotomy": (suite_trichotomy, 30),
    "diameter": (suite_diameter, 10),
    "behrstock": (suite_behrstock, 20),
    "bgit": (suite_bgit, 10),
    "near-embedded": (suite_near_embedded, 40),
    "joint-embedding": (suite_joint_embedding, 20),
    "equivariance": (suite_equivariance, 20),
    "xset": (suite_xset, 12),
    "progress": (suite_progress, 3),
}


def cmd_verify(args):
    suite, default = SUITES[args.suite]
    samples = args.samples or default
    ok, metrics = suite(samples, args.seed)
    emit({"suite": args.suite, "pass": ok, "samples": samples,
          "seed": args.seed, "metrics": metrics})
    return 0 if ok else 1


# ---------------------------------------------------------------------------
# entry point


def positive(text):
    """An argparse type: a positive integer."""
    value = int(text)
    if value <= 0:
        raise argparse.ArgumentTypeError(f"must be positive, not {value}")
    return value


REQUIRED = {"required": True}
RANK = ("--rank", {"type": int, "required": True})
SEED = ("--seed", {"type": int, "default": 0})
SAMPLES = ("--samples", {"type": positive, "default": 8})

# name -> (function, help, options as (flag, add_argument keywords) pairs);
# each command takes the options it reads and no others
COMMANDS = {
    "classify": (cmd_classify, "trichotomy for a factor pair",
                 [RANK, ("--a", REQUIRED), ("--b", REQUIRED)]),
    "project": (cmd_project, "projection of B to A's factor complex",
                [RANK, ("--a", REQUIRED), ("--b", REQUIRED), SEED, SAMPLES]),
    "distance": (cmd_distance, "projection distance d_A(X, Y)",
                 [RANK, ("--a", REQUIRED), ("--x", REQUIRED),
                  ("--y", REQUIRED), SEED, SAMPLES]),
    "farey": (cmd_farey, "exact Farey distance of two primitives",
              [("--u", REQUIRED), ("--v", REQUIRED)]),
    "pingpong": (cmd_pingpong, "bounded irreducibility evidence", [
        RANK,
        ("--f", {"required": True, "help": "images of f, comma separated"}),
        ("--g", {"required": True, "help": "images of g, comma separated"}),
        ("--a", {"default": "a,b"}),
        ("--b", {"default": "b,c"}),
        ("--syllables", {"default": "1,1",
                         "help": "alternating f,g exponents"}),
        ("--m-emp", {"type": int, "default": 3}),
        ("--d-emp", {"type": int, "default": 2}),
        ("--powers", {"type": positive, "default": 6}),
        ("--factor-size", {"type": positive, "default": 8}),
        ("--complexity-bound", {"type": positive, "default": 8})]),
    "verify": (cmd_verify, "run a verification suite", [
        ("--suite", {"required": True, "choices": SUITES}),
        SEED,
        ("--samples", {"type": positive,
                       "help": "default: the suite's own count"})]),
}


def parse_args(argv=None):
    """The options of one call.  The top-level parser reads --cache and
    the command's name; only that command's parser is then built, since
    building every command's parser costs more than a classify."""
    top = argparse.ArgumentParser(
        prog="subfactor",
        description="exact subfactor projections for outer automorphisms "
                    "of free groups",
        epilog="commands:\n" + "\n".join(
            f"  {name:10} {about}" for name, (_, about, _) in COMMANDS.items())
        + "\n\nsubfactor COMMAND -h lists a command's options",
        formatter_class=argparse.RawDescriptionHelpFormatter)
    top.add_argument("--cache", help="reduction cache path")
    top.add_argument("command", choices=COMMANDS, metavar="COMMAND",
                     help="one of the commands below")
    top.add_argument("options", nargs=argparse.REMAINDER, metavar="...",
                     help="the command's options, after its name")
    call = top.parse_args(argv)
    func, about, options = COMMANDS[call.command]
    c = argparse.ArgumentParser(prog=f"subfactor {call.command}",
                                description=about)
    c.set_defaults(func=func, cache=call.cache)
    for flag, keywords in options:
        c.add_argument(flag, **keywords)
    return c.parse_args(call.options)


def main(argv=None):
    try:
        args = parse_args(argv)
    except SystemExit as e:
        return 2 if e.code not in (0, None) else 0
    try:
        known = load_cache(args.cache)
        try:
            return args.func(args)
        finally:
            append_cache(args.cache, known)
    except (UsageError, ValueError) as e:
        sys.stderr.write(f"error: {e}\n")
        return 2


if __name__ == "__main__":
    sys.exit(main())
