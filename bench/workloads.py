"""The three workloads.  Each is a closed loop with one caller: a seeded
stream of rounds, every round the same list of operation kinds, each
operation sent after the previous one returned.

An operation is ``Op(kind, run, check)``: ``run(ctx)`` calls the program
and is the only timed part; ``check(ctx, answer)`` compares the answer with
the independent computations of ``checks`` and raises ``CheckFailed``.
``ctx`` holds the program's modules and what earlier operations of the same
round left for later ones.  ``expect`` names an exception the operation is
known to raise today; it is then counted as failed, not as wrong.
"""

from __future__ import annotations

import contextlib
import io
import json
from dataclasses import dataclass
from math import gcd

import checks
from checks import require


@dataclass
class Op:
    kind: str
    run: object
    check: object
    expect: type = None


class Program:
    """The loaded ``subfactor`` modules, looked up at call time so that a
    traced pass sees its wrappers."""

    def __init__(self, modules):
        self.__dict__.update(modules)

    def clear_caches(self):
        """Forget every process-global cache, as a fresh process would."""
        self.stallings.clear_reduction_cache()
        self.complex_cn._edge_cache.clear()
        self.projection._dist_to_infinity.cache_clear()


# ---------------------------------------------------------------------------
# factor-decide


# (ambient rank, "factor" with k = rank, or "non-factor" with j = number of
# basis letters beside [y, z] y), one decision each per round.  Costs fall
# in three groups: about 1 ms (rank 2), about 12 ms (rank-3 j = 0) and
# 20 ms to 1.6 s (the rest).  Nine decisions lie below the middle group
# and ten above it, so the median is a rank-3 j = 0 decision every run,
# not one from a gap between groups where it would jump from run to run;
# rank-4 j = 2 comes three times, so the 11th-slowest decision of a run
# lies well inside that group too.
DECIDE_CELLS = (
    [(2, "factor", 1)] * 4 + [(2, "non-factor", 0)] * 4 + [(3, "factor", 1)]
    + [(3, "non-factor", 0)] * 10
    + [(3, "factor", 2), (3, "non-factor", 1), (4, "factor", 1),
       (4, "factor", 2), (4, "factor", 3), (4, "non-factor", 0),
       (4, "non-factor", 1)]
    + [(4, "non-factor", 2)] * 3)
# accepted core sizes (edges) of a seeded subgroup, per ambient rank
DECIDE_CORE_EDGES = {2: (6, 10), 3: (10, 14), 4: (12, 16)}


def decide_input(n, kind, k, rng):
    """Generators of a subgroup of F_n whose answer is known by
    construction: a sub-rose <x_1..x_k>, or <x_1..x_j, [y, z] y> with
    y = x_{j+1}, z = x_{j+2}, moved by a product of 4 to 16 random Whitehead
    automorphisms.  Draws are repeated until the folded core has a size in
    DECIDE_CORE_EDGES[n], which keeps the cost of one cell steady."""
    lo, hi = DECIDE_CORE_EDGES[n]
    if kind == "factor":
        base = [(i,) for i in range(1, k + 1)]
    else:
        y, z = k + 1, k + 2
        base = [(i,) for i in range(1, k + 1)] + [(y, z, -y, -z, y)]
    while True:
        phi = checks.random_automorphism(n, rng, rng.randint(4, 16))
        gens = [checks.substitute(phi, w) for w in base]
        if lo <= len(checks.core_graph(gens)) <= hi:
            return gens


def factor_decide_round(rng):
    ops = []
    for n, kind, k in DECIDE_CELLS:
        gens = decide_input(n, kind, k, rng)
        ops.append(_decide_op(n, kind, k, gens))
    return ops


def _decide_op(n, kind, k, gens):
    def run(ctx):
        sf = ctx["sf"]
        sf.clear_caches()
        F = sf.stallings.factor_class([sf.words.Word(n, w) for w in gens])
        return sf.stallings.is_free_factor(F)

    def check(ctx, res):
        check_decision(n, kind, k, gens, res.is_factor,
                       None if res.witness is None else
                       [w.letters for w in res.witness.images])
        ctx["certified"] += bool(res.certified)

    return Op(f"decide-{n}-{kind}-{k}", run, check)


def check_decision(n, kind, k, gens, is_factor, witness):
    """The verdict matches the construction, and a positive witness is an
    automorphism carrying the subgroup onto the sub-rose <x_1..x_k>."""
    require(is_factor == (kind == "factor"),
            f"rank-{n} {kind} decided is_factor={is_factor}")
    if is_factor:
        require(witness is not None and len(witness) == n,
                "free factor without a witness")
        require(checks.is_basis(witness), "witness is not an automorphism")
        image = [checks.substitute(witness, w) for w in gens]
        require(checks.is_sub_rose(image, range(1, k + 1)),
                "witness does not carry the subgroup onto <x_1..x_k>")


# ---------------------------------------------------------------------------
# pair-queries


# relation -> factors (generator texts) of one template pair or triple
PAIR_TEMPLATES = [
    (3, "contained", (["a"], ["a", "b"])),
    (3, "disjoint", (["a", "b"], ["c"])),
    (3, "overlap", (["a", "b"], ["ab", "c"], ["b", "ac"])),
    (4, "contained", (["a", "b"], ["a", "b", "c"])),
    (4, "disjoint", (["a", "b"], ["c", "d"])),
    (4, "overlap", (["a", "b"], ["ab", "c"], ["b", "ac"])),
    (4, "overlap", (["a", "b", "c"], ["ab", "d"])),
]
# projections and distances are asked of the overlapping triples only; a
# rank-3 projection costs 0.3 to 2.8 s (it grows with the square of its 4 to
# 10 members), too few fit in a run for a steady figure, so the rank-3 pair
# is classified only
EXPECTED_VERDICT = {"contained": "contained_in", "disjoint": "disjoint",
                    "overlap": "overlap"}
PAIR_MAX_EDGES = 4
# Farey calls per round: few enough that the median operation of a round is
# a classify call of about 1 ms
SMALL_SLOPES = 4  # with entries <= 30
LARGE_SLOPES = 2  # with about 25 digits
# consecutive Fibonacci slopes whose continued fraction is longer than the
# recursion limit: farey_distance raises RecursionError on them today
FAILING_FAREY = [checks.fibonacci_pair(250), checks.fibonacci_pair(400)]


def pair_queries_round(rng):
    ops = []
    for n, relation, template in PAIR_TEMPLATES:
        texts = pair_input(n, template, rng)
        ops.append(_classify_op(n, relation, texts[0], texts[1]))
        if len(texts) < 3:
            continue
        projected = {}
        for other in texts[1:]:
            ops.append(_project_op(n, texts[0], other, projected))
        ops.append(_distance_op(n, texts, projected))
    for _ in range(SMALL_SLOPES):
        ops.append(_farey_op(_slope(rng, 30), _slope(rng, 30), rng))
    for _ in range(LARGE_SLOPES):
        ops.append(_farey_op(_big_slope(rng), _big_slope(rng), rng))
    for v in FAILING_FAREY:
        ops.append(_farey_op((1, 0), v, rng, expect=RecursionError))
    return ops


def pair_input(n, template, rng):
    """The template's factors moved by a product of 1 to 3 random Whitehead
    automorphisms, redrawn until every factor's core has at most
    PAIR_MAX_EDGES edges: a projection's cost grows with the size of the
    projected factor (about 30 ms at 3 or 4 edges, up to 160 ms at 6 to 9)."""
    while True:
        phi = checks.random_automorphism(n, rng, rng.randint(1, 3))
        factors = [[checks.substitute(phi, checks.parse_word(w)) for w in f]
                   for f in template]
        if all(len(checks.core_graph(f)) <= PAIR_MAX_EDGES for f in factors):
            return [",".join(checks.format_word(w) for w in f)
                    for f in factors]


def call_cli(ctx, argv):
    """One CLI invocation as a fresh process would make it: empty
    in-process caches, the pass's cache file, the report read back from
    standard output."""
    sf = ctx["sf"]
    sf.clear_caches()
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = sf.cli.main(["--cache", ctx["cache"]] + argv)
    return code, json.loads(out.getvalue())


def _classify_op(n, relation, a_text, b_text):
    def run(ctx):
        return call_cli(ctx, ["classify", "--rank", str(n), "--a", a_text,
                              "--b", b_text])

    def check(ctx, answer):
        check_classify(relation, *answer)
        ctx["certified"] += bool(answer[1].get("certified"))

    return Op(f"classify-{n}-{relation}", run, check)


def check_classify(relation, code, report):
    """The verdict matches the constructed relation; a disjointness
    certificate has edge-disjoint, nonempty sides."""
    require(code == 0, f"classify exited {code}")
    want = EXPECTED_VERDICT[relation]
    require(report.get("verdict") == want,
            f"{relation} pair classified {report.get('verdict')!r}")
    if want == "disjoint":
        cert = report.get("certificate")
        require(cert is not None, "disjoint verdict without a certificate")
        a, b = set(cert["a_edges"]), set(cert["b_edges"])
        require(a and b and not a & b,
                "certificate sides are empty or share an edge")


def _project_op(n, a_text, b_text, projected):
    def run(ctx):
        return call_cli(ctx, ["project", "--rank", str(n), "--a", a_text,
                              "--b", b_text])

    def check(ctx, answer):
        projected[b_text] = check_projection(*answer)

    return Op(f"project-{n}", run, check)


def check_projection(code, report):
    """Every member is a rank-1 free factor of A's free group F_2, written
    in A's basis, and the diameter equals the Farey diameter of the members
    by breadth-first search.  Returns the members' slopes."""
    require(code == 0, f"project exited {code}")
    members = report.get("members") or []
    require(members, "overlapping pair with an empty projection")
    slopes = []
    for m in members:
        words = [checks.parse_word(t) for t in m["generators"]]
        require(len(words) == 1 and all(abs(x) <= 2 for x in words[0]),
                f"member {m['generators']} is not a class of F_2")
        require(checks.decide_free_factor(words, 2) is True,
                f"member {m['generators']} is not primitive")
        slopes.append(checks.abelian(words[0], 2))
    lo, hi = report["diameter"]["lower"], report["diameter"]["upper"]
    d = checks.farey_diameter(slopes)
    require(lo == hi == d, f"diameter {lo}..{hi}, Farey search gives {d}")
    return slopes


def _distance_op(n, texts, projected):
    def run(ctx):
        return call_cli(ctx, ["distance", "--rank", str(n), "--a", texts[0],
                              "--x", texts[1], "--y", texts[2]])

    def check(ctx, answer):
        check_distance(projected[texts[1]] + projected[texts[2]], *answer)

    return Op(f"distance-{n}", run, check)


def check_distance(slopes, code, report):
    """A rank-2 projection distance is the Farey diameter of the union of
    the two projections (by breadth-first search)."""
    require(code == 0, f"distance exited {code}")
    d = checks.farey_diameter(slopes)
    require(report.get("lower") == report.get("upper") == d,
            f"distance {report.get('lower')}..{report.get('upper')}, "
            f"Farey search gives {d}")


def _slope(rng, bound):
    while True:
        p, q = rng.randint(-bound, bound), rng.randint(-bound, bound)
        if (p, q) != (0, 0) and gcd(p, q) == 1:
            return (p, q)


def _big_slope(rng):
    """A slope of about 25 digits built from 40 to 60 continued fraction
    terms of size at most 3.  Slopes with a large partial quotient are left
    out: farey_distance recurses once per unit of such a quotient and fails
    on a seed-dependent share of them (see CHANGES.md)."""
    p, q = 1, 0
    for _ in range(rng.randint(40, 60)):
        p, q = rng.randint(1, 3) * p + q, p
    return (p * rng.choice((1, -1)), q)


def _farey_op(v, w, rng, expect=None):
    small = max(abs(x) for x in v + w) <= 30
    m = checks.random_sl2(rng)  # for the invariance check of large slopes

    def run(ctx):
        sf = ctx["sf"]
        sf.projection._dist_to_infinity.cache_clear()
        return sf.projection.farey_distance(v, w)

    def check(ctx, d):
        if small:
            want = checks.farey_bfs(v, w)
            require(d == want, f"farey {v} {w}: {d}, search gives {want}")
            return
        f = ctx["sf"].projection.farey_distance
        require(f(w, v) == d, f"farey {v} {w} is not symmetric")
        mv, mw = checks.sl2_image(m, v), checks.sl2_image(m, w)
        require(f(mv, mw) == d, f"farey {v} {w} is not SL2(Z)-invariant")
        require(d >= 1, "distinct slopes at distance 0")

    kind = "farey-small" if small else (
        "farey-large" if expect is None else "farey-fibonacci")
    return Op(kind, run, check, expect)


# ---------------------------------------------------------------------------
# pingpong


PINGPONG_WORDS = ([("f", 1), ("g", 1)], [("f", 1), ("g", -1)])
M_EMP = D_EMP = 1


def pingpong_round(rng):
    """The shipped construction: A = <a, b>, psi = cli.FILLING_PSI, with
    m_emp = d_emp = 1 (so N = 8).  The seed picks only the sampling seed of
    the chain projections.  Five operations, so the median one is the
    build."""
    chain_seed = rng.randint(0, 10 ** 6)
    return ([Op("build", _pp_build, check_build)]
            + [_pp_word(syl) for syl in PINGPONG_WORDS]
            + [Op("xsets", _pp_xsets, _pp_check_xsets),
               _pp_chains(chain_seed)])


def _pp_build(ctx):
    sf = ctx["sf"]
    sf.clear_caches()
    A = sf.stallings.factor_from_strs(3, ["a", "b"])
    psi = sf.words.Automorphism.from_strs(3, list(sf.cli.FILLING_PSI))
    ctx["spec"] = sf.irreducible.build_pingpong(A, psi, m_emp=M_EMP,
                                                d_emp=D_EMP)
    return ctx["spec"]


def check_build(ctx, spec):
    """f preserves A, g preserves B = psi(A), and the filling scan is empty
    with nothing inconclusive."""
    a = [(1,), (2,)]
    b = [checks.substitute(_letters(spec.psi), w) for w in a]
    require(spec.N == 8, f"N = {spec.N}, expected 8")
    require(checks.same_class([checks.substitute(_letters(spec.f), w)
                               for w in a], a), "f does not preserve A")
    require(checks.same_class([checks.substitute(_letters(spec.g), w)
                               for w in b], b), "g does not preserve B")
    require(checks.same_class([w.letters for w in spec.B.gens()], b),
            "B is not psi(A)")
    require(not spec.fill.witnesses and spec.fill.inconclusive == 0,
            "filling scan found a witness or was inconclusive")
    ctx["certified"] += 1


def _letters(auto):
    return [w.letters for w in auto.images]


def _pp_word(syl):
    def run(ctx):
        return ctx["sf"].irreducible.pingpong_word(ctx["spec"], syl,
                                                   powers=6, core_bound=8)

    def check(ctx, ev):
        want = [(s, e * ctx["spec"].N) for s, e in syl]
        require(ev.syllables == want, f"syllables {ev.syllables}")
        require(ev.invariant_factor is None,
                f"invariant factor found for {syl}")

    return Op("word", run, check)


def _pp_xsets(ctx):
    ctx["xsets"] = ctx["sf"].irreducible.window_xsets(ctx["spec"], s=5, cap=6,
                                                      conj_len=3)
    return ctx["xsets"]


def _pp_check_xsets(ctx, xsets):
    require(len(xsets) == 2 and all(len(row) == 3 for row in xsets),
            "X-sets do not align with the two windows")
    require(all(xs.members for row in xsets for xs in row), "empty X-set")


def _pp_chains(seed):
    """The progress check of both chain windows."""
    def run(ctx):
        sf = ctx["sf"]
        windows = sf.irreducible.chain_windows(ctx["spec"])
        return [sf.complex_cn.chain_progress_verify(
            window, s=5, m_emp=M_EMP, cap=6, conj_len=3, samples=6,
            seed=seed, xsets=xrow)
            for window, xrow in zip(windows, ctx["xsets"])]

    def check(ctx, reports):
        require(len(reports) == 2, "expected a report per window")
        for i, rep in enumerate(reports):
            gaps = [d[2] for d in rep.details if d[0] == "projection-gap"]
            require(rep.ok and not rep.failures, f"chain {i}: {rep.failures}")
            require(gaps and all(g > 2 * M_EMP for g in gaps),
                    f"chain {i}: gaps {gaps} not above {2 * M_EMP}")
            ctx["certified"] += 1

    return Op("chains", run, check)


ROUNDS = {"factor-decide": factor_decide_round,
          "pair-queries": pair_queries_round,
          "pingpong": pingpong_round}
