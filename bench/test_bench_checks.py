"""Every check of the benchmark rejects a wrong answer.

    python3 -m pytest -q bench/test_bench_checks.py
"""

import itertools
import random
import sys
from math import gcd
from pathlib import Path
from types import SimpleNamespace

import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))
sys.path.insert(0, str(HERE.parent / "src"))

import checks  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402
from checks import CheckFailed  # noqa: E402


def words(*images):
    return [checks.parse_word(t) for t in images]


# ---------------------------------------------------------------------------
# the independent computations


def test_folding_and_free_factors():
    assert checks.is_sub_rose(words("ab", "b"), [1, 2])
    assert not checks.is_sub_rose(words("aab"), [1])
    assert checks.is_basis(words("ab", "b"))
    assert not checks.is_basis(words("ab", "ba"))
    assert checks.same_class(words("bab", "b"), words("a", "b"))
    assert checks.same_class(words("Bab"), words("a"))
    assert not checks.same_class(words("ab"), words("aB"))
    assert checks.decide_free_factor(words("aab"), 2) is True
    assert checks.decide_free_factor(words("abAB"), 2) is False
    assert checks.decide_free_factor(words("a", "bcBCb"), 3) is False


def test_farey_search():
    assert checks.farey_bfs((1, 0), (0, 1)) == 1
    assert checks.farey_bfs((1, 0), (5, 2)) == 2
    assert checks.farey_bfs((2, 1), (-2, 1)) == 2
    assert checks.farey_bfs((1, 0), (7, 5)) == 3
    assert checks.farey_diameter([(1, 0), (0, 1), (1, 1)]) == 1


def _det(m):
    if len(m) == 1:
        return m[0][0]
    return sum((-1) ** j * m[0][j] * _det([r[:j] + r[j + 1:] for r in m[1:]])
               for j in range(len(m)))


def extends_to_basis(vectors):
    """Whether integer vectors are part of a basis of Z^n: the gcd of their
    maximal minors is 1."""
    g = 0
    for cols in itertools.combinations(range(len(vectors[0])), len(vectors)):
        g = gcd(g, _det([[v[c] for c in cols] for v in vectors]))
    return g == 1


def test_seeded_subgroups_have_the_constructed_answer():
    """Non-factors pass the homology tests (their abelianized generators
    extend to a basis of Z^n), so only Whitehead descent tells them apart;
    the benchmark's own descent agrees with the construction."""
    rng = random.Random(0)
    for n, kind, k in workloads.DECIDE_CELLS:
        gens = workloads.decide_input(n, kind, k, rng)
        assert extends_to_basis([checks.abelian(w, n) for w in gens])
        assert checks.decide_free_factor(gens, n) is (kind == "factor")


# ---------------------------------------------------------------------------
# factor-decide


def test_decision_checks():
    gens = words("ab")
    good = words("aB", "b")  # carries ab to a
    workloads.check_decision(2, "factor", 1, gens, True, good)
    with pytest.raises(CheckFailed):
        workloads.check_decision(2, "factor", 1, gens, False, None)
    with pytest.raises(CheckFailed):
        workloads.check_decision(2, "non-factor", 0, words("abABa"), True,
                                 good)
    with pytest.raises(CheckFailed):  # not an automorphism
        workloads.check_decision(2, "factor", 1, gens, True, words("a", "a"))
    with pytest.raises(CheckFailed):  # carries ab to ab, not onto <a>
        workloads.check_decision(2, "factor", 1, gens, True, words("a", "b"))


# ---------------------------------------------------------------------------
# pair-queries


def test_classify_checks():
    cert = {"a_edges": [1, 2], "b_edges": [3]}
    workloads.check_classify("disjoint", 0, {"verdict": "disjoint",
                                             "certificate": cert})
    with pytest.raises(CheckFailed):
        workloads.check_classify("overlap", 0, {"verdict": "disjoint",
                                                "certificate": cert})
    with pytest.raises(CheckFailed):
        workloads.check_classify("disjoint", 0, {"verdict": "disjoint"})
    with pytest.raises(CheckFailed):
        workloads.check_classify("disjoint", 0, {
            "verdict": "disjoint",
            "certificate": {"a_edges": [1, 2], "b_edges": [2]}})
    with pytest.raises(CheckFailed):
        workloads.check_classify("contained", 3, {"verdict": "contained_in"})


def member(*gens):
    return {"rank": len(gens), "generators": list(gens)}


def test_projection_checks():
    report = {"members": [member("a"), member("b"), member("ab")],
              "diameter": {"lower": 1, "upper": 1}}
    assert sorted(workloads.check_projection(0, report)) == [
        (0, 1), (1, 0), (1, 1)]
    with pytest.raises(CheckFailed):  # wrong diameter
        workloads.check_projection(0, dict(
            report, diameter={"lower": 2, "upper": 2}))
    with pytest.raises(CheckFailed):  # a commutator is not primitive
        workloads.check_projection(0, dict(
            report, members=[member("a"), member("abAB")]))
    with pytest.raises(CheckFailed):  # letter outside A's basis
        workloads.check_projection(0, dict(report, members=[member("c")]))
    with pytest.raises(CheckFailed):  # rank-2 member
        workloads.check_projection(0, dict(report,
                                           members=[member("a", "b")]))
    with pytest.raises(CheckFailed):
        workloads.check_projection(3, {"members": []})


def test_distance_check():
    workloads.check_distance([(1, 0), (5, 2)], 0, {"lower": 2, "upper": 2})
    with pytest.raises(CheckFailed):
        workloads.check_distance([(1, 0), (5, 2)], 0,
                                 {"lower": 1, "upper": 1})


def fake_program(farey):
    return {"sf": SimpleNamespace(projection=SimpleNamespace(
        farey_distance=farey))}


def test_farey_checks():
    rng = random.Random(0)
    small = workloads._farey_op((1, 0), (5, 2), rng)
    small.check({}, 2)
    with pytest.raises(CheckFailed):
        small.check({}, 3)
    v, w = workloads._big_slope(rng), workloads._big_slope(rng)
    big = workloads._farey_op(v, w, rng)
    big.check(fake_program(lambda x, y: 7), 7)
    with pytest.raises(CheckFailed):  # not symmetric
        big.check(fake_program(lambda x, y: 7 if x == v else 8), 7)
    with pytest.raises(CheckFailed):  # not SL2(Z)-invariant
        big.check(fake_program(lambda x, y: 7 if {x, y} == {v, w} else 6), 7)


def test_failing_farey_inputs_are_long_continued_fractions():
    for p, q in workloads.FAILING_FAREY:
        terms = 0
        while q:
            p, q = q, p % q
            terms += 1
        assert terms > 1100  # beyond the default recursion limit of 1000


# ---------------------------------------------------------------------------
# pingpong


def auto(*images):
    return SimpleNamespace(images=[SimpleNamespace(letters=w)
                                   for w in words(*images)])


def spec(**changes):
    """A stand-in for a PingPongSpec with A = <a, b>, psi swapping a and c,
    so B = <c, b>, f preserving A and g preserving B."""
    fields = dict(N=8, f=auto("b", "ab", "c"), g=auto("a", "c", "bc"),
                  psi=auto("c", "b", "a"),
                  B=SimpleNamespace(gens=lambda: [SimpleNamespace(letters=w)
                                                  for w in words("b", "c")]),
                  fill=SimpleNamespace(witnesses=[], inconclusive=0))
    fields.update(changes)
    return SimpleNamespace(**fields)


def test_build_checks():
    ctx = {"certified": 0}
    workloads.check_build(ctx, spec())
    assert ctx["certified"] == 1
    for bad in (dict(N=16), dict(f=auto("c", "b", "a")),
                dict(g=auto("b", "a", "c")),
                dict(fill=SimpleNamespace(witnesses=["x"], inconclusive=0)),
                dict(fill=SimpleNamespace(witnesses=[], inconclusive=2))):
        with pytest.raises(CheckFailed):
            workloads.check_build({"certified": 0}, spec(**bad))


def test_word_and_chain_checks():
    ctx = {"spec": SimpleNamespace(N=8), "certified": 0}
    word = workloads._pp_word([("f", 1), ("g", 1)])
    good = SimpleNamespace(syllables=[("f", 8), ("g", 8)],
                           invariant_factor=None)
    word.check(ctx, good)
    with pytest.raises(CheckFailed):
        word.check(ctx, SimpleNamespace(syllables=good.syllables,
                                        invariant_factor=("F", 1)))
    chains = workloads._pp_chains(seed=0)
    rep = SimpleNamespace(ok=True, failures=[],
                          details=[("projection-gap", 1, 5, 5)])
    chains.check(ctx, [rep, rep])
    assert ctx["certified"] == 2
    low_gap = SimpleNamespace(ok=True, failures=[],
                              details=[("projection-gap", 1, 2, 2)])
    failed = SimpleNamespace(ok=False, failures=[(1, "gap")],
                             details=rep.details)
    for bad in ([rep, low_gap], [failed, rep], [rep]):
        with pytest.raises(CheckFailed):
            chains.check(ctx, bad)
    workloads._pp_check_xsets(ctx, [[SimpleNamespace(members=[1])] * 3] * 2)
    with pytest.raises(CheckFailed):
        workloads._pp_check_xsets(ctx, [[SimpleNamespace(members=[])] * 3] * 2)


# ---------------------------------------------------------------------------
# tracing


def test_tracer_replaces_every_binding():
    import subfactor.cli  # noqa: F401  loads every module of the package
    from subfactor import cli, complex_cn, irreducible, projection

    original = projection.project_factor
    tracer = tracing.Tracer()
    tracer.install()
    try:
        wrapped = projection.project_factor
        assert wrapped is not original
        for mod in (complex_cn, irreducible, cli):
            assert mod.project_factor is wrapped
        tracer.active = True
        projection.farey_distance((1, 0), (3, 2))
        with pytest.raises(ValueError):
            projection.farey_distance((2, 0), (3, 2))
    finally:
        tracer.uninstall()
    assert projection.project_factor is original
    assert cli.project_factor is original
    m = tracer.metrics()
    assert m["projection.farey_distance.calls"] == 2
    assert m["projection.farey_distance.failed"] == 1
