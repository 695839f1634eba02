import random
import sys
from pathlib import Path

import pytest

from subfactor import irreducible
from subfactor.irreducible import (
    FillReport,
    PingPongSpec,
    _disjoint_from,
    build_pingpong,
    choose_power,
    fill_check,
    pingpong_word,
    restriction,
    spec_from_pair,
    syllable_reduce,
    chain_windows,
    translate_xset,
    translation_estimate,
    window_xsets,
)
from subfactor.cli import FILLING_PSI
from subfactor.complex_cn import x_set
from subfactor.marked import transformed
from subfactor.projection import (
    find_disjoint_conjugator,
    project_graph,
    sample_graphs_with_embedded,
)
from subfactor.stallings import (
    apply_to_factor,
    factor_class,
    factor_from_strs,
    invert_automorphism,
    random_automorphism,
)
from subfactor.words import Automorphism, Word, word_from_str

sys.path.insert(0, str(Path(__file__).resolve().parent))
from oracles import fill_scan  # noqa: E402


def test_restriction_worked_example():
    # a |-> b, b |-> ab, c |-> c restricted to <a, b> is the rank-2
    # Fibonacci map
    f = Automorphism.from_strs(3, ["b", "ab", "c"])
    A = factor_from_strs(3, ["a", "b"])
    h, d = restriction(f, A)
    assert [str(w) for w in h.images] == ["b", "ab"]
    # d conjugates the canonical representative onto f(A_0)
    assert apply_to_factor(f, A) == A
    assert len(d) == 0 or d.rank == 3


def test_restriction_identity():
    A = factor_from_strs(3, ["a", "b"])
    ident = Automorphism.from_strs(3, ["a", "b", "c"])
    h, _ = restriction(ident, A)
    assert h.is_identity()


def test_restriction_rejects_nonpreserving():
    f = Automorphism.from_strs(3, ["b", "c", "a"])
    A = factor_from_strs(3, ["a", "b"])
    with pytest.raises(ValueError):
        restriction(f, A)


def test_translation_estimate_values():
    fib = Automorphism.from_strs(2, ["b", "ab"])
    assert translation_estimate(fib) >= 1
    # fixes <a>: rate zero
    fix = Automorphism.from_strs(2, ["a", "ab"])
    assert translation_estimate(fix) == 0
    with pytest.raises(ValueError):
        translation_estimate(Automorphism.from_strs(3, ["a", "b", "c"]))


def test_choose_power():
    assert choose_power(1, 1, 1) == 8  # threshold 6, doubling
    assert choose_power(10, 1, 1) == 1
    with pytest.raises(ValueError):
        choose_power(0, 1, 1)


def test_syllable_algebra():
    w = [("f", 2), ("g", -1)]
    assert syllable_reduce([("f", 1), ("f", 1), ("g", -1)]) == w
    assert syllable_reduce([("f", 1), ("f", -1)]) == []
    assert len(syllable_reduce(w)) == 2
    # power lengths are exactly multiplicative for cyclically reduced words
    for m in range(1, 5):
        assert len(syllable_reduce(w * m)) == m * len(syllable_reduce(w))
    # and not otherwise: the end syllables of f g f^2 merge in its square
    u = [("f", 1), ("g", 1), ("f", 2)]
    assert len(syllable_reduce(u * 2)) == 2 * len(syllable_reduce(u)) - 1


def _assert_witnesses_disjoint(rep, A, B):
    assert len(rep.witnesses) <= 1
    for W in rep.witnesses:
        assert W.rank == 1
        assert find_disjoint_conjugator(A, W) is not None
        assert find_disjoint_conjugator(B, W) is not None


def test_fill_check_finds_witness():
    # <a,b> and <b,c> in F_3 do not fill: <cA> misses both
    A = factor_from_strs(3, ["a", "b"])
    B = factor_from_strs(3, ["b", "c"])
    rep = fill_check(A, B, s=4)
    assert isinstance(rep, FillReport)
    assert rep and rep.bound is None and rep.scanned is None
    assert all(_disjoint_from(F, word_from_str(3, "cA"), None) for F in (A, B))
    _assert_witnesses_disjoint(rep, A, B)


@pytest.mark.parametrize("n, pairs, seed, s", [(3, 60, 2, 6), (4, 5, 3, 4)])
def test_exact_fill_agrees_with_scan(n, pairs, seed, s):
    # A the sub-rose on x_1..x_{n-1}, B = f(A) for a seeded random f: the
    # exact path finds a witness wherever the scan does, and each of its
    # witnesses is disjoint from both by the pair descent
    rng = random.Random(seed)
    A = factor_class([Word(n, (i,)) for i in range(1, n)])
    seen = {True: 0, False: 0}
    for _ in range(pairs):
        f = random_automorphism(n, rng, length=rng.randint(6, 20))
        B = apply_to_factor(f, A)
        rep = fill_check(A, B)
        assert rep.bound is None and rep.scanned is None
        if fill_scan(A, B, s) is not None:
            assert rep.witnesses, B
        _assert_witnesses_disjoint(rep, A, B)
        seen[bool(rep)] += 1
    if n == 3:
        assert seen[True] and seen[False]  # both answers are exercised


def test_exact_fill_finds_witness_beyond_scan_bound():
    # the Fibonacci map on a, c, fixing b, stretches every class disjoint
    # from both <a,b> and <b,c> (a^+-1 b^i c^+-1 b^j) past 8 letters
    h = Automorphism.from_strs(3, ["ac", "b", "a"]) ** 7
    A = apply_to_factor(h, factor_from_strs(3, ["a", "b"]))
    B = apply_to_factor(h, factor_from_strs(3, ["b", "c"]))
    assert fill_scan(A, B, 8) is None
    rep = fill_check(A, B)
    assert rep and rep.bound is None
    (W,) = rep.witnesses
    assert len(W.gens()[0]) > 8
    _assert_witnesses_disjoint(rep, A, B)


def test_corank_two_pair_keeps_the_scan():
    A = factor_from_strs(4, ["a", "b"])
    B = factor_from_strs(4, ["c", "d"])
    rep = fill_check(A, B, s=3)
    assert rep.bound == 3 and 0 < rep.scanned
    assert rep
    _assert_witnesses_disjoint(rep, A, B)


def test_fill_check_rejects_rank_one():
    with pytest.raises(ValueError):
        fill_check(factor_from_strs(3, ["a"]), factor_from_strs(3, ["b", "c"]))


def test_spec_from_pair_and_word_search():
    f = Automorphism.from_strs(3, ["b", "ab", "c"])
    g = Automorphism.from_strs(3, ["a", "c", "bc"])
    A = factor_from_strs(3, ["a", "b"])
    B = factor_from_strs(3, ["b", "c"])
    spec = spec_from_pair(f, g, A, B, m_emp=1, d_emp=1, fill_bound=3)
    assert spec.N == 8
    assert spec.validate()
    ev = pingpong_word(spec, [("f", 1), ("g", 1)], powers=2, core_bound=6,
                       candidate_cap=20)
    assert ev.syllables == [("f", 8), ("g", 8)]
    assert ev.candidates > 0
    # the windows and their X-sets are the pulled-back ones, which need psi
    assert chain_windows(spec) is None and window_xsets(spec) is None


def test_spec_computes_growth_table_and_inverses_once(monkeypatch):
    f = Automorphism.from_strs(3, ["b", "ab", "c"])
    g = Automorphism.from_strs(3, ["a", "c", "bc"])
    spec = PingPongSpec(f=f, g=g, A=factor_from_strs(3, ["a", "b"]),
                        B=factor_from_strs(3, ["b", "c"]), N=2)
    want = irreducible._growth_table(spec)
    calls = []

    def counted(name):
        real = getattr(irreducible, name)

        def wrapper(*args):
            calls.append(name)
            return real(*args)

        monkeypatch.setattr(irreducible, name, wrapper)

    counted("_growth_table")
    counted("invert_automorphism")
    evs = [pingpong_word(spec, syl, powers=1, core_bound=4, candidate_cap=4)
           for syl in ([("f", 1), ("g", 1)], [("f", -1), ("g", -1)],
                       [("g", -1), ("f", -1)])]
    assert all(ev.growth_table == want for ev in evs)
    assert sorted(calls) == ["_growth_table", "invert_automorphism",
                             "invert_automorphism"]


def shipped_spec():
    A = factor_from_strs(3, ["a", "b"])
    psi = Automorphism.from_strs(3, list(FILLING_PSI))
    return build_pingpong(A, psi, m_emp=1, d_emp=1)


@pytest.mark.parametrize("T, X, h", [
    (["b", "c"], ["a", "b"], ["a", "c", "bc"]),
    (["a", "b"], ["b", "c"], ["b", "ab", "c"]),
    (["a", "b"], "psi^-1 A", ["b", "ab", "c"]),
    (["a", "b"], "psi^-1 x0", ["b", "ab", "c"]),
    (["a", "b"], "psi^-1 x0", "f^-1"),
    (["a", "b"], "psi x0", ["b", "ab", "c"]),
    (["a", "b"], "psi x0", "f^-1"),
], ids=["pair-B-A-g", "pair-A-B-f", "psi-A-psiinvA-f", "chain-psiinvx0-f",
        "chain-psiinvx0-finv", "chain-psix0-f", "chain-psix0-finv"])
def test_projection_is_equivariant_on_graphs(T, X, h):
    # pi_T(h^k . G) = r^k . pi_T(G) member for member, r the restriction of
    # h to T, for the samples G of the pinned pair, of the shipped spec's
    # psi^-1 A, and of the chain windows' sources psi^-+1 x0 (x0 the first
    # member of X_A) under the shifts f^+-k; _growth_table and
    # chain_progress_verify rest on this
    T = factor_from_strs(3, T)
    f = Automorphism.from_strs(3, ["b", "ab", "c"])
    h = invert_automorphism(f) if h == "f^-1" else Automorphism.from_strs(3, h)
    psi = Automorphism.from_strs(3, list(FILLING_PSI))
    if X == "psi^-1 A":
        X = apply_to_factor(invert_automorphism(psi), T)
    elif X in ("psi^-1 x0", "psi x0"):
        x0 = irreducible._xset_grow(T, 5, 6).vertices()[0]
        X = apply_to_factor(psi if X == "psi x0" else invert_automorphism(psi),
                            x0)
    else:
        X = factor_from_strs(3, X)
    r, _ = restriction(h, T)
    for G in sample_graphs_with_embedded(X, samples=6, seed=0):
        P = project_graph(T, G)
        assert P
        for k in range(1, 6):
            assert project_graph(T, transformed(G, h ** k)) == {
                apply_to_factor(r ** k, F) for F in P}


def test_chain_check_projects_only_the_sources(monkeypatch):
    # on the shipped spec both windows' gaps exceed 2 m_emp for five
    # sampling seeds, and each window projects one member: the first of
    # its ends' common source psi^-+1 X_A, never a stretched end member;
    # the conjugators moved in two stages still split their members off
    from subfactor import complex_cn
    from subfactor.projection import split_by

    spec = shipped_spec()
    rows = window_xsets(spec, s=5, cap=6)
    assert all(split_by(xs.factor, v, c) is not None
               for row in rows for xs in row for v, c in xs.members)
    projected = []
    real = complex_cn.project_factor
    monkeypatch.setattr(complex_cn, "project_factor", lambda T, X, **kw: (
        projected.append((T, X)) or real(T, X, **kw)))
    for seed in (11, 22, 33, 44, 55):
        for window, row in zip(chain_windows(spec), rows):
            del projected[:]
            rep = complex_cn.chain_progress_verify(
                window, s=5, m_emp=1, cap=6, samples=6, seed=seed, xsets=row)
            gaps = [d[2] for d in rep.details if d[0] == "projection-gap"]
            assert rep.ok and gaps and all(g > 2 for g in gaps)
            assert row[0].source is row[2].source
            source = row[0].source.vertices()[0]
            assert projected == [(spec.A, source)]
            assert source.complexity() < row[0].vertices()[0].complexity()


def test_second_word_follows_no_orbit_step_again(monkeypatch):
    # both words start with f^N: the second takes the candidates and every
    # f^N image from the spec, so no (step, core) pair is followed twice,
    # and its evidence is the one a fresh spec gives
    spec = shipped_spec()
    followed = []
    real = irreducible._apply_capped

    def counted(step, F, cap):
        followed.append((tuple(map(id, step[0])), F.core))
        return real(step, F, cap)

    monkeypatch.setattr(irreducible, "_apply_capped", counted)
    pingpong_word(spec, [("f", 1), ("g", 1)], powers=6, core_bound=8)
    first = len(followed)
    second = pingpong_word(spec, [("f", 1), ("g", -1)], powers=6,
                           core_bound=8)
    f_chain = tuple(map(id, (spec.power("f", spec.N),)))
    assert first >= 72 and len(followed) > first
    assert not [key for key in followed[first:] if key[0] == f_chain]
    assert len(set(followed)) == len(followed)
    fresh = pingpong_word(shipped_spec(), [("f", 1), ("g", -1)], powers=6,
                          core_bound=8)
    for name in ("syllables", "invariant_factor", "growth_table", "capped",
                 "candidates"):
        assert getattr(second, name) == getattr(fresh, name)


def test_growth_table_projects_only_untranslated_factors(monkeypatch):
    # the shipped spec's table comes from two projections of A, B or
    # psi^-1 A; no image under f^N or g^N is projected
    A = factor_from_strs(3, ["a", "b"])
    psi = Automorphism.from_strs(3, list(FILLING_PSI))
    spec = build_pingpong(A, psi, m_emp=1, d_emp=1)
    untranslated = [A, spec.B, apply_to_factor(spec.psi_inv, A)]
    projected = []
    real = irreducible.project_factor
    monkeypatch.setattr(irreducible, "project_factor", lambda T, X, **kw: (
        projected.append((T, X)) or real(T, X, **kw)))
    assert spec.growth_table() == [("d_B(A, g^N A)", 5, 5),
                                   ("d_A(B, f^N B)", 5, 5)]
    assert len(projected) == 2
    for T, X in projected:
        assert T == A or T == spec.B
        assert any(X == F for F in untranslated)


def test_pingpong_word_with_psi_builds_no_power_of_g(monkeypatch):
    # g^e runs as psi^-1, f^e, psi: neither g ** N nor g^-1 is built
    A = factor_from_strs(3, ["a", "b"])
    psi = Automorphism.from_strs(3, ["c", "b", "a"])
    spec = build_pingpong(A, psi, m_emp=1, d_emp=1, fill_bound=3)

    class Unpowered(Automorphism):
        def __pow__(self, n):
            raise AssertionError("g ** n was built")

    spec.g = Unpowered(spec.g.rank, spec.g.images)
    inverted = []
    real = irreducible.invert_automorphism
    monkeypatch.setattr(irreducible, "invert_automorphism",
                        lambda phi: inverted.append(phi) or real(phi))
    for syl in ([("f", 1), ("g", 1)], [("f", 1), ("g", -1)],
                [("g", -1), ("f", -1)]):
        pingpong_word(spec, syl, powers=1, core_bound=4, candidate_cap=4)
    assert inverted == [spec.f]


def test_pingpong_word_requires_alternation():
    f = Automorphism.from_strs(3, ["b", "ab", "c"])
    g = Automorphism.from_strs(3, ["a", "c", "bc"])
    spec = PingPongSpec(f=f, g=g, A=factor_from_strs(3, ["a", "b"]),
                        B=factor_from_strs(3, ["b", "c"]), N=2)
    with pytest.raises(ValueError):
        pingpong_word(spec, [("f", 1)])
    with pytest.raises(ValueError):
        pingpong_word(spec, [("f", 1), ("f", 1)])


def test_build_pingpong_with_tame_psi():
    A = factor_from_strs(3, ["a", "b"])
    psi = Automorphism.from_strs(3, ["c", "b", "a"])
    spec = build_pingpong(A, psi, m_emp=1, d_emp=1, fill_bound=3)
    assert spec.B == factor_from_strs(3, ["b", "c"])
    # this pair does not fill; the report records the witnesses honestly
    assert spec.fill.witnesses
    assert spec.N == 8
    wins = chain_windows(spec)
    assert len(wins) == 2 and all(len(w) == 3 for w in wins)


def test_translate_xset_preserves_certificates():
    A = factor_from_strs(3, ["a", "b"])
    xs = x_set(A, s=4, cap=5)
    assert xs.members
    h = Automorphism.from_strs(3, ["ab", "b", "ca"])
    xs2 = translate_xset(xs, h)
    assert xs2.factor == apply_to_factor(h, A)
    assert len(xs2.members) == len(xs.members)
    # the transported conjugators must still certify the hub edges
    assert xs2.diameter_upper() is not None


def test_window_xsets_align_with_windows():
    A = factor_from_strs(3, ["a", "b"])
    psi = Automorphism.from_strs(3, ["c", "b", "a"])
    spec = build_pingpong(A, psi, m_emp=1, d_emp=1, fill_bound=3)
    rows = window_xsets(spec, s=4, cap=3)
    for win, row in zip(chain_windows(spec), rows):
        for F, x in zip(win, row):
            assert x.factor == F
            assert x.members


def test_validate_catches_mismatch():
    f = Automorphism.from_strs(3, ["b", "c", "a"])
    spec = PingPongSpec(f=f, g=f, A=factor_from_strs(3, ["a", "b"]),
                        B=factor_from_strs(3, ["b", "c"]), N=2)
    with pytest.raises(ValueError):
        spec.validate()


def full_capped(auto, F, cap):
    """Reference for _apply_capped: every image first, then the length and
    core-size checks; also says which check stopped the orbit."""
    gens = [auto(w) for w in F.gens()]
    if sum(len(w) for w in gens) > 40 * cap:
        return None, "length"
    out = factor_class(gens)
    if out.complexity() > cap:
        return None, "core"
    return out, None


def test_apply_capped_matches_full_images():
    # the shipped spec (N = 8): on each word, each of the 72 candidate
    # orbits gets the same class or cap at every step as the full image
    # under the composed power g ** N (or the exact inverse's power), which
    # the steps never build; the words stop at the length and core-size
    # checks 70/2, 71/1 and 44/28 times
    A = factor_from_strs(3, ["a", "b"])
    psi = Automorphism.from_strs(3, list(FILLING_PSI))
    spec = build_pingpong(A, psi, m_emp=1, d_emp=1)
    inverse = {sym: invert_automorphism(getattr(spec, sym)) for sym in "fg"}
    candidates = irreducible._candidate_factors(3, 8, 80)
    assert len(candidates) == 72
    for word, length_stops in (([("f", 1), ("g", 1)], 70),
                               ([("f", 1), ("g", -1)], 71),
                               ([("g", -1), ("f", -1)], 44)):
        syl = syllable_reduce([(sym, e * spec.N) for sym, e in word])
        steps = irreducible._syllable_steps(spec, syl)
        full = [(getattr(spec, sym) if e > 0 else inverse[sym]) ** abs(e)
                for sym, e in syl]
        stops = []
        for C in candidates:
            cur = C
            for _ in range(6):
                for step, auto in zip(steps, full):
                    got = irreducible._apply_capped(step, cur, 400)
                    want, why = full_capped(auto, cur, 400)
                    assert got == want
                    if got is None:
                        break
                    cur = got
                if got is None:
                    stops.append(why)
                    break
                assert cur != C
        assert stops.count("length") == length_stops
        assert stops.count("core") == 72 - length_stops


def test_apply_capped_is_exact_when_a_prefix_image_overshoots():
    # psi^-2 then psi^2 is the identity, yet prefixes of psi^2(psi^-2(a))
    # pass 100 letters: the 40-letter cap at cap = 1 still keeps <a>, and
    # only because the stop length allows for the cancellation bound
    psi = Automorphism.from_strs(3, list(FILLING_PSI))
    inv = invert_automorphism(psi)
    chain = (inv * inv, psi * psi)
    A = factor_from_strs(3, ["a"])
    bound = chain[-1].cancellation_bound(chain[0])
    assert irreducible._apply_capped((chain, bound), A, 1) == A
    assert irreducible._apply_capped((chain, 0), A, 1) is None
