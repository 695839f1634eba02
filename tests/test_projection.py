import random
import sys
from collections import deque
from math import gcd
from pathlib import Path

import pytest

from subfactor import cli, marked, projection
from subfactor.marked import rose, transformed
from subfactor.projection import (
    _dist_to_infinity,
    behrstock_check,
    classify_pair,
    colors_meet,
    factor_distance,
    factor_complex_distance,
    farey_distance,
    farey_distance_classes,
    find_disjoint_conjugator,
    joint_embedding,
    near_embedding,
    omega_data,
    primitive_vector,
    project_factor,
    project_graph,
    split_by,
    splitting_witness,
)
from subfactor.stallings import (
    apply_to_factor,
    factor_from_strs,
    mod2_span,
    random_automorphism,
)
from subfactor.words import word_from_str

sys.path.insert(0, str(Path(__file__).resolve().parent))
from oracles import (  # noqa: E402
    dist_to_infinity,
    farey_adjacent,
    farey_neighbors_by_scan,
    pool_distance,
    splits_both_ways,
)


def w(text, rank=2):
    return word_from_str(rank, text)


def bfs_farey(v, u, radius=12):
    """Independent oracle: breadth-first search on the Farey graph, edges
    by the determinant condition over a bounded grid, solved for s at each
    r by cli._farey_neighbors (checked against the grid scan below)."""
    start, goal = tuple(v), tuple(u)
    if start == goal:
        return 0
    q = deque([(start, 0)])
    seen = {start}
    while q:
        cur, d = q.popleft()
        if d >= radius:
            continue
        for nxt in cli._farey_neighbors(cur, 40):
            if nxt == goal:
                return d + 1
            if nxt not in seen:
                seen.add(nxt)
                q.append((nxt, d + 1))
    return None


def test_farey_neighbors_match_the_grid_scan():
    # the solved neighbor lists equal the scan of every (r, s) in the grid,
    # order included, at the caps of bfs_farey and of verify's farey-oracle
    rng = random.Random(41)
    slopes = [(1, 0), (0, 1), (1, 1), (1, -1)]
    while len(slopes) < 320:
        cap = rng.choice([3, 40, 60])
        p, q = rng.randint(0, cap), rng.randint(-cap, cap)
        if (p, q) != (0, 0) and gcd(p, q) == 1 and (p or q > 0):
            slopes.append((p, q))
    for v in slopes:
        for cap in (3, 40, 60):
            assert (cli._farey_neighbors(v, cap)
                    == farey_neighbors_by_scan(v, cap)), (v, cap)


def test_farey_adjacency_and_small_values():
    assert farey_adjacent((1, 0), (0, 1))
    assert farey_adjacent((1, 0), (1, 1))
    assert not farey_adjacent((1, 0), (1, 2))
    assert farey_distance((1, 0), (1, 0)) == 0
    assert farey_distance((1, 0), (0, 1)) == 1
    assert farey_distance((1, 0), (1, 2)) == 2
    # sign conventions: -1/1 is adjacent to infinity
    assert farey_distance((1, 0), (1, -1)) == 1


def test_farey_against_bfs_oracle():
    rng = random.Random(23)
    for _ in range(40):
        while True:
            p, q = rng.randint(-9, 9), rng.randint(-9, 9)
            if (p, q) != (0, 0) and gcd(p, q) == 1:
                break
        while True:
            r, s = rng.randint(-9, 9), rng.randint(-9, 9)
            if (r, s) != (0, 0) and gcd(r, s) == 1:
                break
        v = (p, q) if p > 0 or (p == 0 and q > 0) else (-p, -q)
        u = (r, s) if r > 0 or (r == 0 and s > 0) else (-r, -s)
        expect = bfs_farey(v, u)
        assert expect is not None
        assert farey_distance(v, u) == expect


def test_farey_one_pass_matches_recursion():
    rng = random.Random(31)
    checked = 0
    while checked < 3000:
        r, s = rng.randint(-300, 300), rng.randint(-300, 300)
        if (r, s) != (0, 0) and gcd(r, s) == 1:
            assert _dist_to_infinity(r, s) == dist_to_infinity(r, s), (r, s)
            checked += 1


def test_farey_fibonacci_pair_beyond_the_recursion_limit():
    # (F_2101, F_2100) has 2,100 partial quotients, one recursion level
    # each; the recursive oracle, given a large enough stack, says 1050
    a, b = 0, 1
    for _ in range(2100):
        a, b = b, a + b
    assert farey_distance((1, 0), (b, a)) == 1050
    assert farey_distance((b, a), (1, 0)) == 1050


def test_farey_large_pairs_symmetric_and_invariant():
    rng = random.Random(37)

    def slope():
        while True:
            p, q = (rng.randrange(10 ** (k - 1), 10 ** k)
                    for k in (rng.randint(20, 40), rng.randint(20, 40)))
            if gcd(p, q) == 1:
                return (p * rng.choice((1, -1)), q)

    for _ in range(300):
        v, u = slope(), slope()
        # a random element of SL_2(Z), as a product of elementary matrices
        (a, b), (c, d) = (1, 0), (0, 1)
        for _ in range(6):
            k = rng.randint(-5, 5)
            if rng.random() < 0.5:
                (a, b), (c, d) = (a + k * c, b + k * d), (c, d)
            else:
                (a, b), (c, d) = (a, b), (c + k * a, d + k * b)
        d_vu = farey_distance(v, u)
        assert d_vu >= 1
        assert farey_distance(u, v) == d_vu
        assert farey_distance((a * v[0] + b * v[1], c * v[0] + d * v[1]),
                              (a * u[0] + b * u[1], c * u[0] + d * u[1])) \
            == d_vu


def test_primitive_vector_and_class_distance():
    assert primitive_vector(factor_from_strs(2, ["a"])) == (1, 0)
    assert primitive_vector(factor_from_strs(2, ["ab"])) == (1, 1)
    d = farey_distance_classes(factor_from_strs(2, ["a"]),
                               factor_from_strs(2, ["b"]))
    assert d == 1


def test_mod2_colors():
    a = factor_from_strs(2, ["a"])
    b = factor_from_strs(2, ["b"])
    bab = factor_from_strs(2, ["bab"])
    assert not colors_meet(a, b)
    assert colors_meet(a, bab)  # bab abelianizes to a mod 2
    assert mod2_span(factor_from_strs(2, ["ab", "b"]).gens()) == mod2_span(
        factor_from_strs(2, ["a", "b"]).gens())


def test_omega_and_near_embedding():
    R = rose(2)
    assert not omega_data(factor_from_strs(2, ["a"]), R).omega_eids
    assert near_embedding(factor_from_strs(2, ["ab"]), R)
    # <aa, b>: the two a-edges of the core map to one rose edge and close
    # a circle in the doubled preimage
    data = omega_data(factor_from_strs(2, ["aa", "b"]), R)
    assert not data.is_nearly_embedded()


def test_joint_embedding_and_witness():
    A = factor_from_strs(3, ["a", "b"])
    B = factor_from_strs(3, ["c"])
    got = joint_embedding(A, B, rose(3))
    assert got is not None
    assert got.verify(A, B)


def test_find_disjoint_conjugator():
    A = factor_from_strs(3, ["a", "b"])
    B = factor_from_strs(3, ["c"])
    got = find_disjoint_conjugator(A, B)
    assert got is not None
    # an overlapping pair has none (the obstructions are checked first;
    # here colors obstruct)
    assert find_disjoint_conjugator(
        factor_from_strs(3, ["a"]), factor_from_strs(3, ["bab"])) is None


def _seeded_pairs(n, count, seed):
    rng = random.Random(seed)
    for _ in range(count):
        yield cli._random_sub(rng, n), cli._random_sub(rng, n)


def test_every_found_conjugator_gives_a_verifying_witness():
    # one of these conjugators needs its complement moved into the frame of
    # <A, B^c>; splitting_witness raises RuntimeError if a check fails
    found = 0
    for A, B in _seeded_pairs(3, 300, 1):
        c = find_disjoint_conjugator(A, B)
        if c is not None:
            assert splitting_witness(A, B, c).verify(A, B)
            found += 1
    assert found > 100


def test_one_direction_search_matches_both_directions():
    # the exact decision against the conjugator search in both directions:
    # a pair the search splits, the decision splits too, with a conjugator
    # that split_by accepts; a pair the decision leaves unsplit, the search
    # cannot split either
    for n, budget, seed in ((3, 3, 2), (4, 2, 3)):
        outcomes = set()
        for A, B in _seeded_pairs(n, 100, seed):
            c = find_disjoint_conjugator(A, B)
            if c is None:
                assert not splits_both_ways(A, B, budget)
            else:
                assert split_by(A, B, c) is not None
            outcomes.add(c is not None)
        assert outcomes == {True, False}


# the pairs of _seeded_pairs(3, 600, 1) that a conjugator search to length
# 4 and sampled joint embeddings left undecided
UNDECIDED_BY_SEARCH = (
    (["Aba", "Ac"], ["Acab"]), (["ca"], ["cbb", "BaC"]),
    (["caa"], ["caB", "cbC"]), (["ca"], ["cbb", "Bcbab"]),
    (["Ab"], ["baa", "bc"]), (["ba"], ["BaB"]), (["cAcaC", "b"], ["Bac"]),
    (["Ab"], ["baC", "bc"]), (["baB", "c"], ["Cab"]), (["cBaBc"], ["ba"]),
)


def test_pairs_the_search_left_undecided_are_certified_overlaps(
        monkeypatch):
    for a, b in UNDECIDED_BY_SEARCH:
        res = classify_pair(factor_from_strs(3, a), factor_from_strs(3, b))
        assert (res.kind, res.certified) == ("overlap", True)
        assert "Gersten" in res.detail
    # in F_5 the search tried every conjugator up to its budget; the
    # decision tries none
    calls = []
    monkeypatch.setattr(projection, "split_by",
                        lambda *args: calls.append(args))
    res = classify_pair(factor_from_strs(5, ["ba"]),
                        factor_from_strs(5, ["BaB"]))
    assert res.kind == "overlap" and calls == []


def test_classify_trichotomy_basics():
    n3 = lambda texts: factor_from_strs(3, texts)
    assert classify_pair(n3(["a"]), n3(["a", "b"])).kind == "contained_in"
    assert classify_pair(n3(["a", "b"]), n3(["ab"])).kind == "contains"
    res = classify_pair(n3(["a", "b"]), n3(["c"]))
    assert res.kind == "disjoint" and res.witness.verify(
        n3(["a", "b"]), n3(["c"]))
    assert classify_pair(n3(["a", "b"]), n3(["ab", "c"])).kind == "overlap"
    assert classify_pair(n3(["a"]), n3(["bab"])).kind == "overlap"


def test_classification_json():
    res = classify_pair(factor_from_strs(3, ["a", "b"]),
                        factor_from_strs(3, ["c"]))
    d = res.to_json()
    assert d["verdict"] == "disjoint" and "certificate" in d


def test_project_factor_worked_example():
    A = factor_from_strs(3, ["a", "b"])
    B = factor_from_strs(3, ["ab", "c"])
    px = project_factor(A, B)
    assert px
    lo, hi = factor_distance(A, px, [])
    assert (lo, hi) == (1, 1)


def test_project_factor_empty_cases():
    # containment: projection undefined (empty)
    assert project_factor(factor_from_strs(3, ["a"]),
                          factor_from_strs(3, ["a", "b"])) == set()
    # disjoint pair: B misses A in every splitting where B is visible
    assert project_factor(factor_from_strs(3, ["a", "b"]),
                          factor_from_strs(3, ["c"])) == set()


def test_sampled_graphs_carry_their_inverse_marking(monkeypatch):
    # the adapted rose, its blow-up and every stabilizer sample carry the
    # inverse of their loop words' automorphism, so their translators fold
    # nothing, and give the paths the folded inverse gives
    for B, seed in ((factor_from_strs(3, ["ab", "c"]), 3),
                    (factor_from_strs(3, ["bcB"]), 5),
                    (factor_from_strs(4, ["ad", "bC", "c"]), 7)):
        graphs = projection.sample_graphs_with_embedded(B, samples=8,
                                                        seed=seed)
        assert len(graphs) == 8
        want = [marked.PathTranslator(marked.MarkedGraph(
            G.rank, G.edges, G.marking)).gen_paths for G in graphs]
        with monkeypatch.context() as m:
            m.setattr(marked, "invert_automorphism", None)
            assert [G.translator.gen_paths for G in graphs] == want
    # an inverse that does not invert the marking is refused, and a graph
    # pushed forward without phi^-1 folds as before
    G = marked.adapted_rose(factor_from_strs(3, ["ab", "c"]))
    phi = random_automorphism(3, random.Random(1), length=4)
    wrong = marked.MarkedGraph(3, G.edges, G.marking, G.inverse * phi)
    with pytest.raises(RuntimeError):
        wrong.translator
    assert transformed(G, phi).inverse is None


def test_project_graph_rose():
    A = factor_from_strs(3, ["a", "b"])
    got = project_graph(A, rose(3))
    assert got
    for F in got:
        assert F.rank_ambient == A.rank


def test_pool_search_matches_full_nesting_table():
    # the members of two projections to A = <a,b,c> in F_4 live in the
    # factor complex of F_3, where the upper bound is a pool search
    A = factor_from_strs(4, ["a", "b", "c"])
    uppers = []
    for b in (["ab", "d"], ["b", "acd"]):
        members = sorted(project_factor(A, factor_from_strs(4, b)),
                         key=lambda F: F.code)
        for i, X in enumerate(members):
            for Y in members[i + 1:]:
                lo, hi = factor_complex_distance(X, Y)
                if lo == 1:
                    continue
                pool = projection._factor_pool(3, [X, Y])
                assert len(pool) == projection.POOL_SIZE
                assert hi == pool_distance(pool, X, Y, projection.MAX_DEPTH)
                uppers.append(hi)
    assert set(uppers) == {None, 2, 3, 4}


def test_behrstock_worked_example():
    A = factor_from_strs(3, ["a", "b"])
    B = factor_from_strs(3, ["b", "c"])
    da, db, min_upper = behrstock_check(A, B, rose(3))
    assert min_upper is not None
    assert min_upper <= 10  # theorem-scale bound
    assert min_upper == min(x for x in (da[1], db[1]) if x is not None)


def test_behrstock_random_triples_bounded():
    rng = random.Random(9)
    base = factor_from_strs(3, ["a", "b"])
    done = 0
    while done < 10:
        f1 = random_automorphism(3, rng, length=2)
        f2 = random_automorphism(3, rng, length=2)
        A = apply_to_factor(f1, base)
        B = apply_to_factor(f2, base)
        if A == B:
            continue
        g = random_automorphism(3, rng, length=2)
        G = transformed(rose(3), g)
        try:
            _, _, min_upper = behrstock_check(A, B, G, samples=5, seed=done)
        except ValueError:
            continue
        if min_upper is None:
            continue
        assert min_upper <= 10
        done += 1
