import random
import sys
from collections import deque
from math import gcd
from pathlib import Path

from subfactor.marked import rose, transformed
from subfactor.projection import (
    behrstock_check,
    classify_pair,
    colors_meet,
    factor_distance,
    farey_distance,
    farey_distance_classes,
    find_disjoint_conjugator,
    joint_embedding,
    mod2_color,
    near_embedding,
    omega_data,
    primitive_vector,
    project_factor,
    project_graph,
)
from subfactor.stallings import (
    apply_to_factor,
    factor_from_strs,
    random_automorphism,
)
from subfactor.words import word_from_str

sys.path.insert(0, str(Path(__file__).resolve().parent))
from oracles import farey_adjacent  # noqa: E402


def w(text, rank=2):
    return word_from_str(rank, text)


def bfs_farey(v, u, radius=12):
    """Independent oracle: breadth-first search on the Farey graph, edges
    by the determinant condition over a bounded grid."""
    cap = 40

    def neighbors(x):
        p, q = x
        out = []
        for r in range(-cap, cap + 1):
            for s in range(-cap, cap + 1):
                if p * s - q * r in (1, -1):
                    rr, ss = (r, s) if (r, s) > (0, 0) or (r > 0) else (-r, -s)
                    if rr < 0 or (rr == 0 and ss < 0):
                        rr, ss = -rr, -ss
                    out.append((rr, ss))
        return out

    start, goal = tuple(v), tuple(u)
    if start == goal:
        return 0
    q = deque([(start, 0)])
    seen = {start}
    while q:
        cur, d = q.popleft()
        if d >= radius:
            continue
        for nxt in neighbors(cur):
            if nxt == goal:
                return d + 1
            if nxt not in seen:
                seen.add(nxt)
                q.append((nxt, d + 1))
    return None


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
    assert mod2_color(factor_from_strs(2, ["ab", "b"])) == mod2_color(
        factor_from_strs(2, ["a", "b"]))


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
    # an overlapping pair has none at any budget (rank obstruction caught
    # by the caller; here colors obstruct)
    assert find_disjoint_conjugator(
        factor_from_strs(3, ["a"]), factor_from_strs(3, ["bab"]),
        max_conj_len=2) is None


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


def test_project_graph_rose():
    A = factor_from_strs(3, ["a", "b"])
    got = project_graph(A, rose(3))
    assert got
    for F in got:
        assert F.rank_ambient == A.rank


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
        f1, _ = random_automorphism(3, rng, length=2)
        f2, _ = random_automorphism(3, rng, length=2)
        A = apply_to_factor(f1, base)
        B = apply_to_factor(f2, base)
        if A == B:
            continue
        g, _ = random_automorphism(3, rng, length=2)
        G = transformed(rose(3), g)
        try:
            _, _, min_upper = behrstock_check(A, B, G, samples=5, seed=done)
        except ValueError:
            continue
        if min_upper is None:
            continue
        assert min_upper <= 10
        done += 1
