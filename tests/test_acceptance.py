"""End-to-end acceptance checks: exact oracles, property suites at scale,
and the shipped ping-pong construction."""

import itertools
import time
from math import gcd

import numpy as np
from scipy.sparse import csr_matrix
from scipy.sparse.csgraph import dijkstra

from subfactor.cli import (
    FILLING_PSI,
    suite_behrstock,
    suite_bgit,
    suite_diameter,
    suite_equivariance,
    suite_joint_embedding,
    suite_near_embedded,
)
from subfactor.complex_cn import chain_progress_verify, x_set
from subfactor.irreducible import (
    _disjoint_from,
    build_pingpong,
    chain_windows,
    fill_check,
    pingpong_word,
    syllable_reduce,
    window_xsets,
)
from subfactor.projection import behrstock_check, farey_distance
from subfactor.marked import rose
from subfactor.stallings import factor_class, factor_from_strs, is_free_factor
from subfactor.words import Automorphism, Word, cyclic_reduce, free_reduce

# empirical constants re-measured below: D_emp by the diameter suite, M_emp
# as the max over the Behrstock (2) and path-image (3) families
D_EMP = 2
M_EMP = 3


# ---------------------------------------------------------------------------
# 1. Farey distance vs breadth-first search on the tessellation


def _slopes(bound):
    out = []
    for p in range(0, bound + 1):
        for q in range(-bound, bound + 1):
            if (p, q) == (0, 0) or gcd(p, q) != 1:
                continue
            if p == 0 and q < 0:
                continue
            out.append((p, q))
    return out


def _xgcd(a, b):
    old_r, r, old_s, s, old_t, t = a, b, 1, 0, 0, 1
    while r:
        q = old_r // r
        old_r, r = r, old_r - q * r
        old_s, s = s, old_s - q * s
        old_t, t = t, old_t - q * t
    return old_r, old_s, old_t


def _farey_graph(cap):
    """Sparse adjacency of normalized primitive slopes with entries <= cap;
    neighbors of (p, q) lie on the two solution lines of |ps - qr| = 1."""
    verts = _slopes(cap)
    idx = {v: i for i, v in enumerate(verts)}
    rows, cols = [], []
    for i, (p, q) in enumerate(verts):
        _, x, y = _xgcd(p, q)
        r0, s0 = -y, x
        m = max(abs(p), abs(q), 1)
        for t in range(-(2 * cap) // m - 2, (2 * cap) // m + 3):
            for sg in (1, -1):
                r, s = sg * (r0 + t * p), sg * (s0 + t * q)
                if r < 0 or (r == 0 and s < 0):
                    r, s = -r, -s
                j = idx.get((r, s))
                if j is not None and j != i:
                    rows.append(i)
                    cols.append(j)
    data = np.ones(len(rows), dtype=np.int8)
    n = len(verts)
    return verts, idx, csr_matrix((data, (rows, cols)), shape=(n, n))


def test_farey_oracle_all_slopes_to_30():
    small = _slopes(30)
    mats = {}
    for cap in (60, 90):
        verts, idx, M = _farey_graph(cap)
        src = np.array([idx[v] for v in small])
        mats[cap] = dijkstra(M, unweighted=True, indices=src)[:, src]
    # region-stability: enlarging the searched region changes nothing
    assert np.array_equal(mats[60], mats[90])
    oracle = mats[90].astype(int)
    t0 = time.time()
    for i in range(len(small)):
        vi = small[i]
        row = oracle[i]
        for j in range(i + 1, len(small)):
            assert farey_distance(vi, small[j]) == row[j]
    assert time.time() - t0 < 10.0


# ---------------------------------------------------------------------------
# 2. Whitehead soundness on short cyclic words of F_2


def _wh_moves_rank2():
    """All type-II Whitehead automorphisms of F_2 with nontrivial action,
    together with the inversions (type I is harmless for cyclic length)."""
    second = ["ba", "bA", "ab", "Ab", "abA", "Aba"]
    first = ["ab", "aB", "ba", "Ba", "baB", "Bab"]
    texts = [["a", s] for s in second] + [[f, "b"] for f in first]
    return [Automorphism.from_strs(2, imgs) for imgs in texts]


def _cyclic_len(w):
    core, _ = cyclic_reduce(w)
    return len(core)


def _whitehead_primitive(w):
    """Greedy strict Whitehead reduction: a cyclic word is primitive iff it
    reduces to length 1 (strict descent suffices for primitives)."""
    moves = _wh_moves_rank2()
    cur, _ = cyclic_reduce(w)
    while len(cur) > 1:
        best = None
        for phi in moves:
            img, _ = cyclic_reduce(phi(cur))
            if len(img) < len(cur):
                best = img
                break
        if best is None:
            return False
        cur = best
    return len(cur) == 1


def _cyclic_words(rank, max_len):
    alphabet = [x for s in range(1, rank + 1) for x in (s, -s)]
    seen = set()
    for length in range(1, max_len + 1):
        for letters in itertools.product(alphabet, repeat=length):
            if free_reduce(letters) != letters:
                continue
            if length >= 2 and letters[0] == -letters[-1]:
                continue
            norm = _rot_inv_normal(letters)
            if norm in seen:
                continue
            seen.add(norm)
            yield Word(rank, letters)


def _rot_inv_normal(letters):
    inv = tuple(-x for x in reversed(letters))
    best = letters
    for base in (letters, inv):
        for i in range(len(letters)):
            rot = base[i:] + base[:i]
            if rot < best:
                best = rot
    return best


def test_whitehead_soundness_short_words():
    checked = 0
    for w in _cyclic_words(2, 6):
        expect = _whitehead_primitive(w)
        got = is_free_factor(factor_class([w]))
        assert got.certified
        assert bool(got) == expect, str(w)
        checked += 1
    # 117 classes of cyclic words of length <= 6 up to rotation and inversion
    assert checked > 100
    assert not is_free_factor(factor_from_strs(2, ["a", "baB"]))
    assert not is_free_factor(factor_from_strs(2, ["aa", "b"]))


# ---------------------------------------------------------------------------
# 3 and 4. forest conditions at scale


def test_near_embedding_implies_free_factor_200():
    ok, metrics = suite_near_embedded(200, 0)
    assert ok, metrics
    assert metrics["confirmed"] == 200


def test_joint_embedding_certificates_100():
    ok, metrics = suite_joint_embedding(100, 0)
    assert ok, metrics
    assert metrics["certificates"] == 100


# ---------------------------------------------------------------------------
# 5 and 6. bounded projection diameters and the Behrstock bound


def test_projection_diameter_bounded_50():
    ok, metrics = suite_diameter(50, 0)
    assert ok, metrics
    assert metrics["stable"] and metrics["D_emp"] <= 10
    assert metrics["D_emp"] <= D_EMP


def test_behrstock_bound_200():
    ok, metrics = suite_behrstock(200, 0)
    assert ok, metrics
    assert metrics["M_emp"] <= 10
    assert metrics["M_emp"] <= M_EMP
    # worked example
    A = factor_from_strs(3, ["a", "b"])
    B = factor_from_strs(3, ["b", "c"])
    _, _, min_upper = behrstock_check(A, B, rose(3))
    assert min_upper is not None and min_upper <= D_EMP


# ---------------------------------------------------------------------------
# 7. bounded geodesic images


def test_bgit_paths_50():
    ok, metrics = suite_bgit(50, 0, m_emp=M_EMP)
    assert ok, metrics
    assert metrics["max_diameter"] <= M_EMP


# ---------------------------------------------------------------------------
# 8. equivariance


def test_equivariance_100():
    ok, metrics = suite_equivariance(100, 0)
    assert ok, metrics
    assert metrics["distance_checked"] == 100
    assert metrics["checked"] == 50  # verdict invariance half


# ---------------------------------------------------------------------------
# 9. X-set diameter


def test_xset_diameter_at_bound_8():
    A = factor_from_strs(3, ["a", "b"])
    xs = x_set(A, s=8, cap=500)
    assert len(xs.members) >= 100
    assert xs.diameter_upper() <= 2


# ---------------------------------------------------------------------------
# 10. ping-pong evidence


def test_pingpong_evidence():
    A = factor_from_strs(3, ["a", "b"])
    B0 = factor_from_strs(3, ["b", "c"])
    rep = fill_check(A, B0, s=8)
    assert rep  # <a,b>, <b,c> do not fill: <cA> misses both
    cA = Word(3, (3, -1))
    assert all(_disjoint_from(F, cA, None) for F in (A, B0))

    psi = Automorphism.from_strs(3, list(FILLING_PSI))
    spec = build_pingpong(A, psi, m_emp=M_EMP, d_emp=D_EMP)
    # the shipped pair fills: both factors have corank 1, so this is
    # decided exactly and not up to a word length
    assert not spec.fill and spec.fill.bound is None
    assert spec.fill.inconclusive == 0

    ev = pingpong_word(spec, [("f", 1), ("g", 1)], powers=6, core_bound=8)
    assert ev.invariant_factor is None

    xsets = window_xsets(spec, s=5, cap=6)
    for window, xrow in zip(chain_windows(spec), xsets):
        out = chain_progress_verify(window, s=5, m_emp=M_EMP, cap=6,
                                    samples=6, seed=0, xsets=xrow)
        assert out.ok, out.failures

    w = [("f", spec.N), ("g", spec.N)]
    for m in range(1, 5):
        assert len(syllable_reduce(w * m)) == m * len(syllable_reduce(w))
