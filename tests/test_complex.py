import sys
from pathlib import Path

import pytest

from subfactor.complex_cn import (
    ChainReport,
    chain_progress_verify,
    cn_distance_bounds,
    cvertex,
    enumerate_cvertices,
    is_cn_edge,
    is_primitive,
    x_set,
)
from subfactor.projection import primitive_vector
from subfactor.stallings import factor_from_strs
from subfactor.words import word_from_str

sys.path.insert(0, str(Path(__file__).resolve().parent))
from oracles import farey_adjacent  # noqa: E402


def w(text, rank=2):
    return word_from_str(rank, text)


def test_is_primitive():
    assert is_primitive(w("a"))
    assert is_primitive(w("ab"))
    assert is_primitive(w("aab"))
    assert not is_primitive(w("aa"))
    # abelianization (2, 2): gcd filter rejects
    assert not is_primitive(w("abab"))
    with pytest.raises(ValueError):
        is_primitive(w("aBA"))


def test_cvertex_and_edges():
    u = cvertex(w("a", 3))
    v = cvertex(w("b", 3))
    e = is_cn_edge(u, v)
    assert e and e.certified
    # <a> and <bab> span F_2 but not a rank-2 free factor of it; in rank 2
    # ambient the mod-2 colors obstruct
    q = cvertex(w("bab"))
    p = cvertex(w("a"))
    e = is_cn_edge(p, q)
    assert not e and e.certified


def test_edges_match_farey_in_rank_two():
    verts = [cvertex(x) for x in (w("a"), w("b"), w("ab"), w("aB"))]
    for i in range(len(verts)):
        for j in range(i + 1, len(verts)):
            got = is_cn_edge(verts[i], verts[j])
            assert bool(got) == farey_adjacent(
                primitive_vector(verts[i]), primitive_vector(verts[j]))


def test_enumerate_cvertices():
    got = enumerate_cvertices(2, 2)
    words = {str(x) for _, x in got}
    # every length <= 2 primitive class appears once
    assert {"a", "b"} <= {t[:1] for t in words} or len(got) >= 4
    codes = [F.code for F, _ in got]
    assert len(codes) == len(set(codes))


def test_x_set_of_rank2_in_f3():
    A = factor_from_strs(3, ["a", "b"])
    xs = x_set(A, s=4, cap=8)
    assert xs.members
    # every member is disjoint from A: its cyclic word crosses c exactly
    # once after conjugation, certified by the stored conjugator
    for v, c in xs.members:
        assert v.rank == 1
    assert xs.diameter_upper() == 2


def test_x_set_requires_room():
    # a rank-2 factor of F_2 admits no disjoint vertex
    with pytest.raises(ValueError):
        x_set(factor_from_strs(2, ["a"]))
    xs = x_set(factor_from_strs(2, ["a", "b"]), s=3, cap=4)
    assert xs.members == []


def test_cn_distance_bounds():
    u = cvertex(w("a", 3))
    v = cvertex(w("b", 3))
    lo, hi, path = cn_distance_bounds(u, v)
    assert (lo, hi) == (1, 1) and path == [u, v]
    # non-adjacent pair in rank 2: <a> and <bab> need an intermediate
    p = cvertex(w("a"))
    q = cvertex(w("bab"))
    lo, hi, path = cn_distance_bounds(p, q, s=4)
    assert lo == 2 and hi == 2
    assert path[0] == p and path[-1] == q and len(path) == 3


def test_chain_progress_negative_on_shared_vertex():
    # consecutive factors sharing a disjoint vertex must fail hypothesis 1
    A = factor_from_strs(3, ["a", "b"])
    rep = chain_progress_verify([A, A], s=4, cap=6)
    assert not rep.ok


def test_chain_report_token():
    rep = ChainReport(True, 3, [], [])
    assert rep.ok and rep.links == 3
