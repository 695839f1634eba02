import sys
from pathlib import Path

import pytest

from subfactor.marked import (
    MarkedGraph,
    MarkingError,
    PathTranslator,
    adapted_rose,
    cover_core,
    one_edge_collapse_factors,
    rose,
    transformed,
)
from subfactor.stallings import factor_from_strs
from subfactor.words import Automorphism, Word, word_from_str, word_to_str

sys.path.insert(0, str(Path(__file__).resolve().parent))
from oracles import contains_element  # noqa: E402


def w(text, rank=2):
    return word_from_str(rank, text)


def theta_graph():
    # two vertices, three parallel edges; rank 2
    return MarkedGraph(
        2,
        ((1, 0, 1), (2, 0, 1), (3, 0, 1)),
        {1: w("a"), 2: Word.identity(2), 3: w("b")},
    )


def test_rose_and_validation():
    R = rose(3)
    R.validate()
    assert [word_to_str(x) for x in R.loop_basis()] == ["a", "b", "c"]
    theta_graph().validate()
    with pytest.raises(MarkingError):
        MarkedGraph(2, ((1, 0, 0), (2, 0, 0)), {1: w("a"), 2: w("a")}).validate()


def test_translator_roundtrip():
    t = PathTranslator(theta_graph())
    for s in ["a", "b", "ab", "aBA", "bbA", "abab"]:
        p = t.word_to_path(w(s))
        assert theta_graph().path_word(p) == w(s)
        assert p == [x for x in p]  # already tight


def test_translator_on_transformed_rose():
    phi = Automorphism.from_strs(2, ["ab", "b"])
    G = transformed(rose(2), phi)
    t = PathTranslator(G)
    # petal 1 reads ab, so the path for "ab" is just that petal
    assert t.word_to_path(w("ab")) == [(1, 1)]


def test_adapted_rose():
    A = factor_from_strs(2, ["ab"])
    AR = adapted_rose(A)
    AR.validate()
    # A spans the first petal
    from subfactor.stallings import factor_class

    assert factor_class([AR.marking[1]]) == A
    with pytest.raises(MarkingError):
        adapted_rose(factor_from_strs(2, ["aa"]))


def test_cover_core_of_rose():
    R = rose(2)
    imm = cover_core(factor_from_strs(2, ["a"]), R)
    assert imm.is_embedding()
    assert imm.multiplicities() == {1: 1, 2: 0}

    imm = cover_core(factor_from_strs(2, ["ab"]), R)
    assert imm.is_embedding()
    assert imm.multiplicities() == {1: 1, 2: 1}
    assert len(imm.core().vertex_set()) == 2

    imm = cover_core(factor_from_strs(2, ["aa", "b"]), R)
    assert not imm.is_embedding()
    assert imm.multiplicities() == {1: 2, 2: 1}
    assert imm.vertex_image() == {v: 0 for v in imm.domain.vertex_set()}


def test_cover_core_reads_back_into_subgroup():
    # every loop of the cover core reads an element of (a conjugate of) A
    from subfactor.stallings import subgroup_graph

    G = theta_graph()
    A = factor_from_strs(2, ["ab", "ba"])
    imm = cover_core(A, G)
    g = subgroup_graph(A.gens())
    core = imm.core()
    # basis loops of the domain, read into the ambient group
    from subfactor.stallings import spanning_tree, tree_path

    up = spanning_tree(imm.domain.basepoint, imm.domain.edges)
    for u, v, label in core.edges:
        loop = (tree_path(up, u) + [(label, 1)]
                + [(l, -s) for l, s in reversed(tree_path(up, v))])
        word = imm.ambient_word(loop)
        if word:
            assert contains_element(g, word)


def test_one_edge_collapse_factors():
    R3 = rose(3)
    A = factor_from_strs(3, ["a", "b"])
    got = one_edge_collapse_factors(cover_core(A, R3))
    names = sorted(tuple(word_to_str(x) for x in f.gens()) for f in got)
    assert names == [("a",), ("b",)]


def test_json_roundtrip():
    # the report format carries enough to rebuild the graph
    for G in (theta_graph(), rose(2)):
        d = G.to_json()
        back = MarkedGraph(
            d["rank"],
            tuple((e["id"], e["from"], e["to"]) for e in d["edges"]),
            {int(k): word_from_str(d["rank"], v)
             for k, v in d["marking"].items()})
        assert back.edges == G.edges
        assert back.marking == G.marking
        assert d["vertices"] == sorted(G.vertex_set())
        assert d["tree"] == sorted(
            link[1] for link in G.tree().values() if link)
