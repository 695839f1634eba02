"""Marked core graphs, covers A|G with their immersions, and the free
factors of one-edge collapses of a cover.

A marking here is generalized: every edge carries a word, and the image of a
loop is the product of its edge words.  The spanning-tree form of the spec's
JSON (identity on tree edges) is one gauge of this.
"""

from __future__ import annotations

from functools import cached_property

from .stallings import (
    Expression,
    GraphBuilder,
    components,
    factor_class,
    invert_automorphism,
    is_basis,
    is_free_factor,
    spanning_tree,
)
from .words import Automorphism, Word, _inverse_letters, _join, _word, word_to_str


class MarkingError(ValueError):
    pass


class MarkedGraph:
    def __init__(self, rank, edges, marking):
        self.rank = rank
        self.edges = tuple(sorted(edges))  # (eid, u, v)
        self.marking = marking  # eid -> Word
        for eid, _, _ in self.edges:
            if eid not in self.marking:
                raise MarkingError(f"edge {eid} has no marking word")

    # -- basic structure ------------------------------------------------

    def vertex_set(self):
        return {u for _, u, _ in self.edges} | {v for _, _, v in self.edges}

    def base_vertex(self):
        return min(self.vertex_set())

    def eids(self):
        return tuple(e for e, _, _ in self.edges)

    def edge_by_id(self):
        return {e: (u, v) for e, u, v in self.edges}

    def arcs(self):
        """The edges as (u, v, eid) triples, the form the graph walks take."""
        return [(u, v, e) for e, u, v in self.edges]

    def graph_rank(self):
        return len(self.edges) - len(self.vertex_set()) + 1

    def is_connected(self):
        vs = self.vertex_set()
        return bool(vs) and len(
            spanning_tree(min(vs), self.arcs())[0]) == len(vs)

    # -- spanning tree and loop basis ----------------------------------

    def path_word(self, path):
        """The product of the edge words along an (eid, sign) path."""
        m = self.marking
        return _word(self.rank, _join(
            m[e].letters if s > 0 else _inverse_letters(m[e].letters)
            for e, s in path))

    def tree_data(self):
        """spanning_tree from the base vertex.

        Returns (tree_eids, path_words, path_edges) where path_edges[x] is
        the (eid, sign) path from the base to x.
        """
        path_edges, tree = spanning_tree(self.base_vertex(), self.arcs())
        if len(path_edges) != len(self.vertex_set()):
            raise MarkingError("graph is not connected")
        path_words = {x: self.path_word(p) for x, p in path_edges.items()}
        return {e for _, _, e in tree}, path_words, path_edges

    def loop_basis(self):
        """One word per non-tree edge; together they generate the marking
        image of the fundamental group."""
        tree, path_words, _ = self.tree_data()
        ebi = self.edge_by_id()
        words = []
        for eid in self.eids():
            if eid in tree:
                continue
            u, v = ebi[eid]
            words.append(path_words[u] * self.marking[eid] * ~path_words[v])
        return words

    def validate(self):
        """Check connectivity, rank, and that the marking is an isomorphism."""
        if not self.is_connected():
            raise MarkingError("not connected")
        if self.graph_rank() != self.rank:
            raise MarkingError("graph rank differs from marking rank")
        if not is_basis(self.loop_basis()):
            raise MarkingError("marking is not an isomorphism to the free group")
        return True

    @cached_property
    def translator(self):
        """The PathTranslator of this graph, built once."""
        return PathTranslator(self)

    def to_json(self):
        tree, _, _ = self.tree_data()
        return {
            "rank": self.rank,
            "vertices": sorted(self.vertex_set()),
            "edges": [{"id": e, "from": u, "to": v} for e, u, v in self.edges],
            "marking": {str(e): word_to_str(self.marking[e]) for e in self.eids()},
            "tree": sorted(tree),
        }


def rose(n):
    """The n-petal rose with the identity marking."""
    edges = tuple((i, 0, 0) for i in range(1, n + 1))
    marking = {i: Word(n, (i,)) for i in range(1, n + 1)}
    return MarkedGraph(n, edges, marking)


def adapted_rose(A):
    """A marked rose in which A sits as the sub-rose on the first rank(A)
    petals."""
    res = is_free_factor(A)
    if not res.is_factor:
        raise MarkingError(f"not a free factor: {res.reason}")
    n = A.rank_ambient
    edges = tuple((i, 0, 0) for i in range(1, n + 1))
    marking = {i: res.witness_inverse.images[i - 1] for i in range(1, n + 1)}
    return MarkedGraph(n, edges, marking)


def transformed(G, phi):
    """Push the marking of G forward by an automorphism (the Out(F_n) action
    on marked graphs)."""
    return MarkedGraph(G.rank, G.edges,
                       {e: phi(w) for e, w in G.marking.items()})


# ---------------------------------------------------------------------------
# translating words to edge paths


def _reversed_path(path):
    """The inverse of an edge path: its steps backwards, signs flipped."""
    return [(key, -sign) for key, sign in reversed(path)]


def tighten(path):
    """Cancel backtracking (e,s)(e,-s) pairs in an edge path."""
    out = []
    for step in path:
        if out and out[-1][0] == step[0] and out[-1][1] == -step[1]:
            out.pop()
        else:
            out.append(step)
    return out


class PathTranslator:
    """Converts ambient words to reduced edge-path loops at the base vertex
    of a marked graph."""

    def __init__(self, G):
        tree, path_words, path_edges = G.tree_data()
        ebi = G.edge_by_id()
        nontree = [e for e in G.eids() if e not in tree]
        loops = []
        words = []
        for eid in nontree:
            u, v = ebi[eid]
            loops.append(tighten(path_edges[u] + [(eid, 1)]
                                 + _reversed_path(path_edges[v])))
            words.append(path_words[u] * G.marking[eid] * ~path_words[v])
        if len(words) != G.rank:
            raise MarkingError("marked graph must have graph rank n")
        mu = Automorphism(G.rank, tuple(words))
        mu_inv = invert_automorphism(mu)
        self.gen_paths = []
        for j in range(G.rank):
            q = mu_inv.images[j]
            path = []
            for x in q.letters:
                l = loops[abs(x) - 1]
                path.extend(l if x > 0 else _reversed_path(l))
            self.gen_paths.append(tighten(path))

    def word_to_path(self, w):
        """The reduced edge-path loop at the base representing w."""
        path = []
        for x in w.letters:
            g = self.gen_paths[abs(x) - 1]
            path.extend(g if x > 0 else _reversed_path(g))
        return tighten(path)


# ---------------------------------------------------------------------------
# covers


class Immersion:
    """The core of the A-cover of G with its immersion p: A|G -> G.

    The domain is a folded graph over the edge alphabet of G: label k stands
    for the k-th edge of G in eid order.
    """

    def __init__(self, factor, target, domain, eids):
        self.factor = factor  # FactorClass
        self.target = target  # MarkedGraph
        self.domain = domain  # based StallingsGraph
        self.eids = eids

    def eid_of_label(self, k):
        return self.eids[k - 1]

    def multiplicities(self):
        # counted over the core: the basepoint tail is not part of the
        # immersed class representative
        mult = {e: 0 for e in self.eids}
        for _, _, label in self.core().edges:
            mult[self.eids[label - 1]] += 1
        return mult

    def core(self):
        return self.domain.without_basepoint()

    def is_embedding(self):
        return all(m <= 1 for m in self.multiplicities().values())

    def image_eids(self):
        return {e for e, m in self.multiplicities().items() if m >= 1}

    def vertex_image(self):
        """Map from domain vertices to target vertices."""
        ebi = self.target.edge_by_id()
        img = {}
        for u, v, label in self.domain.edges:
            tu, tv = ebi[self.eids[label - 1]]
            for dv, gv in ((u, tu), (v, tv)):
                if dv in img and img[dv] != gv:
                    raise MarkingError("inconsistent cover (not an immersion)")
                img[dv] = gv
        return img

    def ambient_word(self, path):
        """Read a domain edge path ((label, sign) pairs) as an ambient word."""
        return self.target.path_word(
            (self.eids[label - 1], sign) for label, sign in path)


def cover_core(A, G):
    """Core of the cover of G corresponding to the conjugacy class of A."""
    if A.rank_ambient != G.rank:
        raise ValueError("ambient rank mismatch")
    t = G.translator
    eids = G.eids()
    K = len(eids)
    index = {e: i + 1 for i, e in enumerate(eids)}
    b = GraphBuilder(rank=K)
    base = b.new_vertex()
    b.basepoint = base
    for w in A.gens():
        path = t.word_to_path(w)
        letters = tuple(index[e] * s for e, s in path)
        b.add_loop_word(base, Word(K, letters))
    b.fold()
    b.trim(keep_basepoint=True)
    return Immersion(factor=A, target=G, domain=b.to_graph(), eids=eids)


def _domain_paths(domain):
    """BFS (label, sign) paths from the basepoint to every domain vertex."""
    return spanning_tree(domain.basepoint, domain.edges)[0]


def one_edge_collapse_factors(imm):
    """Free factors of A arising as vertex groups of one-edge collapses of
    the A-cover: for each core edge, the fundamental groups of the
    complementary components, rewritten in A's basis."""
    A = imm.factor
    if A.rank < 2:
        raise ValueError("collapse factors need rank(A) >= 2")
    core = imm.core()
    expr = Expression(A.gens())
    base_paths = _domain_paths(imm.domain)
    out = set()
    for cut in core.edges:
        rest = [e for e in core.edges if e != cut]
        for tree_path, tree in components(core.vertex_set(), rest):
            conj = base_paths[min(tree_path)]
            gens = []
            for u, v, label in rest:
                if u not in tree_path or (u, v, label) in tree:
                    continue
                loop = (conj + tree_path[u] + [(label, 1)]
                        + _reversed_path(conj + tree_path[v]))
                word = imm.ambient_word(loop)
                local = expr.express(word)
                if local is None:
                    raise RuntimeError("collapse generator fell outside A")
                gens.append(local)
            gens = [g for g in gens if g]
            if gens:
                out.add(factor_class(gens))
    return out
