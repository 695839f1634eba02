"""Marked core graphs, covers A|G with their immersions, one-edge collapse
factors, exact Lipschitz stretch over candidate loops, and discrete fold
sequences with gate tracking.

A marking here is generalized: every edge carries a word, and the image of a
loop is the product of its edge words.  The spanning-tree form of the spec's
JSON (identity on tree edges) is one gauge of this; ``normalize`` produces it.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from .stallings import (
    Expression,
    FactorClass,
    GraphBuilder,
    StallingsGraph,
    factor_class,
    incidence,
    invert_automorphism,
    is_basis,
    is_free_factor,
    spanning_tree,
)
from .words import (
    Automorphism,
    Word,
    _inverse_letters,
    _join,
    _word,
    word_from_str,
    word_to_str,
)


class MarkingError(ValueError):
    pass


@dataclass(eq=False)
class MarkedGraph:
    rank: int
    edges: tuple  # sorted (eid, u, v)
    marking: dict  # eid -> Word
    lengths: dict = None  # eid -> Fraction, or None

    def __post_init__(self):
        self.edges = tuple(sorted(self.edges))
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

    def is_core(self):
        val = {v: 0 for v in self.vertex_set()}
        for _, u, v in self.edges:
            val[u] += 1
            val[v] += 1
        return all(k >= 2 for k in val.values())

    def volume(self):
        if self.lengths is None:
            raise MarkingError("no metric")
        return sum(self.lengths[e] for e in self.eids())

    def with_unit_volume(self):
        vol = self.volume()
        if vol <= 0:
            raise MarkingError("degenerate metric")
        return MarkedGraph(
            self.rank,
            self.edges,
            dict(self.marking),
            {e: Fraction(l, 1) / vol for e, l in self.lengths.items()},
        )

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

    def validate(self, require_core=True):
        """Check connectivity, rank, and that the marking is an isomorphism.
        Intermediate fold stages may carry valence-1 tails, so the core
        condition is optional."""
        if not self.is_connected():
            raise MarkingError("not connected")
        if require_core and not self.is_core():
            raise MarkingError("not a core graph")
        if self.graph_rank() != self.rank:
            raise MarkingError("graph rank differs from marking rank")
        if not is_basis(self.loop_basis()):
            raise MarkingError("marking is not an isomorphism to the free group")
        if self.lengths is not None:
            if set(self.lengths) != set(self.eids()):
                raise MarkingError("lengths must cover all edges")
            if any(l <= 0 for l in self.lengths.values()):
                raise MarkingError("lengths must be positive")
        return True

    def normalize(self):
        """Gauge the marking so spanning-tree edges carry the identity."""
        tree, path_words, _ = self.tree_data()
        marking = {}
        for eid, u, v in self.edges:
            if eid in tree:
                marking[eid] = Word.identity(self.rank)
            else:
                marking[eid] = path_words[u] * self.marking[eid] * ~path_words[v]
        return MarkedGraph(self.rank, self.edges, marking,
                           dict(self.lengths) if self.lengths else None)

    # -- serialization --------------------------------------------------

    def to_json(self):
        tree, _, _ = self.tree_data()
        d = {
            "rank": self.rank,
            "vertices": sorted(self.vertex_set()),
            "edges": [{"id": e, "from": u, "to": v} for e, u, v in self.edges],
            "marking": {str(e): word_to_str(self.marking[e]) for e in self.eids()},
            "tree": sorted(tree),
        }
        if self.lengths is not None:
            d["lengths"] = {
                str(e): f"{l.numerator}/{l.denominator}"
                for e, l in self.lengths.items()
            }
        return d

    @staticmethod
    def from_json(d):
        rank = d["rank"]
        edges = tuple(sorted((e["id"], e["from"], e["to"]) for e in d["edges"]))
        marking = {int(k): word_from_str(rank, v) for k, v in d["marking"].items()}
        lengths = None
        if "lengths" in d:
            lengths = {}
            for k, v in d["lengths"].items():
                p, q = v.split("/")
                lengths[int(k)] = Fraction(int(p), int(q))
        return MarkedGraph(rank, edges, marking, lengths)


def rose(n, lengths=None):
    """The n-petal rose with the identity marking."""
    edges = tuple((i, 0, 0) for i in range(1, n + 1))
    marking = {i: Word(n, (i,)) for i in range(1, n + 1)}
    return MarkedGraph(n, edges, marking, lengths)


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
    return MarkedGraph(
        G.rank,
        G.edges,
        {e: phi(w) for e, w in G.marking.items()},
        dict(G.lengths) if G.lengths else None,
    )


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


def cyclic_tighten(path):
    path = tighten(path)
    while len(path) >= 2 and path[0][0] == path[-1][0] and path[0][1] == -path[-1][1]:
        path = path[1:-1]
        path = tighten(path)
    return path


class PathTranslator:
    """Converts ambient words to reduced edge-path loops at the base vertex
    of a marked graph, and back."""

    def __init__(self, G):
        self.G = G
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
        self.base = G.base_vertex()
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

    def path_to_word(self, path):
        return self.G.path_word(path)


def loop_length(G, w):
    """Metric length of the immersed loop representing the class of w."""
    t = PathTranslator(G)
    path = cyclic_tighten(t.word_to_path(w))
    return sum(G.lengths[e] for e, _ in path)


# ---------------------------------------------------------------------------
# covers


@dataclass(eq=False)
class Immersion:
    """The core of the A-cover of G with its immersion p: A|G -> G.

    The domain is a folded graph over the edge alphabet of G: label k stands
    for the k-th edge of G in eid order.
    """

    factor: FactorClass
    target: MarkedGraph
    domain: StallingsGraph  # based
    eids: tuple

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


def cover_core(A, G, translator=None):
    """Core of the cover of G corresponding to the conjugacy class of A."""
    if A.rank_ambient != G.rank:
        raise ValueError("ambient rank mismatch")
    t = translator if translator is not None else PathTranslator(G)
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


def _components(vertices, edges):
    """spanning_tree of each connected component of (vertices, edge
    triples), rooted at its least vertex."""
    seen = set()
    for v in sorted(vertices):
        if v not in seen:
            paths, tree = spanning_tree(v, edges)
            seen.update(paths)
            yield paths, tree


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
        for tree_path, tree in _components(core.vertex_set(), rest):
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
                    raise MarkingError("collapse generator fell outside A")
                gens.append(local)
            gens = [g for g in gens if g]
            if gens:
                out.add(factor_class(gens))
    return out


# ---------------------------------------------------------------------------
# Lipschitz stretch via candidate loops


def _embedded_circles(G):
    """Embedded circles as edge paths; deduplicated by edge set."""
    seen = {}
    for eid, u, v in G.edges:
        if u == v:
            seen[frozenset([eid])] = [(eid, 1)]
    incident = incidence((u, v, eid) for eid, u, v in G.edges if u != v)

    def dfs(start, current, path, used_vertices):
        for eid, sign, other in incident.get(current, []):
            if path and path[-1][0] == eid:
                continue
            if other == start and len(path) >= 1:
                circle = path + [(eid, sign)]
                key = frozenset(e for e, _ in circle)
                if len(key) == len(circle):
                    seen.setdefault(key, circle)
                continue
            if other in used_vertices:
                continue
            dfs(start, other, path + [(eid, sign)], used_vertices | {other})

    for v in sorted(G.vertex_set()):
        dfs(v, v, [], {v})
    return list(seen.values())


def _path_vertices(G, path, start):
    ebi = G.edge_by_id()
    verts = [start]
    cur = start
    for eid, sign in path:
        u, v = ebi[eid]
        cur = v if sign > 0 else u
        verts.append(cur)
    return verts


def _circle_vertices(G, circle):
    ebi = G.edge_by_id()
    eid, sign = circle[0]
    u, v = ebi[eid]
    start = u if sign > 0 else v
    return _path_vertices(G, circle, start)[:-1], start


def _rotate_to(G, circle, vertex):
    verts, start = _circle_vertices(G, circle)
    i = verts.index(vertex)
    return circle[i:] + circle[:i]


def candidate_loops(G):
    """Candidate classes: embedded circles, figure eights, and barbells."""
    circles = _embedded_circles(G)
    ebi = G.edge_by_id()
    out = []
    for c in circles:
        out.append(list(c))
    for i in range(len(circles)):
        for j in range(i + 1, len(circles)):
            c1, c2 = circles[i], circles[j]
            if {e for e, _ in c1} & {e for e, _ in c2}:
                continue
            v1, _ = _circle_vertices(G, c1)
            v2, _ = _circle_vertices(G, c2)
            common = set(v1) & set(v2)
            if len(common) == 1:
                x = common.pop()
                out.append(_rotate_to(G, c1, x) + _rotate_to(G, c2, x))
            elif not common:
                arc = _shortest_arc(G, set(v1), set(v2), set(v1) | set(v2))
                if arc is not None:
                    path, x, y = arc
                    out.append(
                        _rotate_to(G, c1, x)
                        + path
                        + _rotate_to(G, c2, y)
                        + _reversed_path(path)
                    )
    return out


def _shortest_arc(G, src, dst, forbidden_interior):
    incident = incidence(G.arcs())
    from collections import deque

    q = deque((s, []) for s in sorted(src))
    seen = set(src)
    while q:
        x, path = q.popleft()
        for eid, sign, other in sorted(incident.get(x, [])):
            if other in dst:
                return path + [(eid, sign)], _arc_start(G, path + [(eid, sign)]), other
            if other in seen or other in forbidden_interior:
                continue
            seen.add(other)
            q.append((other, path + [(eid, sign)]))
    return None


def _arc_start(G, path):
    eid, sign = path[0]
    u, v = G.edge_by_id()[eid]
    return u if sign > 0 else v


def lipschitz_stretch(G, H):
    """Minimal Lipschitz constant of a change of marking G -> H, as the
    maximum candidate-loop length ratio.  Exact rational."""
    if G.lengths is None or H.lengths is None:
        raise MarkingError("degenerate metric")
    G = G.with_unit_volume()
    H = H.with_unit_volume()
    t = PathTranslator(G)
    best = None
    for loop in candidate_loops(G):
        w = t.path_to_word(loop)
        num = loop_length(H, w)
        den = sum(G.lengths[e] for e, _ in loop)
        ratio = Fraction(num) / Fraction(den)
        if best is None or ratio > best:
            best = ratio
    if best is None:
        raise MarkingError("no candidate loops (not a core graph?)")
    return best


# ---------------------------------------------------------------------------
# discrete fold sequences


@dataclass(eq=False)
class FoldStage:
    graph: MarkedGraph
    image: dict  # eid -> (target eid, sign)

    def direction_image(self, eid, sign):
        te, ts = self.image[eid]
        return (te, ts * sign)

    def gates(self):
        """Per vertex: partition of incident directions by their image
        direction in the target."""
        at = {}
        for eid, u, v in self.graph.edges:
            at.setdefault(u, []).append((eid, 1))
            at.setdefault(v, []).append((eid, -1))
        out = {}
        for vtx, dirs in at.items():
            groups = {}
            for eid, sign in dirs:
                groups.setdefault(self.direction_image(eid, sign), []).append((eid, sign))
            out[vtx] = sorted(sorted(g) for g in groups.values())
        return out

    def has_train_track_structure(self):
        return all(len(gs) >= 2 for gs in self.gates().values())


@dataclass(eq=False)
class FoldSequence:
    source: MarkedGraph
    target: MarkedGraph
    stages: list  # FoldStage
    folds: list  # (vertex, direction image, (eid kept, eid dropped))

    def __len__(self):
        return len(self.folds)


def _gauged_nontrivial(G):
    """Gauge the marking so every edge word is nontrivial (possible whenever
    rank >= 1; uses long vertex potentials)."""
    marking = dict(G.marking)
    if all(marking[e] for e in G.eids()):
        return G
    vs = sorted(G.vertex_set())
    # potential c_x: distinct long powers of the first generator
    pot = {}
    for i, x in enumerate(vs):
        pot[x] = Word(G.rank, (1,)) ** (3 * (i + 1))
    marking = {}
    ebi = G.edge_by_id()
    for eid in G.eids():
        u, v = ebi[eid]
        marking[eid] = ~pot[u] * G.marking[eid] * pot[v]
        if not marking[eid]:
            # same potential cancelled the word; nudge with a square
            marking[eid] = ~pot[u] * G.marking[eid] * (pot[v] * Word(G.rank, (2, 2)))
            pot[v] = pot[v] * Word(G.rank, (2, 2))
    if any(not marking[e] for e in G.eids()):
        raise MarkingError("could not gauge all edge words nontrivial")
    return MarkedGraph(G.rank, G.edges, marking, dict(G.lengths) if G.lengths else None)


def fold_sequence(G, H):
    """A sequence of single Stallings folds realizing a change of marking
    G -> H.  Stage 0 is a subdivision of G mapping edge-to-edge onto H; each
    later stage folds one pair of directions in a common gate."""
    if G.rank != H.rank:
        raise ValueError("rank mismatch")
    if G is H or (G.edges == H.edges and G.marking == H.marking):
        stage = FoldStage(H, {e: (e, 1) for e in H.eids()})
        return FoldSequence(G, H, [stage], [])
    Gg = _gauged_nontrivial(G)
    t = PathTranslator(H)
    # subdivide: each G-edge becomes the H-path of its (gauged) marking word
    edges = []
    marking = {}
    image = {}
    next_vertex = 0
    vmap = {}

    def fresh():
        nonlocal next_vertex
        v = next_vertex
        next_vertex += 1
        return v

    for x in sorted(Gg.vertex_set()):
        vmap[x] = fresh()
    next_eid = 1
    ebi = Gg.edge_by_id()
    for eid in Gg.eids():
        u, v = ebi[eid]
        path = t.word_to_path(Gg.marking[eid])
        if not path:
            raise MarkingError("edge with trivial image; cannot fold-realize")
        cur = vmap[u]
        for i, (he, hs) in enumerate(path):
            nxt = vmap[v] if i == len(path) - 1 else fresh()
            w = H.marking[he]
            edges.append((next_eid, cur, nxt))
            marking[next_eid] = w if hs > 0 else ~w
            image[next_eid] = (he, hs)
            next_eid += 1
            cur = nxt

    lengths = None
    if H.lengths is not None:
        lengths = {e: H.lengths[image[e][0]] for e in image}
    stage_graph = MarkedGraph(G.rank, tuple(edges), marking, lengths)
    stages = [FoldStage(stage_graph, dict(image))]
    folds = []
    while True:
        stage = stages[-1]
        pair = _least_fold_pair(stage)
        if pair is None:
            break
        vtx, dimg, e_keep, e_drop, merge_a, merge_b = pair
        g = stage.graph
        new_edges = []
        new_marking = {}
        new_image = {}
        new_lengths = {} if g.lengths is not None else None
        for eid, u, v in g.edges:
            if eid == e_drop:
                continue
            u2 = merge_a if u == merge_b else u
            v2 = merge_a if v == merge_b else v
            new_edges.append((eid, u2, v2))
            new_marking[eid] = g.marking[eid]
            new_image[eid] = stage.image[eid]
            if new_lengths is not None:
                new_lengths[eid] = g.lengths[eid]
        stages.append(
            FoldStage(MarkedGraph(g.rank, tuple(new_edges), new_marking, new_lengths),
                      new_image))
        folds.append((vtx, dimg, (e_keep, e_drop)))
    _check_final_stage(stages[-1], H)
    return FoldSequence(G, H, stages, folds)


def _least_fold_pair(stage):
    at = {}
    ebi = stage.graph.edge_by_id()
    for eid, u, v in stage.graph.edges:
        at.setdefault((u, stage.direction_image(eid, 1)), []).append(eid)
        at.setdefault((v, stage.direction_image(eid, -1)), []).append(eid)
    candidates = []
    for (vtx, dimg), eids in at.items():
        if len(eids) < 2:
            continue
        e1, e2 = sorted(eids)[:2]

        # far endpoint of e relative to its direction at vtx matching dimg
        def far_endpoint(e):
            u, v = ebi[e]
            if u == vtx and stage.direction_image(e, 1) == dimg:
                return v
            return u
        a, b = far_endpoint(e1), far_endpoint(e2)
        candidates.append((vtx, dimg, e1, e2, min(a, b), max(a, b)))
    if not candidates:
        return None
    return min(candidates)


def _check_final_stage(stage, H):
    g = stage.graph
    if len(g.edges) != len(H.edges):
        raise MarkingError("fold sequence did not terminate on the target")
    used = {}
    for eid in g.eids():
        te, _ = stage.image[eid]
        used[te] = used.get(te, 0) + 1
    if any(c != 1 for c in used.values()) or set(used) != set(H.eids()):
        raise MarkingError("fold sequence did not terminate on the target")


def middle_interval(seq, A, require_metric=False):
    """Maximal stage range on which the tracked A-cover has >= 2 gates at
    every vertex (and, when lengths are present, natural edges shorter
    than 2).  Returns (start, end) with end exclusive; degenerate (k, k)
    when no stage qualifies."""
    n = len(seq.stages)
    good = []
    for stage in seq.stages:
        good.append(_stage_cover_ok(stage, A, require_metric))
    best = (n, n)
    i = 0
    while i < n:
        if not good[i]:
            i += 1
            continue
        j = i
        while j < n and good[j]:
            j += 1
        if j - i > best[1] - best[0] or best == (n, n):
            best = (i, j)
        i = j
    return best


def _stage_cover_ok(stage, A, require_metric):
    imm = cover_core(A, stage.graph)
    core = imm.core()
    if not core.edges:
        return False
    # directions of the composed map A|G_t -> G_t -> H
    eids = imm.eids
    at = {}
    for u, v, label in core.edges:
        e = eids[label - 1]
        at.setdefault(u, set()).add(stage.direction_image(e, 1))
        at.setdefault(v, set()).add(stage.direction_image(e, -1))
    if any(len(gates) < 2 for gates in at.values()):
        return False
    if stage.graph.lengths is not None:
        norm = stage.graph.with_unit_volume()
        lengths = {}
        for u, v, label in core.edges:
            lengths[(u, v, label)] = norm.lengths[eids[label - 1]]
        if not _natural_edges_short(core, lengths, bound=Fraction(2)):
            return False
    elif require_metric:
        return False
    return True


def _natural_edges_short(core, lengths, bound):
    """Sum lengths along maximal valence-2 chains and compare to the bound."""
    val = {}
    for u, v, _ in core.edges:
        val[u] = val.get(u, 0) + 1
        val[v] = val.get(v, 0) + 1
    incident = {}
    for edge in core.edges:
        u, v, _ = edge
        incident.setdefault(u, []).append((edge, v))
        incident.setdefault(v, []).append((edge, u))
    seen = set()
    for edge in core.edges:
        if edge in seen:
            continue
        total = lengths[edge]
        seen.add(edge)
        # walk both ways through valence-2 vertices
        for end_dir in (0, 1):
            prev_edge = edge
            cur = edge[end_dir]
            while val.get(cur, 0) == 2:
                nxts = [(e2, o) for e2, o in incident[cur] if e2 != prev_edge]
                if len(nxts) != 1:
                    break
                e2, other = nxts[0]
                if e2 in seen:
                    break
                seen.add(e2)
                total += lengths[e2]
                prev_edge = e2
                cur = other
        if total >= bound:
            return False
    return True
