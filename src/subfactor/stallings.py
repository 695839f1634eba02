"""Folded subgroup graphs: folding, cores, membership, conjugacy containment,
free-factor decision by Whitehead reduction, and exact automorphism inversion.

Edges are triples (u, v, label) with label a positive generator index; the
edge read from u to v spells that generator, read backwards its inverse.
"""

from __future__ import annotations

import functools
from collections import Counter
from dataclasses import dataclass

from .words import (
    Automorphism,
    Word,
    _image_table,
    _inverse_letters,
    _join,
    _word,
    whitehead_automorphisms,
    whitehead_type2,
    word_from_str,
)


class TrivialSubgroupError(ValueError):
    pass


# ---------------------------------------------------------------------------
# graph walks shared by every module: edges are (u, v, key) triples, read
# forwards (sign 1) from u and backwards (sign -1) from v


def find(parent, x):
    """Root of x in a union-find forest, halving the path on the way."""
    while parent[x] != x:
        parent[x] = parent[parent[x]]
        x = parent[x]
    return x


def incidence(edges):
    """Vertex -> its (key, sign, other end) steps, in edge order."""
    steps = {}
    for u, v, key in edges:
        steps.setdefault(u, []).append((key, 1, v))
        steps.setdefault(v, []).append((key, -1, u))
    return steps


def spanning_tree(root, edges):
    """Deterministic BFS spanning tree of root's component: the frontier
    is taken in sorted order and each vertex's steps in sorted order.

    Returns (paths, tree) where paths[x] is the (key, sign) path from root
    to x inside the tree and tree is the set of tree edge triples.
    """
    steps = incidence(edges)
    paths = {root: []}
    tree = set()
    frontier = [root]
    while frontier:
        nxt = []
        for x in sorted(frontier):
            for key, sign, other in sorted(steps.get(x, ())):
                if other in paths:
                    continue
                paths[other] = paths[x] + [(key, sign)]
                tree.add((x, other, key) if sign > 0 else (other, x, key))
                nxt.append(other)
        frontier = nxt
    return paths, tree


def components(vertices, edges):
    """spanning_tree of each connected component of (vertices, edges),
    rooted at its least vertex, in the order of those roots."""
    seen = set()
    for v in sorted(vertices):
        if v not in seen:
            paths, tree = spanning_tree(v, edges)
            seen.update(paths)
            yield paths, tree


def bfs_path(start, goal, items, adjacent, max_depth=None):
    """A shortest path start, ..., goal in the graph on items (with start
    and goal among them) whose edges are the pairs adjacent(x, y) accepts,
    or None when goal is not within max_depth steps (None: any number).
    Items are tried in their given order, and adjacent is asked only of
    pairs that the search reaches, each at most once."""
    if start == goal:
        return [start]
    seen = {start}
    frontier = [[start]]
    depth = 0
    while frontier and (max_depth is None or depth < max_depth):
        depth += 1
        nxt = []
        for path in frontier:
            for x in items:
                if x in seen or not adjacent(path[-1], x):
                    continue
                if x == goal:
                    return path + [x]
                seen.add(x)
                nxt.append(path + [x])
        frontier = nxt
    return None


# ---------------------------------------------------------------------------
# mutable builder used for folding


class GraphBuilder:
    """Labeled digraph under construction.  Each edge may carry a provenance
    word; folding keeps loop readings at the basepoint consistent by gauge
    moves at merged vertices."""

    def __init__(self, rank, prov_rank=None):
        self.rank = rank
        self.prov_rank = prov_rank
        self.next_vertex = 0
        self.next_edge = 0
        self.vertices = set()
        # edge id -> [u, v, label, prov or None]
        self.edges = {}
        self.basepoint = None

    def new_vertex(self):
        v = self.next_vertex
        self.next_vertex += 1
        self.vertices.add(v)
        return v

    def add_edge(self, u, v, label, prov=None):
        e = self.next_edge
        self.next_edge += 1
        self.edges[e] = [u, v, label, prov]
        return e

    def add_loop_word(self, base, w, prov=None):
        """Attach a loop at `base` spelling the word w; prov (if given) is
        carried by the first edge of the loop."""
        if not w.letters:
            return
        cur = base
        n = len(w.letters)
        for i, x in enumerate(w.letters):
            nxt = base if i == n - 1 else self.new_vertex()
            p = prov if (i == 0 and prov is not None) else (
                Word.identity(self.prov_rank) if self.prov_rank else None)
            if x > 0:
                self.add_edge(cur, nxt, x, p)
            else:
                # read backwards: edge from nxt to cur
                self.add_edge(nxt, cur, -x, ~p if p is not None else None)
            cur = nxt

    # -- folding --------------------------------------------------------

    def _gauge(self, w, c):
        """Multiply provenance around vertex w by c: edges into w get p*c,
        edges out of w get c^-1*p.  Loop readings at other vertices are
        unchanged."""
        cinv = ~c
        parent = self._parent
        for e in self._incident.get(w, ()):
            rec = self.edges.get(e)
            if rec is None:
                continue
            rec[0] = u = find(parent, rec[0])
            rec[1] = v = find(parent, rec[1])
            if u == w and v == w:
                rec[3] = cinv * rec[3] * c
            elif v == w:
                rec[3] = rec[3] * c
            elif u == w:
                rec[3] = cinv * rec[3]

    def fold(self):
        """Fold to completion, near-linearly: a union-find over vertices
        with a worklist of vertices to recheck.  With provenance, gauge
        moves keep every basepoint loop reading correct.

        The builder must hold a bouquet of freely reduced loops at the
        basepoint, as every caller builds it.  An interior vertex of such a
        loop has no foldable pair until a fold merges it, and every merge
        puts its vertex back on the worklist, so the worklist starts from
        the basepoint alone."""
        parent = {v: v for v in self.vertices}
        incident = {v: set() for v in self.vertices}
        for e, rec in self.edges.items():
            incident[rec[0]].add(e)
            incident[rec[1]].add(e)
        self._incident = incident
        self._parent = parent
        pending = [self.basepoint]
        while pending:
            v = pending.pop()
            if find(parent, v) != v:
                continue
            # normalize endpoints of incident edges, then look for a pair
            # of same-label edges sharing this endpoint on the same side
            out = {}
            inn = {}
            pair = None
            for e in list(incident[v]):
                rec = self.edges.get(e)
                if rec is None:
                    incident[v].discard(e)
                    continue
                rec[0] = find(parent, rec[0])
                rec[1] = find(parent, rec[1])
                if rec[0] != v and rec[1] != v:
                    incident[v].discard(e)
                    continue
                label = rec[2]
                if rec[0] == v:
                    if (label in out) and out[label] != e:
                        pair = (out[label], e, "out")
                        break
                    out[label] = e
                if rec[1] == v:
                    if (label in inn) and inn[label] != e:
                        pair = (inn[label], e, "in")
                        break
                    inn[label] = e
            if pair is None:
                continue
            e, f, side = pair
            eu, ev, _, ep = self.edges[e]
            fu, fv, _, fp = self.edges[f]
            if side == "out":
                a, b = find(parent, ev), find(parent, fv)
            else:
                a, b = find(parent, eu), find(parent, fu)
            base = (find(parent, self.basepoint)
                    if self.basepoint is not None else None)
            if ep is not None and a != b:
                # make prov of f agree with prov of e before identifying
                if b != base:
                    if side == "out":
                        # edges into b get p*c ; want fp*c == ep
                        self._gauge(b, ~fp * ep)
                    else:
                        # edges out of b get c^-1*p ; want c^-1*fp == ep
                        self._gauge(b, fp * ~ep)
                else:
                    if side == "out":
                        self._gauge(a, ~ep * fp)
                    else:
                        self._gauge(a, ep * ~fp)
            del self.edges[f]
            incident[v].discard(f)
            if a != b:
                # keep the basepoint's root stable
                keep, drop = (a, b) if b != base else (b, a)
                parent[drop] = keep
                incident[keep] |= incident.pop(drop, set())
                self.vertices.discard(drop)
                if self.basepoint == drop:
                    self.basepoint = keep
                pending.append(keep)
            pending.append(v)
        # final endpoint normalization
        for rec in self.edges.values():
            rec[0] = find(parent, rec[0])
            rec[1] = find(parent, rec[1])
        self.vertices = {v for v in self.vertices if find(parent, v) == v}
        if self.basepoint is not None:
            self.basepoint = find(parent, self.basepoint)
        del self._incident
        del self._parent

    def trim(self, keep_basepoint=True):
        """Remove valence<2 vertices (never the basepoint when kept), with a
        worklist of vertices whose valence fell below 2."""
        incident = {v: [] for v in self.vertices}
        for e, (u, v, _, _) in self.edges.items():
            incident[u].append(e)
            incident[v].append(e)
        valence = {v: len(es) for v, es in incident.items()}
        kept = self.basepoint if keep_basepoint else None
        work = [v for v, k in valence.items() if k < 2 and v != kept]
        while work:
            v = work.pop()
            if v not in self.vertices:
                continue
            self.vertices.remove(v)
            for e in incident[v]:
                rec = self.edges.pop(e, None)
                if rec is None:
                    continue
                other = rec[1] if rec[0] == v else rec[0]
                valence[other] -= 1
                if valence[other] < 2 and other != kept:
                    work.append(other)

    def to_graph(self):
        return StallingsGraph(
            rank=self.rank,
            edges=tuple(sorted((u, v, label) for u, v, label, _ in self.edges.values())),
            basepoint=self.basepoint,
        )


# ---------------------------------------------------------------------------
# immutable folded graphs


@dataclass(frozen=True)
class StallingsGraph:
    rank: int
    edges: tuple  # sorted (u, v, label)
    basepoint: object = None

    def vertex_set(self):
        vs = {u for u, _, _ in self.edges} | {v for _, v, _ in self.edges}
        if self.basepoint is not None:
            vs.add(self.basepoint)
        return vs

    def out_map(self):
        m = {}
        for u, v, label in self.edges:
            m[(u, label)] = v
        return m

    def in_map(self):
        m = {}
        for u, v, label in self.edges:
            m[(v, label)] = u
        return m

    def graph_rank(self):
        return len(self.edges) - len(self.vertex_set()) + 1

    def without_basepoint(self):
        b = GraphBuilder(self.rank)
        b.vertices = set(self.vertex_set())
        b.next_vertex = max(b.vertices, default=-1) + 1
        for u, v, label in self.edges:
            b.add_edge(u, v, label)
        b.basepoint = None
        b.trim(keep_basepoint=False)
        return b.to_graph()


def _folded(gens):
    """The folded builder of the bouquet of loops spelling `gens` at
    vertex 0, the basepoint."""
    gens = list(gens)
    if not gens:
        raise TrivialSubgroupError("no generators")
    rank = gens[0].rank
    if any(w.rank != rank for w in gens):
        raise ValueError("generators have mixed ranks")
    if all(not w for w in gens):
        raise TrivialSubgroupError("trivial subgroup")
    b = GraphBuilder(rank)
    b.basepoint = b.new_vertex()
    for w in gens:
        b.add_loop_word(b.basepoint, w)
    b.fold()
    return b


def subgroup_graph(gens):
    """Folded based core graph of the subgroup generated by `gens`."""
    b = _folded(gens)
    b.trim(keep_basepoint=True)
    return b.to_graph()


def _tree_data(graph):
    """spanning_tree from the basepoint, with each path read as the word
    it spells.  Returns (path, tree_edges).

    Each vertex's letters extend its tree parent's, in BFS order.  A tree
    path never backtracks, so in a folded graph it spells a reduced word."""
    paths, tree = spanning_tree(graph.basepoint, graph.edges)
    out = graph.out_map()
    inn = graph.in_map()
    letters = {graph.basepoint: ()}
    for x, p in paths.items():
        if p:
            label, sign = p[-1]
            parent = inn[(x, label)] if sign > 0 else out[(x, label)]
            letters[x] = letters[parent] + (sign * label,)
    path = {x: _word(graph.rank, w) for x, w in letters.items()}
    return path, tree


def basis(graph):
    """Free basis of the subgroup of a folded based graph, via spanning tree."""
    path, tree = _tree_data(graph)
    words = []
    for u, v, label in graph.edges:
        if (u, v, label) in tree:
            continue
        words.append(path[u] * Word(graph.rank, (label,)) * ~path[v])
    return words


class Expression:
    """Rewrites ambient words as words in a fixed generating tuple, by
    folding with provenance."""

    def __init__(self, gens):
        gens = list(gens)
        if not gens:
            raise TrivialSubgroupError("no generators")
        self.rank = gens[0].rank
        self.k = len(gens)
        b = GraphBuilder(self.rank, prov_rank=self.k)
        base = b.new_vertex()
        b.basepoint = base
        for i, w in enumerate(gens):
            b.add_loop_word(base, w, prov=Word(self.k, (i + 1,)))
        b.fold()
        b.trim(keep_basepoint=True)
        self.out = {}
        self.inn = {}
        for u, v, label, prov in b.edges.values():
            self.out[(u, label)] = (v, prov.letters)
            self.inn[(v, label)] = (u, _inverse_letters(prov.letters))
        self.basepoint = b.basepoint
        self.graph = b.to_graph()

    def express(self, w):
        """A word over the generators mapping to w, or None if w is not in
        the subgroup."""
        cur = self.basepoint
        pieces = []
        for x in w.letters:
            hit = self.out.get((cur, x)) if x > 0 else self.inn.get((cur, -x))
            if hit is None:
                return None
            cur, piece = hit
            pieces.append(piece)
        if cur != self.basepoint:
            return None
        return _word(self.k, _join(pieces))


def substitute(images, w):
    """Apply the homomorphism x_i -> images[i] to w."""
    table = _image_table(images)
    return _word(images[0].rank, _join(map(table.__getitem__, w.letters)))


def is_basis(words):
    words = list(words)
    if not words:
        return False
    rank = words[0].rank
    if len(words) != rank:
        return False
    try:
        g = subgroup_graph(words)
    except TrivialSubgroupError:
        return False
    vs = g.vertex_set()
    return len(vs) == 1 and len(g.edges) == rank


def invert_automorphism(phi):
    """Exact inverse of an automorphism, via provenance folding.

    Raises ValueError if the images are not a basis, and RuntimeError if
    the computed inverse fails its composition check.
    """
    if not is_basis(phi.images):
        raise ValueError("images are not a basis; not an automorphism")
    expr = Expression(phi.images)
    imgs = []
    for j in range(phi.rank):
        q = expr.express(Word(phi.rank, (j + 1,)))
        if q is None:
            raise ValueError("images are not a basis; not an automorphism")
        imgs.append(q)
    inv = Automorphism(phi.rank, tuple(imgs))
    if not (phi * inv).is_identity():
        raise RuntimeError("computed inverse does not compose to the identity")
    return inv


# ---------------------------------------------------------------------------
# canonical codes and factor classes


def canonical_code(core):
    """Relabeling-invariant code of a folded basepoint-free core, and the
    start vertex realizing it (smallest id wins ties; a deterministic
    basepoint for a class representative): canonical BFS serialization
    minimized over all start vertices.  A start is abandoned as soon as one
    of its rows exceeds the best code's row at the same place."""
    out = core.out_map()
    inn = core.in_map()
    vs = sorted(core.vertex_set())
    if not vs:
        return f"{core.rank}|empty", None
    labels = range(1, core.rank + 1)
    adj = {v: [mp.get((v, label)) for label in labels for mp in (out, inn)]
           for v in vs}
    best = None
    best_start = None
    for start in vs:
        number = {start: 0}
        order = [start]
        rows = []
        tied = best is not None  # rows so far equal the best code's prefix
        for v in order:
            row = []
            for t in adj[v]:
                if t is None:
                    row.append(-1)
                    continue
                k = number.get(t)
                if k is None:
                    k = number[t] = len(order)
                    order.append(t)
                row.append(k)
            row = tuple(row)
            if tied:
                if len(rows) == len(best) or row > best[len(rows)]:
                    break
                tied = row == best[len(rows)]
            rows.append(row)
        else:
            code = tuple(rows)
            if best is None or code < best:
                best = code
                best_start = start
    body = ";".join(",".join(str(x) for x in row) for row in best)
    return f"{core.rank}|{body}", best_start


@dataclass(frozen=True)
class FactorClass:
    """Conjugacy class of a finitely generated subgroup, in canonical form.

    Named "factor" for its main use; nothing here requires the subgroup to
    actually be a free factor (is_free_factor decides that).
    """

    rank_ambient: int
    core: StallingsGraph
    rank: int

    def _canonical(self):
        """Canonical code and start, computed on first use (quadratic in the
        core size, so hot loops that only need edge counts skip it)."""
        c = self.__dict__.get("_canon")
        if c is None:
            c = canonical_code(self.core)
            object.__setattr__(self, "_canon", c)
        return c

    @property
    def code(self):
        return self._canonical()[0]

    def __eq__(self, other):
        return (
            isinstance(other, FactorClass)
            and self.rank_ambient == other.rank_ambient
            and self.code == other.code
        )

    def __hash__(self):
        return hash((self.rank_ambient, self.code))

    def based_representative(self):
        """The core re-based at its canonical start vertex; its loops realize
        one subgroup in the conjugacy class."""
        start = self._canonical()[1]
        return StallingsGraph(self.core.rank, self.core.edges, basepoint=start)

    def gens(self):
        g = self.__dict__.get("_gens")
        if g is None:
            g = basis(self.based_representative())
            object.__setattr__(self, "_gens", g)
        return g

    def complexity(self):
        return len(self.core.edges)

    def is_sub_rose(self):
        vs = self.core.vertex_set()
        if len(vs) != 1:
            return False
        labels = [label for _, _, label in self.core.edges]
        return len(labels) == len(set(labels))

    def sub_rose_labels(self):
        return sorted(label for _, _, label in self.core.edges)

    def __repr__(self):
        return f"FactorClass(n={self.rank_ambient}, rank={self.rank}, gens={[str(w) for w in self.gens()]})"


def class_frame(gens):
    """The word d carrying the canonical representative of the class of
    <gens> onto <gens> itself: <gens> = d * representative * d^-1."""
    g = subgroup_graph(gens)
    _, start = canonical_code(g.without_basepoint())
    path, _ = _tree_data(g)
    return path[start]


def factor_class(gens):
    """Canonical conjugacy-class form of the subgroup generated by `gens`:
    the folded bouquet trimmed straight to its 2-core, which is unique, so
    no vertex is renumbered."""
    b = _folded(gens)
    b.trim(keep_basepoint=False)
    b.basepoint = None
    core = b.to_graph()
    return FactorClass(
        rank_ambient=core.rank,
        core=core,
        rank=core.graph_rank(),
    )


def factor_from_strs(rank, texts):
    return factor_class([word_from_str(rank, t) for t in texts])


def apply_to_factor(phi, F):
    return factor_class([phi(w) for w in F.gens()])


def contained_up_to_conjugacy(A, B):
    """True iff some conjugate of A lies in B, by label-preserving morphism
    search between cores (extension is unique on folded targets)."""
    if A.rank_ambient != B.rank_ambient:
        raise ValueError("ambient rank mismatch")
    a_vs = sorted(A.core.vertex_set())
    b_out = B.core.out_map()
    b_inn = B.core.in_map()
    incident = incidence(A.core.edges)
    start = a_vs[0]
    for target in sorted(B.core.vertex_set()):
        image = {start: target}
        stack = [start]
        ok = True
        while stack and ok:
            x = stack.pop()
            for label, sign, other in incident.get(x, []):
                if sign > 0:
                    t = b_out.get((image[x], label))
                else:
                    t = b_inn.get((image[x], label))
                if t is None:
                    ok = False
                    break
                if other in image:
                    if image[other] != t:
                        ok = False
                        break
                else:
                    image[other] = t
                    stack.append(other)
        if ok and len(image) == len(a_vs):
            return True
    return False


# ---------------------------------------------------------------------------
# free-factor decision (Whitehead-Gersten reduction)


class FreeFactorResult:
    # every verdict is certified: a positive one by its witness, a negative
    # one by an invariant obstruction or by peak reduction (is_free_factor)
    certified = True

    def __init__(self, is_factor, witness=None, reason=""):
        self.is_factor = is_factor
        self.witness = witness
        self._inv = None
        self.reason = reason

    @property
    def witness_inverse(self):
        # inverting the witness is expensive on deep descents; defer it
        if self._inv is None and self.witness is not None:
            self._inv = invert_automorphism(self.witness)
        return self._inv

    def __bool__(self):
        return self.is_factor


# every reason a free-factor verdict can carry, with that verdict; the
# NDJSON cache (cli._cache_entry) skips a record whose pair is not here
OVER_RANK = "rank exceeds ambient rank"
PROPER_RANK_N = "rank-n proper subgroup cannot be a free factor"
MOD2_DEFECT = "mod-2 homology rank defect"
NOT_SUMMAND = "abelianization is not a direct summand"
MINIMAL = "complexity-minimal and not a sub-rose"
SUB_ROSE = "reduced to sub-rose"
REASONS = {OVER_RANK: False, PROPER_RANK_N: False, MOD2_DEFECT: False,
           NOT_SUMMAND: False, MINIMAL: False, SUB_ROSE: True}

_reduction_cache = {}


def clear_reduction_cache():
    _reduction_cache.clear()


def mod2_span(gens):
    """Reduced-echelon mod-2 span of the abelianized generators, as sorted
    bitmask rows (bit i = generator i+1).  Canonical: equal subspaces give
    equal tuples."""
    from .words import abelianize

    pivots = {}
    for w in gens:
        r = sum((1 << i) for i, c in enumerate(abelianize(w)) if c % 2)
        while r:
            b = r.bit_length() - 1
            if b in pivots:
                r ^= pivots[b]
            else:
                pivots[b] = r
                break
    for b in sorted(pivots, reverse=True):
        for b2 in list(pivots):
            if b2 != b and (pivots[b2] >> b) & 1:
                pivots[b2] ^= pivots[b]
    return tuple(sorted(pivots.values(), reverse=True))


def _smith_divisors(rows):
    """Invariant factors of an integer matrix (nonzero ones, in order)."""
    m = [list(r) for r in rows]
    out = []
    while m and any(any(x for x in r) for r in m):
        # move a minimal nonzero entry to (0, 0)
        pi, pj = min(((i, j) for i, r in enumerate(m) for j, x in
                      enumerate(r) if x), key=lambda t: abs(m[t[0]][t[1]]))
        m[0], m[pi] = m[pi], m[0]
        for r in m:
            r[0], r[pj] = r[pj], r[0]
        if m[0][0] < 0:
            m[0] = [-x for x in m[0]]
        dirty = False
        for i in range(1, len(m)):
            q = m[i][0] // m[0][0]
            if q:
                m[i] = [a - q * b for a, b in zip(m[i], m[0])]
            if m[i][0]:
                dirty = True
        for j in range(1, len(m[0])):
            q = m[0][j] // m[0][0]
            if q:
                for r in m:
                    r[j] -= q * r[0]
            if m[0][j]:
                dirty = True
        if dirty:
            continue
        out.append(m[0][0])
        m = [r[1:] for r in m[1:]]
    return out


def _obstruction(F):
    """A certified non-factor reason, or None."""
    from .words import abelianize

    n = F.rank_ambient
    if F.rank > n:
        return OVER_RANK
    if F.rank == n and not (F.is_sub_rose() and len(F.core.edges) == n):
        return PROPER_RANK_N
    span = mod2_span(F.gens())
    if len(span) < F.rank:
        return MOD2_DEFECT
    div = _smith_divisors([abelianize(w) for w in F.gens()])
    if any(d != 1 for d in div):
        return NOT_SUMMAND
    return None


def is_free_factor(F):
    """Decide whether F is a free factor of the ambient group.

    Strict Whitehead descent on core edge count.  By Gersten's peak
    reduction (On Whitehead's algorithm, Bull. AMS 10, 1984; see also
    Kapovich-Myasnikov, Stallings foldings and subgroups of free groups,
    J. Algebra 2002), a core that no Whitehead move shortens has the least
    edge count in its automorphism orbit, and the least core in the orbit
    of a free factor is a sub-rose.  So descent alone decides, and every
    verdict is certified.  On success the witness maps F to the class of
    the standard sub-rose on the first rank(F) generators.

    Each step takes the first type II move (A, a) of whitehead_type2 that
    shortens the core, found by counting (Gersten, ibid.; Roig-Ventura-Weil,
    IJAC 2007): with L(v) the link of v (x for an edge leaving v labelled x,
    x^-1 for one entering), |E(core phi(G))| = |E(G)| - #{edges labelled a}
    + #{v : L(v) & A^-1 is neither empty nor L(v)}.  Only that move is
    folded, and its fold checks the count.
    """
    if not F.core.edges:
        raise TrivialSubgroupError("trivial subgroup")
    key = (F.rank_ambient, F.code)
    if key in _reduction_cache:
        return _reduction_cache[key]
    result = _reduce(F)
    _reduction_cache[key] = result
    return result


def _finish(F, chain):
    """F is a sub-rose class; append the type-I relabeling that moves its
    labels to the front and compose the witness."""
    n = F.rank_ambient
    labels = F.sub_rose_labels()
    order = labels + [j for j in range(1, n + 1) if j not in labels]
    images = [None] * n
    for target, label in enumerate(order, 1):
        images[label - 1] = Word(n, (target,))
    witness = Automorphism(n, tuple(images))
    for phi in reversed(chain):
        witness = witness * phi
    return witness


@functools.cache
def _cut_table(rank):
    """(move, bitmask of A^-1, label of a) for each type II move (A, a) of
    whitehead_type2(rank), in its order, with bit rank + x for letter x."""
    return tuple((phi, sum(1 << (rank - x) for x in phi._cut[0]),
                  abs(phi._cut[1])) for phi in whitehead_type2(rank))


def _links(cores):
    """(link bitmask, vertices with that link) pairs over the given cores,
    with bits as in _cut_table, and the number of edges per label.  The cut
    count of a move adds up over cores, so one table scores a tuple."""
    masks = Counter()
    per_label = Counter()
    for core in cores:
        link = {}
        for u, v, label in core.edges:
            link[u] = link.get(u, 0) | 1 << (core.rank + label)
            link[v] = link.get(v, 0) | 1 << (core.rank - label)
        masks.update(link.values())
        per_label.update(label for _, _, label in core.edges)
    return tuple(masks.items()), per_label


def descend(classes):
    """Strict Whitehead descent of a tuple of classes on their summed edge
    count, scoring moves as is_free_factor does, until every class is a
    sub-rose or no move shortens the tuple.  Peak reduction holds for
    tuples up to conjugacy with that measure (Gersten 1984), so the stop
    is orbit-minimal.  Returns the final classes and the moves taken."""
    table = _cut_table(classes[0].rank_ambient)
    chain = []
    current = list(classes)
    # explicit generating words so the strict-descent loop never needs
    # canonical starts or codes of large intermediate graphs
    gens = [list(F.gens()) for F in current]
    while not all(F.is_sub_rose() for F in current):
        links, per_label = _links([F.core for F in current])
        for phi, inv, label in table:
            # the vertices whose link A^-1 cuts (see is_free_factor)
            cut = sum(k for m, k in links if 0 != m & inv != m)
            if cut < per_label[label]:
                break  # first improvement; order is fixed, so deterministic
        else:
            # type I moves keep the edge count, so this strict local
            # minimum is orbit-minimal
            break
        size = sum(F.complexity() for F in current) + cut - per_label[label]
        gens = [[phi(w) for w in ws] for ws in gens]
        current = [factor_class(ws) for ws in gens]
        if sum(F.complexity() for F in current) != size:
            raise RuntimeError("Whitehead move folded to a core whose edge "
                               "count differs from its cut count")
        chain.append(phi)
        # conjugating junk can pile up on the words; re-canonicalize when
        # they outgrow the core
        for i, F in enumerate(current):
            if sum(len(w) for w in gens[i]) > 2 * F.complexity() + 20:
                gens[i] = list(F.gens())
    return current, chain


def _reduce(F):
    obstruction = _obstruction(F)
    if obstruction is not None:
        return FreeFactorResult(False, reason=obstruction)
    (current,), chain = descend((F,))
    if not current.is_sub_rose():
        return FreeFactorResult(False, reason=MINIMAL)
    return FreeFactorResult(True, witness=_finish(current, chain),
                            reason=SUB_ROSE)


def random_automorphism(rank, rng, length=4):
    """A seeded random automorphism: a product of length Whitehead moves."""
    moves = whitehead_automorphisms(rank)
    phi = Automorphism.identity(rank)
    for _ in range(length):
        phi = rng.choice(moves) * phi
    return phi
