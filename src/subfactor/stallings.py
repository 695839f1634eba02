"""Folded subgroup graphs: folding, cores, membership, conjugacy containment,
free-factor decision by Whitehead reduction, and exact automorphism inversion.

Edges are triples (u, v, label) with label a positive generator index; the
edge read from u to v spells that generator, read backwards its inverse.
GraphBuilder folds: it keeps one transition table per vertex, {signed
letter: target}, and gives each folded vertex the least bouquet id of its
class.
"""

from __future__ import annotations

import math
from collections import Counter
from dataclasses import dataclass

from .words import (
    Automorphism,
    Word,
    _image_table,
    _inverse_letters,
    _join,
    _word,
    abelianize,
    type2_move,
    whitehead_move,
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

    Returns the parent links {vertex: (parent, key, sign)}, the root mapped
    to None: the tree edge read with that sign steps from parent to vertex.
    """
    steps = incidence(edges)
    up = {root: None}
    frontier = [root]
    while frontier:
        nxt = []
        for x in sorted(frontier):
            for key, sign, other in sorted(steps.get(x, ())):
                if other not in up:
                    up[other] = (x, key, sign)
                    nxt.append(other)
        frontier = nxt
    return up


def tree_path(up, v):
    """The (key, sign) path from the root to v in a spanning_tree."""
    path = []
    while up[v] is not None:
        v, key, sign = up[v]
        path.append((key, sign))
    path.reverse()
    return path


def tree_letters(up, v):
    """The keys times signs along the tree path to v: the word it spells
    when the keys are letters."""
    return tuple(sign * key for key, sign in tree_path(up, v))


def reversed_path(path):
    """The inverse of a (key, sign) path: its steps backwards, signs
    flipped."""
    return [(key, -sign) for key, sign in reversed(path)]


def in_tree(up, u, v, key):
    """Whether the edge (u, v, key) of up's component is a tree edge."""
    return up[v] == (u, key, 1) or up[u] == (v, key, -1)


def tree_loops(up, edges):
    """For each edge (u, v, key) of up's component outside the tree, in
    order, the (key, sign) loop at the root through it: the tree path to
    u, the edge, and the tree path from v back."""
    for u, v, key in edges:
        if u in up and not in_tree(up, u, v, key):
            yield (tree_path(up, u) + [(key, 1)]
                   + reversed_path(tree_path(up, v)))


def components(vertices, edges):
    """spanning_tree of each connected component of (vertices, edges),
    rooted at its least vertex, in the order of those roots."""
    seen = set()
    for v in sorted(vertices):
        if v not in seen:
            up = spanning_tree(v, edges)
            seen.update(up)
            yield up


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
# the folding kernel


class GraphBuilder:
    """A subgroup graph kept folded as words are read into it.

    Each vertex has a transition table {signed letter: target}: the edge
    u -x-> v (x > 0) is the entry x: v of u and the entry -x: u of v, and
    no two entries of one table share a letter.  With a provenance rank,
    prov maps each (vertex, signed letter) to the letters of the word that
    step reads, and a loop at the basepoint reads the product of its
    steps' words.

    Vertex ids are those of the bouquet of the queued words: the basepoint
    0, then one id per letter of each word but its last, in order.  A
    folded vertex is the class of the bouquet vertices whose prefixes
    reach it, and it takes the least id of its class, so no id depends on
    the order in which the fold merges."""

    def __init__(self, rank, prov_rank=None):
        self.rank = rank
        self.prov_rank = prov_rank
        self.basepoint = 0
        self.tables = {0: {}}
        self.prov = {} if prov_rank else None
        self.words = []
        self.next_vertex = 1

    def add_edge(self, u, v, label):
        """Enter the edge u -label-> v; its slots at u and v must be free."""
        self.tables.setdefault(u, {})[label] = v
        self.tables.setdefault(v, {})[-label] = u

    def add_loop_word(self, w, prov=None):
        """Queue a loop at the basepoint spelling w, for fold to read in;
        the word prov (if given) is read along its first letter."""
        self.words.append((w.letters, None if prov is None else prov.letters))

    def fold(self):
        """Read each queued word in from the basepoint, following the
        transitions it finds and making a vertex for each letter it does
        not.  An edge whose slot at either end is taken merges its end with
        the slot's target (union-find): the larger id is dropped into the
        smaller, and its transitions are entered again at the survivor.
        With provenance the dropped vertex alone is gauged, so that the two
        edges read alike and every basepoint loop keeps its reading; the
        basepoint, id 0, always survives.  Each merge moves at most 2 *
        rank entries, so the fold is near-linear in the letters read
        (Touikan, A fast algorithm for Stallings' folding process, IJAC 16,
        2006)."""
        tables, prov = self.tables, self.prov
        alias = {}  # dropped vertex -> (survivor, gauge)

        def root(v):
            # v's class, and the gauge c that reads the word p of an edge
            # entering v as p * c there (and of one leaving v as c^-1 * p)
            c = ()
            while v in alias:
                v, g = alias[v]
                if g:
                    c = _join((c, g))
            return v, c

        def link(*edge):
            stack = [edge]
            while stack:
                u, x, v, p = stack.pop()
                u, cu = root(u)
                v, cv = root(v)
                if cu or cv:
                    p = _join((_inverse_letters(cu), p, cv))
                t = tables[u].get(x)
                if t is None:
                    t = tables[v].get(-x)
                    if t is None:
                        tables[u][x] = v
                        tables[v][-x] = u
                        if prov is not None:
                            prov[u, x] = p
                            prov[v, -x] = _inverse_letters(p)
                        continue
                    # t -x-> v is taken: read both edges backwards from v
                    u, x, v = v, -x, u
                    if prov is not None:
                        p = _inverse_letters(p)
                if t == v:
                    continue
                # u -x-> t and u -x-> v become one edge
                keep, drop = (t, v) if t < v else (v, t)
                g = None
                if prov is not None:
                    q = prov[u, x]
                    g = _join((_inverse_letters(p), q) if drop == v
                              else (_inverse_letters(q), p))
                alias[drop] = (keep, g)
                for y, w in tables.pop(drop).items():
                    r = None if prov is None else prov.pop((drop, y))
                    if w != drop:
                        del tables[w][-y]
                        if prov is not None:
                            del prov[w, -y]
                    elif y < 0:  # a loop is entered once
                        continue
                    stack.append((drop, y, w, r))

        vertex = self.next_vertex
        for letters, k in self.words:
            if not letters:
                continue
            # with provenance, k is the word the next edge reads from cur
            cur = 0
            for x in letters[:-1]:
                t = tables[cur].get(x)
                if t is None:
                    tables[cur][x] = t = vertex
                    tables[t] = {-x: cur}
                    if prov is not None:
                        prov[cur, x] = k
                        prov[t, -x] = _inverse_letters(k)
                        k = ()
                elif prov is not None:
                    # this bouquet vertex is dropped into t, gauged so that
                    # its edge reads like cur -x-> t
                    k = _join((_inverse_letters(prov[cur, x]), k))
                vertex += 1
                cur = t
            link(cur, letters[-1], 0, k)
        self.next_vertex = vertex
        self.words = []

    def trim(self, keep_basepoint=True):
        """Drop the vertices of valence < 2 (never the basepoint when kept)
        and their edges, with a worklist of vertices whose valence fell
        below 2."""
        tables = self.tables
        kept = self.basepoint if keep_basepoint else None
        work = [v for v, table in tables.items() if len(table) < 2 and v != kept]
        while work:
            table = tables.pop(work.pop(), None)
            for x, u in (table or {}).items():
                other = tables[u]
                del other[-x]
                if len(other) < 2 and u != kept:
                    work.append(u)

    def to_graph(self):
        return StallingsGraph(
            rank=self.rank,
            edges=tuple(sorted((u, v, x) for u, table in self.tables.items()
                               for x, v in table.items() if x > 0)),
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
        b.tables, b.basepoint = {}, None
        for u, v, label in self.edges:
            b.add_edge(u, v, label)
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
    for w in gens:
        b.add_loop_word(w)
    b.fold()
    return b


def subgroup_graph(gens):
    """Folded based core graph of the subgroup generated by `gens`."""
    b = _folded(gens)
    b.trim(keep_basepoint=True)
    return b.to_graph()


def _tree_word(rank, up, v):
    """The word spelled by the tree path to v.  A tree path never
    backtracks, so in a folded graph it spells a reduced word."""
    return _word(rank, tree_letters(up, v))


def basis(graph):
    """Free basis of the subgroup of a folded based graph, via spanning tree:
    one word per non-tree edge."""
    up = spanning_tree(graph.basepoint, graph.edges)
    rank = graph.rank
    return [_tree_word(rank, up, u) * Word(rank, (label,))
            * ~_tree_word(rank, up, v)
            for u, v, label in graph.edges if not in_tree(up, u, v, label)]


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
        for i, w in enumerate(gens):
            b.add_loop_word(w, prov=Word(self.k, (i + 1,)))
        b.fold()
        b.trim(keep_basepoint=True)
        # (vertex, signed letter) -> (target, the letters the step reads)
        self.steps = {(u, x): (v, b.prov[u, x])
                      for u, table in b.tables.items()
                      for x, v in table.items()}

    def express(self, w):
        """A word over the generators mapping to w, or None if w is not in
        the subgroup."""
        cur = 0  # the basepoint
        pieces = []
        for x in w.letters:
            hit = self.steps.get((cur, x))
            if hit is None:
                return None
            cur, piece = hit
            pieces.append(piece)
        if cur != 0:
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

    Raises ValueError if the images are not a basis (n words that
    generate F_n are a basis, so it is enough that every generator is
    expressed), and RuntimeError if the computed inverse fails its
    composition check.
    """
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


def _core_class(b):
    """The class of a folded builder's subgroup: its graph trimmed straight
    to the 2-core, which is unique, so no vertex is renumbered."""
    b.trim(keep_basepoint=False)
    b.basepoint = None
    core = b.to_graph()
    return FactorClass(
        rank_ambient=core.rank,
        core=core,
        rank=core.graph_rank(),
    )


def class_frame(gens):
    """The class F of <gens>, and the word d carrying F's canonical
    representative onto <gens> itself: <gens> = d * representative * d^-1.
    One fold gives both: the based graph and the core share their vertex
    ids, so d is the based graph's tree path to F's canonical start."""
    b = _folded(gens)
    b.trim(keep_basepoint=True)
    up = spanning_tree(b.basepoint, b.to_graph().edges)
    F = _core_class(b)
    return F, _tree_word(F.rank_ambient, up, F._canonical()[1])


def factor_class(gens):
    """Canonical conjugacy-class form of the subgroup generated by `gens`."""
    return _core_class(_folded(gens))


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

    Each step takes the first type II move (A, a), in whitehead_type2
    order, that shortens the core, found by counting (Gersten, ibid.;
    Roig-Ventura-Weil, IJAC 2007): with L(v) the link of v (x for an edge
    leaving v labelled x, x^-1 for one entering), |E(core phi(G))| =
    |E(G)| - #{edges labelled a} + #{v : L(v) & A^-1 is neither empty nor
    L(v)}.  Only that move is folded, and its fold checks the count.
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


def _links(cores):
    """(link bitmask, vertices with that link) pairs over the given cores,
    with bits as in whitehead_type2, and the number of edges per label.
    The cut count of a move adds up over cores, so one table scores a
    tuple."""
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


def _first_move(rank, links, per_label):
    """The first type II move (A, a), in whitehead_type2 order, whose cut
    count is below the number of edges labelled a, and the change in edge
    count it makes; or None."""
    for b, block in enumerate(whitehead_type2(rank)):
        edges = per_label[b // 2 + 1]
        if edges:  # else no move of the block shortens: no cut is negative
            for index, inv in enumerate(block, 1):
                # the vertices whose link A^-1 cuts (see is_free_factor)
                cut = sum(k for m, k in links if 0 != m & inv != m)
                if cut < edges:
                    a = (b // 2 + 1) * (-1) ** b
                    return type2_move(rank, a, index), cut - edges
    return None


def descend(classes):
    """Strict Whitehead descent of a tuple of classes on their summed edge
    count, scoring moves as is_free_factor does, until every class is a
    sub-rose or no move shortens the tuple.  Peak reduction holds for
    tuples up to conjugacy with that measure (Gersten 1984), so the stop
    is orbit-minimal.  Returns the final classes and the moves taken."""
    rank = classes[0].rank_ambient
    chain = []
    current = list(classes)
    # explicit generating words so the strict-descent loop never needs
    # canonical starts or codes of large intermediate graphs
    gens = [list(F.gens()) for F in current]
    while not all(F.is_sub_rose() for F in current):
        move = _first_move(rank, *_links([F.core for F in current]))
        if move is None:
            # type I moves keep the edge count, so this strict local
            # minimum is orbit-minimal
            break
        phi, change = move
        size = sum(F.complexity() for F in current) + change
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
    """A seeded random automorphism: a product of length Whitehead moves,
    each drawn as rng.choice draws from all of them in whitehead_move order."""
    count = (2 ** rank * math.factorial(rank)
             + 2 * rank * (4 ** (rank - 1) - 1))
    phi = Automorphism.identity(rank)
    for _ in range(length):
        phi = whitehead_move(rank, rng.randrange(count)) * phi
    return phi
