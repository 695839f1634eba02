"""Subfactor projections: exact Farey distances in rank 2, the projection
pi_A(B) of one free factor into the factor complex of another with the
restriction that moves it along an A-preserving automorphism, the exact
disjointness decision with its splitting certificates, jointly-embedded
marked graphs, classification of factor pairs, and the Behrstock-style
consistency check.
"""

from __future__ import annotations

import random
from functools import lru_cache
from math import gcd

from .marked import (
    MarkedGraph,
    MarkingError,
    adapted_rose,
    cover_core,
    one_edge_collapse_factors,
    transformed,
)
from .stallings import (
    Expression,
    apply_to_factor,
    bfs_path,
    class_frame,
    contained_up_to_conjugacy,
    descend,
    factor_class,
    find,
    invert_automorphism,
    is_free_factor,
    mod2_span,
    random_automorphism,
)
from .words import Automorphism, Word, abelianize, free_reduce


# ---------------------------------------------------------------------------
# the Farey graph: rank-one free factors of F_2


def slope(w):
    """Abelianization of a word of F_2 with coprime exponent sums, as a
    normalized pair (sign chosen so the first nonzero entry is positive)."""
    p, q = abelianize(w)
    if gcd(p, q) != 1:
        raise ValueError("not a primitive class")
    if p < 0 or (p == 0 and q < 0):
        p, q = -p, -q
    return (p, q)


def primitive_vector(F):
    """The slope of a rank-1 free factor of F_2."""
    if F.rank_ambient != 2 or F.rank != 1:
        raise ValueError("need a rank-1 factor of F_2")
    return slope(F.gens()[0])


@lru_cache(maxsize=4096)
def _dist_to_infinity(r, s):
    """Distance from r/s to 1/0 in the Farey graph, in one pass over the
    partial quotients a_1..a_m of the fractional part of r/s
    (Beardon-Hockman-Short, Geodesic continued fractions, Michigan Math. J.
    2012): F_i = min(1 + F_(i+1), a_i + F_(i+2)) with F_(m+1) = 1 and
    F_(m+2) = 0, and the distance is F_1.  So an integer is at distance 1,
    and 1/0 at distance 0."""
    if s == 0:
        return 0
    if s < 0:
        r, s = -r, -s
    quotients = []
    r %= s
    while r:
        a, rest = divmod(s, r)
        quotients.append(a)
        s, r = r, rest
    f1, f2 = 1, 0  # F_(i+1), F_(i+2)
    for a in reversed(quotients):
        f1, f2 = min(1 + f1, a + f2), f1
    return f1


def farey_distance(v, w):
    """Exact distance between primitive classes in the Farey graph."""
    p, q = v
    r, s = w
    if gcd(p, q) != 1 or gcd(r, s) != 1:
        raise ValueError("vectors must be primitive")
    if (p, q) in ((r, s), (-r, -s)):
        return 0
    # move v to (1, 0) by an integer matrix of determinant 1
    g, x, y = _xgcd(p, q)
    if g != 1:
        raise RuntimeError(f"xgcd of the primitive {v} gave {g}, not 1")
    r2, s2 = x * r + y * s, -q * r + p * s
    return _dist_to_infinity(r2, s2)


def _xgcd(a, b):
    old_r, r = a, b
    old_s, s = 1, 0
    old_t, t = 0, 1
    while r:
        quo = old_r // r
        old_r, r = r, old_r - quo * r
        old_s, s = s, old_s - quo * s
        old_t, t = t, old_t - quo * t
    if old_r < 0:
        old_r, old_s, old_t = -old_r, -old_s, -old_t
    return old_r, old_s, old_t


def farey_distance_classes(F1, F2):
    return farey_distance(primitive_vector(F1), primitive_vector(F2))


# ---------------------------------------------------------------------------
# double-covered edges and near-embeddings


class OmegaData:
    def __init__(self, immersion, omega_eids, omega_tilde, eb=None):
        self.immersion = immersion  # Immersion
        self.omega_eids = omega_eids  # target edges covered at least twice
        self.omega_tilde = omega_tilde  # their preimage edges in the core
        self.eb = eb  # domain edges over an embedded B-subgraph, if given

    def is_nearly_embedded(self):
        core = self.immersion.core()
        return _spanning_forest(core.vertex_set(), (),
                                self.omega_tilde) is not None


def omega_data(A, G, b_eids=None):
    imm = cover_core(A, G)
    mult = imm.multiplicities()
    omega = frozenset(e for e, m in mult.items() if m >= 2)
    core = imm.core()
    tilde = tuple(
        (u, v, label)
        for u, v, label in core.edges
        if imm.eid_of_label(label) in omega
    )
    eb = None
    if b_eids is not None:
        eb = tuple(
            (u, v, label)
            for u, v, label in core.edges
            if imm.eid_of_label(label) in b_eids
        )
    return OmegaData(imm, omega, tilde, eb)


def _spanning_forest(vertices, edges, forced):
    """A spanning forest of (vertices, edges) through every forced edge,
    greedy in sorted edge order; None when the forced edges contain a
    cycle."""
    forced = set(forced)
    parent = {v: v for v in vertices}
    tree = set()
    for e in sorted(forced) + sorted(edges):
        ru, rv = find(parent, e[0]), find(parent, e[1])
        if ru != rv:
            parent[ru] = rv
            tree.add(e)
        elif e in forced and e not in tree:
            return None
    return tree


def near_embedding(A, G):
    return omega_data(A, G).is_nearly_embedded()


# ---------------------------------------------------------------------------
# jointly embedded certificates


class DisjointWitness:
    """A marked graph containing edge-disjoint embedded subgraphs whose
    classes are A and B."""

    def __init__(self, graph, a_eids, b_eids):
        self.graph = graph  # MarkedGraph
        self.a_eids = a_eids
        self.b_eids = b_eids

    def verify(self, A, B):
        self.graph.validate()
        if self.a_eids & self.b_eids:
            raise MarkingError("witness subgraphs share an edge")
        if _subgraph_class(self.graph, self.a_eids) != A:
            raise MarkingError("A-side subgraph has the wrong class")
        if _subgraph_class(self.graph, self.b_eids) != B:
            raise MarkingError("B-side subgraph has the wrong class")
        return True


def _subgraph_class(G, eids):
    """Conjugacy class of the fundamental group of a connected subgraph."""
    sub = [e for e in G.edges if e[0] in eids]
    verts = {u for _, u, _ in sub} | {v for _, _, v in sub}
    H = MarkedGraph(G.rank, tuple(sub), {e: G.marking[e] for e, _, _ in sub})
    if not H.is_connected():
        raise MarkingError("witness subgraph is not connected")
    gens = [w for w in H.loop_basis() if w]
    if not gens:
        raise MarkingError("witness subgraph has trivial class")
    return factor_class(gens)


def joint_embedding(A, B, G):
    """If B is embedded in G and Omega-tilde together with the edges of A|G
    over B|G forms a forest, build the wedge graph where A and B embed
    disjointly.  Returns a verified DisjointWitness, or None."""
    immB = cover_core(B, G)
    if not immB.is_embedding():
        return None
    b_eids = immB.image_eids()
    od = omega_data(A, G, b_eids=b_eids)
    immA = od.immersion
    core = immA.core()
    if not core.edges:
        return None
    tree = _spanning_forest(core.vertex_set(), core.edges,
                            od.omega_tilde + od.eb)
    if tree is None:
        return None
    outside = [e for e in core.edges if e not in tree]
    p_outside = [immA.eid_of_label(label) for _, _, label in outside]
    if len(set(p_outside)) != len(p_outside):
        # the outside edges must map bijectively; cannot happen over a forest
        return None
    removed = set(p_outside)
    # wedge A|G (with fresh edge ids) onto G minus the removed open edges
    offset_v = max(G.vertex_set()) + 1
    next_eid = max(G.eids()) + 1
    vimg = immA.vertex_image()
    wedge = min(core.vertex_set())
    edges = []
    marking = {}
    keep = []
    for eid, u, v in G.edges:
        if eid in removed:
            continue
        edges.append((eid, u, v))
        marking[eid] = G.marking[eid]
        keep.append(eid)

    def vmap(x):
        if x == wedge:
            return vimg[wedge]
        return x + offset_v

    a_eids = []
    for u, v, label in core.edges:
        edges.append((next_eid, vmap(u), vmap(v)))
        marking[next_eid] = G.marking[immA.eid_of_label(label)]
        a_eids.append(next_eid)
        next_eid += 1
    W = MarkedGraph(G.rank, tuple(edges), marking)
    witness = DisjointWitness(W, frozenset(a_eids), frozenset(b_eids))
    witness.verify(A, B)
    return witness


# ---------------------------------------------------------------------------
# disjointness: theorems first, then peak reduction of the pair


def colors_meet(A, B):
    """Whether the mod-2 colors, the spans of the abelianized generators in
    H_1(F_n; Z/2), intersect nontrivially."""
    return (len(mod2_span(A.gens())) + len(mod2_span(B.gens()))
            > len(mod2_span([*A.gens(), *B.gens()])))


def disjointness_obstruction(A, B):
    """The theorem that rules out a splitting F_n = A * B^c * C for every c,
    or None.  In such a splitting the ranks of A and B add up to at most n,
    and H_1(A * B^c; Z/2) is a summand of H_1(F_n; Z/2), so the mod-2
    colors of A and B are independent."""
    if A.rank + B.rank > A.rank_ambient:
        return "rank sum exceeds ambient rank"
    if colors_meet(A, B):
        return "mod-2 colors intersect"
    return None


def _joined(A, B, c):
    return [*A.gens(), *(c * w * ~c for w in B.gens())]


def split_by(A, B, c):
    """The free-factor verdict on <A, B^c> when it is a free factor A * B^c,
    else None.  Rank rank A + rank B makes <A, B^c> the free product, since
    free groups are Hopfian."""
    H = factor_class(_joined(A, B, c))
    if H.rank != A.rank + B.rank:
        return None
    res = is_free_factor(H)
    return res if res.is_factor else None


def find_disjoint_conjugator(A, B):
    """A conjugator c that splits A and B (see split_by), or None when none
    does: disjointness_obstruction first, then the pair descends
    (stallings.descend) to an orbit-minimal pair.  That pair is two
    sub-roses on disjoint letters I, J exactly when A and B split, since
    sub-roses sharing a letter x meet in <x>.  The descent phi carries
    P = phi^-1<x_I> and Q = phi^-1<x_J> into one free factor; the class
    frames give A = u P u^-1 and B = v Q v^-1, so c = u v^-1 makes
    <A, B^c> = u <P, Q> u^-1.  A c that fails split_by raises RuntimeError."""
    if disjointness_obstruction(A, B) is not None:
        return None
    (A1, B1), chain = descend((A, B))
    if not (A1.is_sub_rose() and B1.is_sub_rose()):
        return None
    labels_a, labels_b = A1.sub_rose_labels(), B1.sub_rose_labels()
    if set(labels_a) & set(labels_b):
        return None
    phi = Automorphism.identity(A.rank_ambient)
    for move in chain:
        phi = move * phi
    inv = invert_automorphism(phi).images

    def frame(F, labels):
        sub = [inv[i - 1] for i in labels]
        return class_frame(F.gens()) * ~class_frame(sub)

    c = frame(A, labels_a) * ~frame(B, labels_b)
    if split_by(A, B, c) is None:
        raise RuntimeError("the conjugator read off the minimal pair does "
                           "not split it")
    return c


def splitting_witness(A, B, c):
    """Witness graph for the splitting F_n = A * B^c * C that c gives:
    petals for A and C at one vertex, petals for B^c at another, joined by
    an edge.

    The inverse of the reduction witness of H = <A, B^c> carries the
    standard sub-rose onto a conjugate e^-1 H e, and e is read off the
    canonical frames of the two; its remaining images, conjugated by e,
    span the complement C.  A witness that fails its check is a bug and
    raises RuntimeError."""
    res = split_by(A, B, c)
    if res is None:
        raise ValueError("the conjugator does not split the pair")
    n = A.rank_ambient
    k = A.rank + B.rank
    gens = _joined(A, B, c)
    inv = res.witness_inverse.images
    e = class_frame(gens) * ~class_frame(inv[:k])
    comp = [e * w * ~e for w in inv[k:]]
    # petals for A and C at vertex 0, for B^c at vertex 1, then the bridge
    petals = ([(0, w) for w in gens[:A.rank] + comp]
              + [(1, w) for w in gens[A.rank:]])
    bridge = len(petals) + 1
    edges = [(eid, v, v) for eid, (v, _) in enumerate(petals, 1)]
    edges.append((bridge, 0, 1))
    marking = {eid: w for eid, (_, w) in enumerate(petals, 1)}
    marking[bridge] = Word.identity(n)
    witness = DisjointWitness(MarkedGraph(n, tuple(edges), marking),
                              frozenset(range(1, A.rank + 1)),
                              frozenset(range(bridge - B.rank, bridge)))
    try:
        witness.verify(A, B)
    except MarkingError as err:
        raise RuntimeError(f"splitting witness fails its check: {err}") from err
    return witness


# ---------------------------------------------------------------------------
# projections


def project_graph(A, G):
    """pi_A(G): the free factors of A cut out by one-edge collapses of the
    core of the A-cover of G."""
    if A.rank < 2:
        raise ValueError("projection lives in the factor complex of A; "
                         "need rank(A) >= 2")
    return one_edge_collapse_factors(cover_core(A, G))


def stabilizer_automorphisms(B, count, seed=0):
    """Automorphisms preserving the sub-rose factor <x_1..x_k> (k = rank B),
    used to resample marked graphs in which B stays embedded."""
    n = B.rank_ambient
    k = B.rank
    rng = random.Random(seed)
    gens = []
    # transvections inside the first k letters, inside the rest, and from
    # the B block onto the complement block
    for i in range(1, n + 1):
        for j in range(1, n + 1):
            if i == j:
                continue
            if i <= k and j > k:
                continue  # would push B outside itself
            images = []
            for t in range(1, n + 1):
                if t == j:
                    images.append(Word(n, free_reduce((t, i))))
                else:
                    images.append(Word(n, (t,)))
            gens.append(Automorphism(n, tuple(images)))
    out = []
    for _ in range(count):
        f = Automorphism.identity(n)
        for _ in range(rng.randint(1, 4)):
            f = rng.choice(gens) * f
        out.append(f)
    return out


def sample_graphs_with_embedded(B, samples=8, seed=0):
    """Marked graphs in which B is embedded: the adapted rose, a two-vertex
    blow-up, and images under B-preserving automorphisms.  The first two
    embed B by construction, so small sample counts stay cheap even for
    large factors."""
    G0 = adapted_rose(B)
    n = B.rank_ambient
    k = B.rank
    # blow-up: B petals at one vertex, the rest at another
    edges = []
    marking = {}
    for i in range(1, n + 1):
        v = 0 if i <= k else 1
        edges.append((i, v, v))
        marking[i] = G0.marking[i]
    edges.append((n + 1, 0, 1))
    marking[n + 1] = Word.identity(n)
    graphs = [G0, MarkedGraph(n, tuple(edges), marking)]
    for f in stabilizer_automorphisms(B, max(samples - 2, 0), seed=seed):
        graphs.append(transformed(G0, f))
    return graphs[:samples] if samples >= 2 else graphs[:1]


def project_factor(A, B, samples=8, seed=0):
    """pi_A(B): union of pi_A(G) over sampled marked graphs where B is
    embedded.  Empty exactly when A is nested in B or B is disjoint from A
    (such classes fail to project)."""
    if (contained_up_to_conjugacy(A, B)
            or find_disjoint_conjugator(A, B) is not None):
        return set()
    out = set()
    for G in sample_graphs_with_embedded(B, samples=samples, seed=seed):
        imm = cover_core(B, G)
        if not imm.is_embedding():
            continue
        out |= project_graph(A, G)
    return out


def restriction(f, A):
    """The induced automorphism of A's free group when f(A) = A as classes.

    The conjugator is found exactly: the canonical basepoint of the folded
    graph of f(A) reads off d with f(A_0) = d A_0 d^{-1}, no search needed.
    Returns (automorphism r of F_rank(A), conjugator d); projections move
    along f by r, pi_A(f X) = r . pi_A(X), in A's frame.
    """
    if apply_to_factor(f, A) != A:
        raise ValueError("f does not preserve A as a conjugacy class")
    d = class_frame([f(w) for w in A.gens()])
    expr = Expression(A.gens())
    images = []
    for w in A.gens():
        img = expr.express(~d * f(w) * d)
        if img is None:
            raise RuntimeError("conjugated image fell outside A (marking bug)")
        images.append(img)
    return Automorphism(A.rank, tuple(images)), d


# ---------------------------------------------------------------------------
# distances in factor complexes


# the seeded pool of factors that bounds distances from above for m >= 3,
# and the depth at which its search stops
POOL_SEED = 0
POOL_SIZE = 60
MAX_DEPTH = 6


def factor_complex_distance(X, Y):
    """Distance between vertices of the free factor complex of F_m.

    Exact (Farey) for m = 2.  For higher rank returns (lower, upper): the
    lower bound comes from containment certificates, the upper from a
    breadth-first search to depth MAX_DEPTH over a seeded pool of factors
    (None when it does not reach Y), whose edges join factors of different
    ranks nested either way.
    """
    m = X.rank_ambient
    if m == 2:
        d = farey_distance_classes(X, Y)
        return (d, d)
    if X == Y:
        return (0, 0)
    if contained_up_to_conjugacy(X, Y) or contained_up_to_conjugacy(Y, X):
        return (1, 1)
    path = bfs_path(X, Y, _factor_pool(m, [X, Y]), _nested,
                    max_depth=MAX_DEPTH)
    return (2, None if path is None else len(path) - 1)


def _nested(F, H):
    """Whether F and H are joined in the free factor complex: they have
    different ranks and one lies in the other up to conjugacy."""
    return F.rank != H.rank and (contained_up_to_conjugacy(F, H)
                                 or contained_up_to_conjugacy(H, F))


def _factor_pool(m, seeds):
    """Up to POOL_SIZE factors of F_m, sorted by code: the seeds, the
    standard sub-roses, and seeded random automorphic images of members."""
    rng = random.Random(POOL_SEED)
    pool = set(seeds)
    for k in range(1, m):
        pool.add(factor_class([Word(m, (i,)) for i in range(1, k + 1)]))
    tries = 0
    while len(pool) < POOL_SIZE and tries < POOL_SIZE * 6:
        tries += 1
        f = random_automorphism(m, rng, length=3)
        base = rng.choice(sorted(pool, key=lambda F: F.code))
        pool.add(apply_to_factor(f, base))
    return sorted(pool, key=lambda F: F.code)


def factor_distance(A, X_set, Y_set):
    """d_A(X, Y): diameter of the union of two projection sets in the
    factor complex of A.  Exact when rank(A) = 2; otherwise a
    (lower, upper) interval using pool BFS."""
    both = list(X_set) + list(Y_set)
    if not both:
        raise ValueError("empty projection sets")
    lo, hi = 0, 0
    for i in range(len(both)):
        for j in range(i + 1, len(both)):
            l, u = factor_complex_distance(both[i], both[j])
            lo = max(lo, l)
            hi = None if u is None or hi is None else max(hi, u)
    return (lo, hi)


# ---------------------------------------------------------------------------
# classification


class Classification:
    # every verdict is decided: by containment, by a verified splitting, by
    # an obstruction, or by peak reduction of the pair
    certified = True

    def __init__(self, kind, detail="", witness=None):
        self.kind = kind  # "contained_in", "contains", "disjoint", "overlap"
        self.detail = detail
        self.witness = witness  # DisjointWitness

    def to_json(self):
        d = {"verdict": self.kind, "certified": self.certified,
             "detail": self.detail}
        if self.witness is not None:
            d["certificate"] = {
                "graph": self.witness.graph.to_json(),
                "a_edges": sorted(self.witness.a_eids),
                "b_edges": sorted(self.witness.b_eids),
            }
        return d


def classify_pair(A, B):
    """Trichotomy for a pair of free factors: contained (either way, up to
    conjugacy), disjoint (with a verified witness), or overlapping."""
    if A.rank_ambient != B.rank_ambient:
        raise ValueError("ambient rank mismatch")
    if A == B:
        return Classification("contained_in", "equal classes")
    if contained_up_to_conjugacy(A, B):
        return Classification("contained_in", "A in B")
    if contained_up_to_conjugacy(B, A):
        return Classification("contains", "B in A")
    reason = disjointness_obstruction(A, B)
    if reason is not None:
        return Classification("overlap", reason)
    c = find_disjoint_conjugator(A, B)
    if c is None:
        return Classification("overlap", "peak reduction (Gersten 1984): "
                              "the orbit-minimal pair is not two sub-roses "
                              "on disjoint letters")
    return Classification("disjoint", "splitting found",
                          splitting_witness(A, B, c))


def behrstock_check(A, B, G, samples=8, seed=0):
    """The two coordinates of the consistency inequality for an overlapping
    pair: d_A(G, B) and d_B(G, A).  Returns exact values for rank-2 factors
    and upper bounds otherwise, as (dA, dB)."""
    pa_g = project_graph(A, G)
    pb_g = project_graph(B, G)
    pa_b = project_factor(A, B, samples=samples, seed=seed)
    pb_a = project_factor(B, A, samples=samples, seed=seed)
    if not pa_b or not pb_a:
        raise ValueError("empty projection; factors may not overlap")
    da = factor_distance(A, pa_g, pa_b)
    db = factor_distance(B, pb_g, pb_a)
    uppers = [u for u in (da[1], db[1]) if u is not None]
    return da, db, (min(uppers) if uppers else None)
