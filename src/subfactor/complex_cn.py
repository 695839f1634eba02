"""The graph of rank-1 free factor classes: vertices are primitive
conjugacy classes, edges join classes with representatives spanning a
rank-2 free factor.  Includes the X_A sets of vertices disjoint from a
factor A, bounded distance estimation, and the chain-progress verifier.

Edges and X-set membership are decided exactly; the graph is locally
infinite, so only enumeration is bounded, by cyclic word length.
"""

from __future__ import annotations

from math import gcd

from .projection import (
    factor_distance,
    find_disjoint_conjugator,
    project_factor,
    restriction,
    split_by,
)
from .stallings import apply_to_factor, bfs_path, factor_class, is_free_factor
from .words import (
    abelianize,
    cyclic_reduce,
    cyclic_words,
    is_cyclically_reduced,
)


def is_primitive(w):
    """Whether the cyclic class of w generates a rank-1 free factor."""
    if not w:
        raise ValueError("trivial word")
    if not is_cyclically_reduced(w):
        raise ValueError("expect a cyclically reduced word")
    if gcd(*abelianize(w)) != 1:
        return False
    return is_free_factor(factor_class([w])).is_factor


def cvertex(w):
    """The rank-1 factor class of a primitive word."""
    if not is_primitive(w):
        raise ValueError("word is not primitive")
    return factor_class([w])


class EdgeResult:
    certified = True  # a conjugator, or the exact decision that none exists

    def __init__(self, connected, conjugator=None):
        self.connected = connected
        self.conjugator = conjugator

    def __bool__(self):
        return self.connected


_edge_cache = {}


def is_cn_edge(u, v):
    """Edge test: do u and v admit representatives spanning a rank-2 free
    factor?  Decided exactly by find_disjoint_conjugator: a positive answer
    carries its conjugator, a negative one rests on an obstruction or on
    peak reduction of the pair.  Results are memoized by class codes
    (decisions dominate BFS cost)."""
    if u.rank != 1 or v.rank != 1:
        raise ValueError("vertices must be rank-1 factors")
    if u == v:
        raise ValueError("same class")
    if u.rank_ambient != v.rank_ambient:
        raise ValueError("ambient rank mismatch")
    key = (u.rank_ambient,) + tuple(sorted((u.code, v.code)))
    hit = _edge_cache.get(key)
    if hit is not None:
        return hit
    c = find_disjoint_conjugator(u, v)
    res = EdgeResult(c is not None, c)
    _edge_cache[key] = res
    return res


# ---------------------------------------------------------------------------
# enumeration of small vertices


def enumerate_cvertices(rank, max_len, cap=None):
    """Primitive classes with cyclic word length <= max_len, deduplicated
    by canonical code, in deterministic order."""
    seen = set()
    out = []
    for w in cyclic_words(rank, max_len):
        if gcd(*abelianize(w)) != 1:
            continue
        F = factor_class([w])
        if F.code in seen:
            continue
        seen.add(F.code)
        if is_free_factor(F).is_factor:
            out.append((F, w))
            if cap is not None and len(out) >= cap:
                return out
    return out


# ---------------------------------------------------------------------------
# X_A


def corank1_tester(A, phi=None):
    """For a factor of rank n-1, disjointness from a rank-1 class is exact:
    move A to the sub-rose on the first n-1 letters by a Whitehead chain;
    a class is disjoint from A iff its image crosses the last letter
    exactly once (it is then a free complement, seen by Nielsen moves).
    A caller who already knows an automorphism carrying A to that sub-rose
    can pass it as phi to skip the Whitehead reduction.  None when A does
    not have corank 1; ValueError when A is not a free factor."""
    n = A.rank_ambient
    if A.rank != n - 1:
        return None
    if phi is None:
        res = is_free_factor(A)
        if not res.is_factor:
            raise ValueError("not a free factor")
        phi = res.witness

    def test(w):
        img, _ = cyclic_reduce(phi(w))
        return sum(1 for x in img.letters if abs(x) == n) == 1

    return test


class XSet:
    """The members (vertex, conjugator) found disjoint from the factor A.
    A set moved by translate_xset records its source set and the
    automorphism it moved along; an enumerated set has neither."""

    def __init__(self, factor, complexity_bound, members=None, source=None,
                 along=None):
        self.factor = factor
        self.complexity_bound = complexity_bound
        self.members = [] if members is None else members
        self.source = source
        self.along = along

    def vertices(self):
        return [v for v, _ in self.members]

    def diameter_upper(self):
        """Upper bound on the pairwise distance of members: every member is
        adjacent to the rank-1 factor of A's first generator (its
        disjointness conjugator is reused as the edge certificate), so the
        diameter is at most 2."""
        if len(self.members) < 2:
            return 0
        hub = factor_class([self.factor.gens()[0]])
        for v, c in self.members:
            if split_by(hub, v, c) is None:
                return None
        return 2 if len({v.code for v, _ in self.members}) > 1 else 0


def x_set(A, s=8, cap=24):
    """Vertices disjoint from A, each with a verified splitting conjugator,
    enumerated over cyclic words of length <= s (up to the member cap).
    Membership is exact (find_disjoint_conjugator).

    When A has corank 1 the candidates are pre-filtered by the exact
    crossing test (the witness image of a disjoint class crosses the last
    letter exactly once), so only members reach find_disjoint_conjugator."""
    if A.rank < 2:
        raise ValueError("rank(A) >= 2 required")
    n = A.rank_ambient
    if A.rank + 1 > n:
        return XSet(A, s, [])
    try:
        fast = corank1_tester(A)
    except ValueError:  # not a free factor: decide each class in full
        fast = None
    members = []
    for w in cyclic_words(n, s):
        if gcd(*abelianize(w)) != 1:
            continue
        if fast is not None and not fast(w):
            continue
        F = factor_class([w])
        if any(F == v for v, _ in members):
            continue
        c = find_disjoint_conjugator(A, F)
        if c is None:
            continue
        members.append((F, c))
        if len(members) >= cap:
            return XSet(A, s, members)
    return XSet(A, s, members)


# ---------------------------------------------------------------------------
# bounded distance


def cn_distance_bounds(u, v, s=6, pool=None):
    """(lower, upper, path) distance bounds between two vertices.

    The upper bound comes from a breadth-first search over a bounded pool
    of vertices (by default the first 30 of length <= s), every edge
    decided exactly; the path of classes achieving it is returned.  The
    lower bound is 0 or 1.
    """
    if u == v:
        return 0, 0, [u]
    if is_cn_edge(u, v):
        return 1, 1, [u, v]
    if pool is None:
        pool = [F for F, _ in enumerate_cvertices(u.rank_ambient, s, cap=30)]
    verts = {F.code: F for F in [*pool, u, v]}
    path = bfs_path(u, v, sorted(verts.values(), key=lambda F: F.code),
                    is_cn_edge)
    return 1, (None if path is None else len(path) - 1), path


# ---------------------------------------------------------------------------
# chain progress


class ChainReport:
    # on success every geodesic between the end X-sets meets all the
    # intermediate ones, so the chain length is a distance lower bound
    def __init__(self, ok, links, failures, details):
        self.ok = ok
        self.links = links
        self.failures = failures
        self.details = details


def chain_progress_verify(factors, s=5, m_emp=10, cap=10, conj_len=3,
                          samples=4, seed=0, xsets=None):
    """Verify the progress hypotheses on a chain of factors A_1..A_m:
    (1) consecutive X-sets share no vertex (on the sampled sets), and
    (2) for interior i, the projection distance d_{A_i} between members of
    the neighboring X-sets exceeds 2*m_emp.  The symbol for the projection
    target in hypothesis (2) is read as A_i.

    Callers holding certified X-sets already (for instance translated along
    an automorphism orbit, where direct enumeration finds no short members)
    can pass them as xsets, aligned with factors.  A neighbour set moved by
    translate_xset along an h with h(A_i) = A_i is projected by
    equivariance, pi_{h A}(h X) = h . pi_A(X) (Bestvina-Feighn, Subfactor
    projections, J. Topology 2014, extended in A note on subfactor
    projections, arXiv:1307.1495): its source's first member is projected,
    once per source, and the result is moved by the restriction of h to
    A_i.  The gap is then read off samples of the source's member rather
    than of its stretched image, so it is another sampled lower bound.
    conj_len is accepted and ignored: X-set membership is decided exactly,
    and bench/workloads.py still passes the keyword."""
    if len(factors) < 2:
        raise ValueError("need at least two factors")
    failures = []
    details = []
    if xsets is None:
        xsets = [x_set(A, s=s, cap=cap) for A in factors]
    if len(xsets) != len(factors):
        raise ValueError("xsets must align with factors")
    for i in range(len(factors) - 1):
        codes_a = {v.code for v in xsets[i].vertices()}
        codes_b = {v.code for v in xsets[i + 1].vertices()}
        shared = codes_a & codes_b
        if shared:
            failures.append((i, "X-sets share a vertex"))
        details.append(("disjoint-xsets", i, len(shared)))
    projected = {}  # (id of a source X-set, A) -> pi_A of its first member

    def project(A, xs):
        h = xs.along
        if h is None or apply_to_factor(h, A) != A:
            return project_factor(A, xs.vertices()[0], samples=samples,
                                  seed=seed)
        key = (id(xs.source), A)
        if key not in projected:
            projected[key] = project_factor(A, xs.source.vertices()[0],
                                            samples=samples, seed=seed)
        r = restriction(h, A)[0]
        return {apply_to_factor(r, F) for F in projected[key]}

    for i in range(1, len(factors) - 1):
        A = factors[i]
        if not xsets[i - 1].members or not xsets[i + 1].members:
            failures.append((i, "empty X-set sample"))
            continue
        pa = project(A, xsets[i - 1])
        pb = project(A, xsets[i + 1])
        if not pa or not pb:
            failures.append((i, "empty projection"))
            continue
        lo, hi = factor_distance(A, pa, pb)
        details.append(("projection-gap", i, lo, hi))
        if lo <= 2 * m_emp:
            failures.append((i, f"projection gap {lo} <= {2 * m_emp}"))
    return ChainReport(not failures, len(factors) - 1, failures, details)
