"""Independent checks that several test modules share: subgroup membership
read off a folded graph, Farey adjacency of slopes, the Farey distance by
recursion, the conjugator search in both directions, the bounded filling
scan, the Whitehead moves filtered from all of them, the pool search
over a full nesting table, and the folding kernel as it was before it
folded from the basepoint alone."""

import itertools
from collections import deque
from functools import lru_cache


def contains_element(graph, w):
    """Whether w lies in the subgroup of a folded based graph: the unique
    path from the basepoint that reads w exists and closes up."""
    assert graph.basepoint is not None, "graph must be based"
    out = graph.out_map()
    inn = graph.in_map()
    cur = graph.basepoint
    for x in w.letters:
        cur = out.get((cur, x)) if x > 0 else inn.get((cur, -x))
        if cur is None:
            return False
    return cur == graph.basepoint


def farey_adjacent(v, w):
    """Slopes p/q and r/s are Farey neighbours when ps - qr = +-1."""
    p, q = v
    r, s = w
    return abs(p * s - q * r) == 1


@lru_cache(maxsize=None)
def dist_to_infinity(r, s):
    """Distance from (r, s) to (1, 0) in the Farey graph, by branching
    over the two nearest-integer continued fraction steps.  It recurses
    once per step, so it suits small entries only."""
    if s < 0:
        r, s = -r, -s
    if s == 0:
        return 0
    if s == 1:
        return 1
    best = None
    for n in {r // s, -((-r) // s)}:
        d = 1 + dist_to_infinity(s, r - n * s)
        if best is None or d < best:
            best = d
    return best


def splits_both_ways(A, B, max_conj_len):
    """Whether some conjugator of length <= max_conj_len splits A and B,
    searched in both directions: <A, B^c> and then <B, A^c> a free factor
    of rank rank A + rank B, with rank n compared to F_n itself."""
    from subfactor.stallings import factor_class, is_free_factor
    from subfactor.words import Word

    n = A.rank_ambient
    if A.rank + B.rank > n:
        return False
    whole = factor_class([Word(n, (i,)) for i in range(1, n + 1)])
    for X, Y in ((A, B), (B, A)):
        for c in _short_words(n, max_conj_len):
            H = factor_class(list(X.gens()) + [c * w * ~c for w in Y.gens()])
            if H.rank != X.rank + Y.rank:
                continue
            if H.rank == n:
                if H == whole:
                    return True
            elif is_free_factor(H).is_factor:
                return True
    return False


def _short_words(rank, max_len):
    """Every reduced word of length <= max_len, shortest first."""
    from subfactor.words import Word

    out = [Word.identity(rank)]
    frontier = [()]
    for _ in range(max_len):
        nxt = []
        for t in frontier:
            for x in range(-rank, rank + 1):
                if x == 0 or (t and t[-1] == -x):
                    continue
                s = t + (x,)
                nxt.append(s)
                out.append(Word(rank, s))
        frontier = nxt
    return out


def fill_scan(A, B, s):
    """The first rank-1 class disjoint from both A and B among cyclic words
    of length <= s, or None: the bounded scan that fill_check ran on every
    pair before corank-1 pairs were decided exactly.  A word is decided by
    the crossing test on a corank-1 side, by find_disjoint_conjugator
    otherwise."""
    from subfactor.complex_cn import corank1_tester
    from subfactor.projection import find_disjoint_conjugator
    from subfactor.stallings import factor_class
    from subfactor.words import cyclic_words

    sides = [(F, corank1_tester(F)) for F in (A, B)]
    for w in cyclic_words(A.rank_ambient, s):
        if all(test(w) if test is not None else
               find_disjoint_conjugator(F, factor_class([w])) is not None
               for F, test in sides):
            return factor_class([w])
    return None


def whitehead_reference(rank):
    """(all Whitehead automorphisms, the non-identity type II ones) as they
    were built before the type II moves were generated on their own: every
    signed permutation and every type II choice, the identity included,
    deduplicated with the first wins, and the type II moves filtered back
    out of the whole list."""
    from subfactor.words import Automorphism, Word

    seen = {}

    def add(images, cut=None):
        key = tuple(w.letters for w in images)
        if key not in seen:
            seen[key] = Automorphism(rank, tuple(images))
            object.__setattr__(seen[key], "_cut", cut)

    for perm in itertools.permutations(range(1, rank + 1)):
        for signs in itertools.product((1, -1), repeat=rank):
            add([Word(rank, (s * p,)) for p, s in zip(perm, signs)])
    for g in range(1, rank + 1):
        for e in (1, -1):
            a = Word(rank, (e * g,))
            others = [i for i in range(1, rank + 1) if i != g]
            for choice in itertools.product(range(4), repeat=rank - 1):
                images = [None] * rank
                images[g - 1] = Word(rank, (g,))
                for i, c in zip(others, choice):
                    x = Word(rank, (i,))
                    images[i - 1] = (x, x * a, ~a * x, ~a * x * a)[c]
                cut = {e * g}
                cut.update(i for i, c in zip(others, choice) if c & 1)
                cut.update(-i for i, c in zip(others, choice) if c & 2)
                add(images, (frozenset(cut), e * g))
    moves = list(seen.values())
    return moves, [phi for phi in moves
                   if not all(len(w) == 1 for w in phi.images)]


def pool_distance(pool, X, Y, max_depth):
    """Breadth-first distance from X to Y within max_depth steps over a
    pool of factor classes, or None: the nesting relation (different ranks,
    contained up to conjugacy either way) is tabulated for every pair of
    the pool first, as the projection module did before its search asked
    only for the pairs it reaches."""
    from subfactor.stallings import contained_up_to_conjugacy

    adj = {F: [] for F in pool}
    items = sorted(pool, key=lambda F: F.code)
    for i, F in enumerate(items):
        for H in items[i + 1:]:
            if F.rank != H.rank and (
                contained_up_to_conjugacy(F, H)
                or contained_up_to_conjugacy(H, F)
            ):
                adj[F].append(H)
                adj[H].append(F)
    q = deque([(X, 0)])
    seen = {X}
    while q:
        F, d = q.popleft()
        if F == Y:
            return d
        if d >= max_depth:
            continue
        for H in adj[F]:
            if H not in seen:
                seen.add(H)
                q.append((H, d + 1))
    return None


def fold_all_vertices(b):
    """GraphBuilder.fold as it was when its worklist started from every
    vertex of the builder, not from the basepoint alone."""
    from subfactor.stallings import find

    parent = {v: v for v in b.vertices}
    incident = {v: set() for v in b.vertices}
    for e, rec in b.edges.items():
        incident[rec[0]].add(e)
        incident[rec[1]].add(e)
    b._incident = incident
    b._parent = parent
    pending = list(b.vertices)
    while pending:
        v = pending.pop()
        if find(parent, v) != v:
            continue
        out = {}
        inn = {}
        pair = None
        for e in list(incident[v]):
            rec = b.edges.get(e)
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
        eu, ev, _, ep = b.edges[e]
        fu, fv, _, fp = b.edges[f]
        if side == "out":
            x, y = find(parent, ev), find(parent, fv)
        else:
            x, y = find(parent, eu), find(parent, fu)
        base = (find(parent, b.basepoint)
                if b.basepoint is not None else None)
        if ep is not None and x != y:
            if y != base:
                b._gauge(y, ~fp * ep if side == "out" else fp * ~ep)
            else:
                b._gauge(x, ~ep * fp if side == "out" else ep * ~fp)
        del b.edges[f]
        incident[v].discard(f)
        if x != y:
            keep, drop = (x, y) if y != base else (y, x)
            parent[drop] = keep
            incident[keep] |= incident.pop(drop, set())
            b.vertices.discard(drop)
            if b.basepoint == drop:
                b.basepoint = keep
            pending.append(keep)
        pending.append(v)
    for rec in b.edges.values():
        rec[0] = find(parent, rec[0])
        rec[1] = find(parent, rec[1])
    b.vertices = {v for v in b.vertices if find(parent, v) == v}
    if b.basepoint is not None:
        b.basepoint = find(parent, b.basepoint)
    del b._incident
    del b._parent


def tree_data_rereduced(graph):
    """stallings._tree_data as it was when every vertex's path was freely
    reduced again from the basepoint."""
    from subfactor.stallings import spanning_tree
    from subfactor.words import _word, free_reduce

    paths, tree = spanning_tree(graph.basepoint, graph.edges)
    path = {x: _word(graph.rank, free_reduce(s * label for label, s in p))
            for x, p in paths.items()}
    return path, tree


def factor_class_via_based(gens):
    """stallings.factor_class as it was: the based core graph of the
    bouquet, then without_basepoint on a copy of it."""
    from subfactor.stallings import FactorClass, subgroup_graph

    core = subgroup_graph(gens).without_basepoint()
    return FactorClass(rank_ambient=core.rank, core=core,
                       rank=core.graph_rank())
