"""Independent checks that several test modules share: subgroup membership
read off a folded graph, Farey adjacency of slopes, the Farey distance by
recursion, the conjugator search in both directions, the bounded filling
scan, the Whitehead moves filtered from all of them, and the pool search
over a full nesting table."""

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
