"""Independent checks of the program's answers.

Nothing here imports the program.  Words are tuples of nonzero signed
generator indices (``2`` is the second generator, ``-2`` its inverse), the
same convention the program's text format encodes, and every computation
(free reduction, folding, Whitehead descent, Farey breadth-first search) is
written out again so that a fault in the program cannot hide in its own
check.
"""

from __future__ import annotations

import itertools
import string
from collections import deque
from math import gcd


class CheckFailed(AssertionError):
    """An answer of the program disagrees with the independent check."""


def require(cond, message):
    if not cond:
        raise CheckFailed(message)


# ---------------------------------------------------------------------------
# words


def reduce_word(letters):
    out = []
    for x in letters:
        if out and out[-1] == -x:
            out.pop()
        else:
            out.append(x)
    return tuple(out)


def inverse(w):
    return tuple(-x for x in reversed(w))


def substitute(images, w):
    """Image of w under the homomorphism x_i -> images[i-1]."""
    out = []
    for x in w:
        out.extend(images[x - 1] if x > 0 else inverse(images[-x - 1]))
    return reduce_word(out)


def compose(f, g):
    """Images of f o g (apply g first)."""
    return tuple(substitute(f, w) for w in g)


def parse_word(text):
    letters = []
    for ch in text:
        if ch in string.ascii_lowercase:
            letters.append(string.ascii_lowercase.index(ch) + 1)
        elif ch in string.ascii_uppercase:
            letters.append(-(string.ascii_uppercase.index(ch) + 1))
        else:
            raise CheckFailed(f"bad letter {ch!r} in {text!r}")
    w = tuple(letters)
    require(w == reduce_word(w), f"{text!r} is not freely reduced")
    return w


def format_word(w):
    return "".join(string.ascii_lowercase[x - 1] if x > 0 else
                   string.ascii_uppercase[-x - 1] for x in w)


def abelian(w, n):
    vec = [0] * n
    for x in w:
        vec[abs(x) - 1] += 1 if x > 0 else -1
    return tuple(vec)


# ---------------------------------------------------------------------------
# automorphisms built from Whitehead moves


def identity(n):
    return tuple((i,) for i in range(1, n + 1))


def whitehead_moves(n):
    """Type II Whitehead automorphisms of F_n with a nontrivial action: a
    multiplier a = x_g^e is fixed, every other generator x goes to one of
    x, x a, a^-1 x, a^-1 x a."""
    moves = []
    for g in range(1, n + 1):
        for e in (1, -1):
            a = e * g
            others = [i for i in range(1, n + 1) if i != g]
            for choice in itertools.product(range(4), repeat=n - 1):
                if not any(choice):
                    continue
                images = list(identity(n))
                for i, c in zip(others, choice):
                    images[i - 1] = ((i,), (i, a), (-a, i), (-a, i, a))[c]
                moves.append(tuple(images))
    return moves


def signed_permutations(n):
    out = []
    for perm in itertools.permutations(range(1, n + 1)):
        for signs in itertools.product((1, -1), repeat=n):
            out.append(tuple((s * p,) for p, s in zip(perm, signs)))
    return out


def random_automorphism(n, rng, length):
    """A product of `length` random type II Whitehead moves, then a random
    signed permutation."""
    moves = whitehead_moves(n)
    phi = identity(n)
    for _ in range(length):
        phi = compose(rng.choice(moves), phi)
    return compose(rng.choice(signed_permutations(n)), phi)


# ---------------------------------------------------------------------------
# Stallings folding


def core_graph(gens):
    """Folded core of the subgroup generated by gens, without basepoint:
    a set of edges (u, label, v) with label > 0."""
    parent = {}

    def find(x):
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    edges = set()
    fresh = itertools.count(1)
    parent[0] = 0
    for w in gens:
        cur = 0
        for i, x in enumerate(w):
            nxt = 0 if i == len(w) - 1 else next(fresh)
            parent[nxt] = nxt
            edges.add((cur, x, nxt) if x > 0 else (nxt, -x, cur))
            cur = nxt
    # fold: two edges with the same label leaving (or entering) one vertex
    # are identified until none remain
    changed = True
    while changed:
        changed = False
        edges = {(find(u), label, find(v)) for u, label, v in edges}
        step = {}  # (vertex, signed label) -> the vertex it leads to
        for u, label, v in sorted(edges):
            for key, other in (((u, label), v), ((v, -label), u)):
                seen = step.setdefault(key, other)
                if find(seen) != find(other):
                    parent[find(seen)] = find(other)
                    changed = True
    # trim vertices of valence below two
    while True:
        valence = {}
        for u, _, v in edges:
            valence[u] = valence.get(u, 0) + 1
            valence[v] = valence.get(v, 0) + 1
        dead = {x for x, k in valence.items() if k < 2}
        if not dead:
            return edges
        edges = {e for e in edges if e[0] not in dead and e[2] not in dead}


def graph_vertices(edges):
    return {u for u, _, _ in edges} | {v for _, _, v in edges}


def is_sub_rose(gens, labels=None):
    """Whether <gens> is conjugate to the subgroup generated by the
    generators in `labels` (by default any set of distinct generators)."""
    edges = core_graph(gens)
    if len(graph_vertices(edges)) != 1:
        return False
    got = sorted(label for _, label, _ in edges)
    if len(got) != len(set(got)):
        return False
    return labels is None or got == sorted(labels)


def _adjacency(edges):
    adj = {}
    for u, label, v in edges:
        adj.setdefault(u, {})[label] = v
        adj.setdefault(v, {})[-label] = u
    return adj


def same_class(gens1, gens2):
    """Whether two subgroups are conjugate: their folded cores are
    isomorphic as labelled graphs.  A folded graph reads each signed label at
    most once at a vertex, so an isomorphism is fixed by the image of one
    vertex."""
    e1, e2 = core_graph(gens1), core_graph(gens2)
    if len(e1) != len(e2):
        return False
    adj1, adj2 = _adjacency(e1), _adjacency(e2)
    if len(adj1) != len(adj2):
        return False
    if not adj1:
        return True
    start = min(adj1)
    for target in adj2:
        image = {start: target}
        todo = [start]
        ok = True
        while todo and ok:
            x = todo.pop()
            for label, z in adj1[x].items():
                t = adj2[image[x]].get(label)
                if t is None or image.get(z, t) != t:
                    ok = False
                    break
                if z not in image:
                    image[z] = t
                    todo.append(z)
        if ok and len(set(image.values())) == len(adj1):
            return True
    return False


def is_basis(images):
    n = len(images)
    return is_sub_rose(images, range(1, n + 1))


def decide_free_factor(gens, n, max_steps=400):
    """Greedy Whitehead descent on core edge count.  By Gersten's theorem a
    core whose edge count no Whitehead automorphism lowers has the least
    edge count in its orbit, and a free factor's orbit contains a sub-rose,
    so the descent decides.  Returns True, False, or None if max_steps ran
    out."""
    moves = whitehead_moves(n)
    cur = [w for w in gens if w]
    size = len(core_graph(cur))
    for _ in range(max_steps):
        if is_sub_rose(cur):
            return True
        for phi in moves:
            cand = [substitute(phi, w) for w in cur]
            k = len(core_graph(cand))
            if k < size:
                cur, size = cand, k
                break
        else:
            return False
    return None


# ---------------------------------------------------------------------------
# the Farey graph


def normalize_slope(v):
    p, q = v
    if p < 0 or (p == 0 and q < 0):
        return (-p, -q)
    return (p, q)


def _xgcd(a, b):
    old_r, r, old_s, s, old_t, t = a, b, 1, 0, 0, 1
    while r:
        quo = old_r // r
        old_r, r = r, old_r - quo * r
        old_s, s = s, old_s - quo * s
        old_t, t = t, old_t - quo * t
    if old_r < 0:
        old_r, old_s, old_t = -old_r, -old_s, -old_t
    return old_r, old_s, old_t


def farey_neighbors(v, cap):
    """Normalized slopes w with |det(v, w)| = 1 and entries of size <= cap.
    They lie on the two lines w = +-(w0 + t v) for one solution w0."""
    p, q = v
    _, x, y = _xgcd(p, q)
    r0, s0 = -y, x  # p*s0 - q*r0 = 1
    m = max(abs(p), abs(q))
    out = set()
    span = 2 * cap // m + 2
    for t in range(-span, span + 1):
        r, s = r0 + t * p, s0 + t * q
        if max(abs(r), abs(s)) <= cap:
            out.add(normalize_slope((r, s)))
    return out


def farey_bfs(v, w):
    """Farey graph distance by breadth-first search inside a box large
    enough to hold a geodesic (twice the larger entry, plus two)."""
    v, w = normalize_slope(v), normalize_slope(w)
    require(gcd(*v) == 1 and gcd(*w) == 1, "slopes must be primitive")
    if v == w:
        return 0
    cap = 2 * max(abs(x) for x in v + w) + 2
    seen = {v}
    frontier = deque([(v, 0)])
    while frontier:
        cur, d = frontier.popleft()
        for nxt in farey_neighbors(cur, cap):
            if nxt == w:
                return d + 1
            if nxt not in seen:
                seen.add(nxt)
                frontier.append((nxt, d + 1))
    raise CheckFailed(f"no Farey path from {v} to {w}")


def farey_diameter(slopes):
    slopes = sorted(set(normalize_slope(s) for s in slopes))
    return max((farey_bfs(a, b) for a, b in itertools.combinations(slopes, 2)),
               default=0)


def random_sl2(rng, steps=3):
    """A product of random powers of the generators T = [[1, 1], [0, 1]]
    and S = [[0, -1], [1, 0]] of SL_2(Z)."""
    m = ((1, 0), (0, 1))
    for _ in range(steps):
        t = rng.randint(-3, 3)
        m = ((m[0][0] + t * m[1][0], m[0][1] + t * m[1][1]), m[1])
        m = ((-m[1][0], -m[1][1]), m[0])
    return m


def sl2_image(m, v):
    (a, b), (c, d) = m
    p, q = v
    return (a * p + b * q, c * p + d * q)


def fibonacci_pair(digits):
    """The slope (F_{k+1}, F_k) of consecutive Fibonacci numbers, F_k the
    first with at least `digits` digits: its continued fraction, all ones,
    is the longest for its size."""
    a, b = 1, 1
    while len(str(a)) < digits:
        a, b = b, a + b
    return (b, a)
