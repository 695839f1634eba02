"""Ping-pong construction of candidate fully irreducible automorphisms:
filling checks for factor pairs (exact when both factors have corank 1, a
bounded scan of cyclic words otherwise), Farey translation estimates, the
chain windows with their X-sets, and bounded evidence searches for
invariant factors.

Nothing here proves full irreducibility; negative certificates (an explicit
invariant factor, or a class disjoint from both factors) are exact, and
positive support is an exhausted bounded search for invariant factors.
"""

from __future__ import annotations

from fractions import Fraction

from .complex_cn import XSet, corank1_tester, enumerate_cvertices, x_set
from .projection import (
    factor_distance,
    farey_distance,
    find_disjoint_conjugator,
    project_factor,
    restriction,
    slope,
)
from .stallings import (
    Expression,
    apply_to_factor,
    class_frame,
    components,
    factor_class,
    incidence,
    invert_automorphism,
    is_free_factor,
    subgroup_graph,
)
from .words import (
    Automorphism,
    Word,
    _cyclic_core,
    _cyclic_released,
    _inverse_letters,
    _join,
    _released,
    _word,
    cyclic_words,
    free_reduce,
)


# ---------------------------------------------------------------------------
# filling


class FillReport:
    inconclusive = 0  # every candidate is decided exactly

    def __init__(self, witnesses, bound=None, scanned=None):
        self.witnesses = witnesses  # a rank-1 class disjoint from both, or none
        self.bound = bound  # the scan's word length; None when decided exactly
        self.scanned = scanned  # words the scan tried; None when exact

    def __bool__(self):
        return bool(self.witnesses)


def fill_check(A, B, s=8, phi_b=None):
    """Look for a rank-1 class disjoint from both A and B; a witness
    refutes filling, so the search stops at the first one.

    When A and B both have rank n-1 the answer is exact (_corank1_witness)
    and the report carries no bound: an empty result means the pair fills.
    Otherwise cyclic words of length <= s are scanned, each decided exactly
    (by the crossing test on a corank-1 side, by find_disjoint_conjugator
    otherwise), and an empty result only means no class up to length s is
    disjoint from both.  phi_b is an optional automorphism carrying B to
    the sub-rose (see corank1_tester)."""
    if A.rank < 2 or B.rank < 2:
        raise ValueError("filling is about factors of rank >= 2")
    n = A.rank_ambient
    if A.rank == B.rank == n - 1:
        w = _corank1_witness(A, B, phi_b)
        return FillReport([] if w is None else [factor_class([w])])
    test_a = corank1_tester(A)
    test_b = corank1_tester(B, phi_b)
    scanned = 0
    for w in cyclic_words(n, s):
        scanned += 1
        if _disjoint_from(A, w, test_a) and _disjoint_from(B, w, test_b):
            return FillReport([factor_class([w])], s, scanned)
    return FillReport([], s, scanned)


def _disjoint_from(A, w, fast_test):
    """Whether the class of w is disjoint from A."""
    if fast_test is not None:
        return fast_test(w)
    return find_disjoint_conjugator(A, factor_class([w])) is not None


def _corank1_witness(A, B, phi_b):
    """A word whose class is disjoint from both A and B, or None when no
    rank-1 class is, for factors of rank n-1.  Exact; the cost is linear in
    the folded graph below plus the pairs of its vertices read from (q, p).

    Let a carry A to the sub-rose S on x_1..x_{n-1}.  A class is disjoint
    from A iff it is a^-1(x_n alpha) with alpha in S (the crossing test of
    corank1_tester; one sign of x_n suffices, as <w> = <w^-1>).  With
    theta = phi_b a^-1, H = theta(S) and t = theta(x_n), a witness is a
    t h, h in H, crossing x_n exactly once cyclically.  In the folded graph
    Gamma of H (Stallings, Invent. Math. 71, 1983) read t from the
    basepoint o as far as it goes, to p, and t^-1 likewise, to q, so that
    t = u m v with u read o -> p and v read q -> o.  Then t H is conjugate
    to m K, K the labels of walks q -> p.  When m is empty, the cyclic
    reduction of such a label w g w^-1 is a walk g: q.w -> p.w, so the
    classes are those of walks r -> s over the pairs (r, s) read from
    (q, p) by one word.  Cyclic reduction drops letters in inverse pairs,
    so a witness exists iff such a walk (from q to p when m is not empty)
    crosses x_n exactly 1 - |m|_{x_n} times: r and s lie in one component
    of Gamma less its x_n edges, or in two joined by one.  The witness
    a^-1(x_n alpha) is read back through H's basis, and both crossing
    tests re-check it."""
    n = A.rank_ambient
    res = is_free_factor(A)
    if not res.is_factor:
        raise ValueError("not a free factor")
    if phi_b is None:
        phi_b = _subrose_map(B)
    theta = phi_b * res.witness_inverse
    gens = [theta(Word(n, (i,))) for i in range(1, n)]
    t = theta(Word(n, (n,))).letters
    graph = subgroup_graph(gens)
    step = {v: {sign * x: u for x, sign, u in out}
            for v, out in incidence(graph.edges).items()}
    fwd = _trail(step, graph.basepoint, t)
    bwd = _trail(step, graph.basepoint, _inverse_letters(t))
    i = len(fwd) - 1
    j = min(len(bwd) - 1, len(t) - i)
    middle = t[i:len(t) - j]
    need = 1 - sum(1 for x in middle if abs(x) == n)
    if need < 0:
        return None
    # vertex -> (root, letters of a path root -> vertex) in Gamma less its
    # x_n edges, one spanning tree per component
    home = {}
    for paths, _ in components(graph.vertex_set(),
                               [e for e in graph.edges if e[2] != n]):
        root = min(paths)
        for v, path in paths.items():
            home[v] = (root, tuple(sign * x for x, sign in path))
    joins = {}
    for u, v, x in graph.edges:
        if x == n:
            joins.setdefault((home[u][0], home[v][0]), (u, x, v))
            joins.setdefault((home[v][0], home[u][0]), (v, -x, u))
    pairs = (_pair_orbit(step, bwd[j], fwd[i]) if not middle
             else [((bwd[j], fwd[i]), ())])
    for (r, s), w in pairs:
        if need == 0 and home[r][0] == home[s][0]:
            walk = _across(home, r, s)
        elif need == 1 and (home[r][0], home[s][0]) in joins:
            x, e, y = joins[home[r][0], home[s][0]]
            walk = _across(home, r, x) + (e,) + _across(home, y, s)
        else:
            continue
        # h = v^-1 (w walk w^-1) u^-1 in H, so t h = u (m k) u^-1
        h = _word(n, free_reduce(_inverse_letters(t[len(t) - j:]) + w + walk
                                 + _inverse_letters(w)
                                 + _inverse_letters(t[:i])))
        alpha = Expression(gens).express(h)
        witness = res.witness_inverse(Word(n, (n,) + alpha.letters))
        if not (corank1_tester(A, res.witness)(witness)
                and corank1_tester(B, phi_b)(witness)):
            raise RuntimeError("exact fill witness failed a crossing test")
        return witness
    return None


def _trail(step, v, letters):
    """The vertices along the longest prefix of letters readable from v."""
    out = [v]
    for x in letters:
        v = step[v].get(x)
        if v is None:
            break
        out.append(v)
    return out


def _across(home, r, s):
    """Letters of a path r -> s inside one component of the graph less its
    x_n edges (see _corank1_witness)."""
    return _inverse_letters(home[r][1]) + home[s][1]


def _pair_orbit(step, q, p):
    """The pairs (q.w, p.w) over words w readable from both q and p, each
    with its w, breadth first."""
    seen = {(q, p)}
    frontier = [((q, p), ())]
    while frontier:
        nxt = []
        for (r, s), w in frontier:
            yield (r, s), w
            for x, r2 in sorted(step[r].items()):
                s2 = step[s].get(x)
                if s2 is not None and (r2, s2) not in seen:
                    seen.add((r2, s2))
                    nxt.append(((r2, s2), w + (x,)))
        frontier = nxt


# ---------------------------------------------------------------------------
# translation estimates (rank-2, Farey-exact)


K_MAX = 8  # the largest power whose Farey displacement is measured


def translation_estimate(h):
    """An upper bound on the stable translation rate of h on the Farey
    graph: the worst seed's best distance-per-power ratio d(v, h^k v)/k
    over k <= K_MAX.  By subadditivity, d(v, h^(jk) v) <= j d(v, h^k v), so
    every such ratio is at least the stable rate lim d(v, h^k v)/k.  Zero
    whenever h fixes one of the seed vertices.  Slopes are read off the
    images directly, as abelianization does not see conjugation."""
    if h.rank != 2:
        raise ValueError("Farey estimates need a rank-2 automorphism")
    seeds = [Word(2, (1,)), Word(2, (2,)), Word(2, (1, 2))]
    best = None
    for seed in seeds:
        v0 = slope(seed)
        cur = seed
        rate = Fraction(0)
        for k in range(1, K_MAX + 1):
            cur = h(cur)
            rate = max(rate, Fraction(farey_distance(v0, slope(cur)), k))
        if best is None or rate < best:
            best = rate
    return best


def choose_power(rate, m_emp, d_emp):
    """Smallest power N (by doubling) with rate * N > 2*m_emp + 4*d_emp."""
    if rate <= 0:
        raise ValueError("zero translation estimate; restriction not suitable")
    threshold = 2 * m_emp + 4 * d_emp
    N = 1
    while rate * N <= threshold:
        N *= 2
    return N


# ---------------------------------------------------------------------------
# syllable algebra


def syllable_reduce(syllables):
    """Normal form of a word in the free product of <f> and <g>: merge
    adjacent syllables with the same symbol, drop zero exponents."""
    out = []
    for sym, e in syllables:
        if e == 0:
            continue
        if out and out[-1][0] == sym:
            merged = out[-1][1] + e
            out.pop()
            if merged:
                out.append((sym, merged))
        else:
            out.append((sym, e))
    return out


# ---------------------------------------------------------------------------
# ping-pong


class PingPongSpec:
    def __init__(self, f, g, A, B, N, psi=None, psi_inv=None, fill=None):
        self.f = f
        self.g = g
        self.A = A  # FactorClass
        self.B = B
        self.N = N
        self.psi = psi  # carries A to B when known (g = psi f psi^-1)
        self.psi_inv = psi_inv
        self.fill = fill  # FillReport

    def _once(self, name, make):
        """The attribute name, set to make(self) on first use."""
        if name not in self.__dict__:
            self.__dict__[name] = make(self)
        return self.__dict__[name]

    def inverse(self, sym):
        """f^-1 or g^-1 (sym "f" or "g"), inverted exactly on first use."""
        return self._once("_inverse_" + sym, lambda spec: invert_automorphism(
            getattr(spec, sym)))

    def power(self, sym, e):
        """sym^e for sym "f" or "g", through the exact inverse when e < 0,
        computed on first use."""
        return self._once(f"_{sym}^{e}", lambda spec: (
            getattr(spec, sym) if e > 0 else spec.inverse(sym)) ** abs(e))

    def shifts(self):
        """(f^(N-k), f^-k) for k = N//2."""
        k = self.N // 2
        return self.power("f", self.N - k), self.power("f", -k)

    def growth_table(self):
        """The projection gaps of _growth_table, computed on first use."""
        return self._once("_growth", _growth_table)

    def validate(self):
        if apply_to_factor(self.f, self.A) != self.A:
            raise ValueError("f does not preserve A")
        if apply_to_factor(self.g, self.B) != self.B:
            raise ValueError("g does not preserve B")
        if self.psi is not None and apply_to_factor(self.psi, self.A) != self.B:
            raise ValueError("psi does not carry A to B")
        return True


class IrreducibilityEvidence:
    def __init__(self, syllables, invariant_factor=None, growth_table=None,
                 capped=0, candidates=0):
        self.syllables = syllables
        self.invariant_factor = invariant_factor  # (FactorClass, power)
        self.growth_table = [] if growth_table is None else growth_table
        self.capped = capped  # candidate orbits abandoned at the size cap
        self.candidates = candidates


def _apply_capped(step, F, cap):
    """Apply a step (chain, bounds) of _syllable_steps to a factor class,
    giving up once the images pass 40 * cap letters or the image core has
    more than cap edges.  Both checks are exact, yet the images stop early
    on certificates from Cooper's bounded cancellation lemma (D. Cooper,
    J. Algebra 111, 1987): with B = Lip(phi) * floor(Lip(phi^-1) / 2) for
    an automorphism phi, |phi(ps)| >= |phi(p)| - B for every reduced word
    ps.  In the Cayley tree, phi^-1 takes the geodesic [1, phi(ps)] to a
    chain of steps at most Lip(phi^-1) long covering [1, ps], so phi(p)
    lies within B of [1, phi(ps)].

    - The last automorphism of the chain stops once a prefix image passes
      the letters left plus its B.
    - The one before it is streamed into the last (words._released): each
      of its letters is passed on once its own B shows that no later piece
      cancels it, so it is computed only as far as the last one reads.
    - A rank-1 class <w> has the cycle of length ||phi(w)||, the cyclic
      length, as its core.  For u cyclically reduced and any prefix p of
      u, ||phi(u)|| >= |phi(p)| - 3B: [1, phi(u)] runs at most B letters
      from 1 to the axis of phi(u) (1 lies within B of it, see
      words._cyclic_released), ||phi(u)|| letters along it and at most B
      off it again, and phi(p) lies within B of that path.  So the chain
      is first applied to a cyclically reduced conjugate of w: the last
      automorphism stops at cap plus 3B, and a shorter image gives the
      cyclic length at once.  Only a class whose image has cyclic length
      at most cap goes on to the checks above and the fold.  The cycle is
      read from any vertex (_cycle_letters), as every rotation is a
      conjugate, so the test computes no canonical code."""
    bounds = step[1]
    if F.rank == 1:
        image = _image(step, _cycle_letters(F.core.edges),
                       cap + 3 * bounds[-1], cyclic=True)
        if image is None or len(_cyclic_core(image)) > cap:
            return None
    left = 40 * cap
    gens = []
    for w in F.gens():
        image = _image(step, w.letters, left + bounds[-1])
        if image is None or len(image) > left:
            return None
        left -= len(image)
        gens.append(_word(F.rank_ambient, image))
    out = factor_class(gens)
    if out.complexity() > cap:
        return None
    return out


def _image(step, letters, stop, cyclic=False):
    """The letters of the image of a reduced word under a step (chain,
    bounds), or None as soon as a prefix image under the last automorphism
    is longer than stop.  The second-last automorphism is streamed into the
    last.  With cyclic, the letters are cyclically reduced, and so is the
    conjugate of each image passed on."""
    (*head, last), bounds = step
    if head:
        for phi in head[:-1]:
            letters = _join(phi.pieces(letters))
            if cyclic:
                letters = _cyclic_core(letters)
        letters = (_cyclic_released if cyclic else _released)(
            head[-1], letters, bounds[-2])
    return _join(last.pieces(letters), stop)


def _cycle_letters(edges):
    """The letters read once around a core that is a single cycle, from the
    tail of its first edge."""
    steps = incidence(edges)
    x, sign, v = steps[edges[0][0]][0]
    letters = [sign * x]
    while len(letters) < len(edges):
        here, there = steps[v]  # one of them is the way back
        x, sign, v = there if here[0] * here[1] == -letters[-1] else here
        letters.append(sign * x)
    return tuple(letters)


# the growth cap of pingpong_word's orbits (see _apply_capped)
ORBIT_CAP = 400


def pingpong_word(spec, syllables, powers=6, core_bound=8, candidate_cap=80):
    """Compose the syllable word in f^N, g^N and search for invariant
    factors: candidates are factor classes with core size <= core_bound,
    orbits followed with the growth cap ORBIT_CAP (an orbit abandoned at
    the cap was growing, which is itself evidence of no return).  The
    candidates and every orbit step are computed once per spec, so words
    that share a syllable, such as f g and f g^-1, follow it once.
    Alternation of syllables is required, otherwise the word is conjugate
    to a power of one letter.  Syllables act left to right on classes.

    The cap is exact though images stop early, on Cooper's bounded
    cancellation lemma (J. Algebra 111, 1987) with B(phi) =
    Lip(phi) * floor(Lip(phi^-1) / 2) for each automorphism of a step (see
    _apply_capped): the last one stops once a prefix image passes the
    letters left plus its B, the one before it gives up each letter once
    its own B certifies it, and a rank-1 class <w> stops once a prefix
    image of a cyclically reduced conjugate passes cap plus 3B of the last,
    since ||phi(u)|| >= |phi(p)| - 3B for u cyclically reduced and p a
    prefix of u."""
    syl = syllable_reduce(
        [(sym, e * spec.N) for sym, e in syllables]
    )
    if len(syl) < 2:
        raise ValueError("need an alternating word, not a power of one letter")
    for (s1, _), (s2, _) in zip(syl, syl[1:]):
        if s1 == s2:
            raise ValueError("syllables must alternate")
    steps = list(zip(syl, _syllable_steps(spec, syl)))
    candidates = spec._once(
        f"_candidates_{core_bound}_{candidate_cap}",
        lambda spec: _candidate_factors(spec.A.rank_ambient, core_bound,
                                        candidate_cap))
    # (syllable, exact core) -> its capped image; keyed on the core with
    # its vertex ids, as gens() reads them through the spanning tree
    images = spec._once("_orbit_images", lambda spec: {})
    capped = 0
    invariant = None
    for C in candidates:
        cur = C
        for p in range(1, powers + 1):
            for syllable, step in steps:
                key = (syllable, cur.core)
                if key not in images:
                    images[key] = _apply_capped(step, cur, ORBIT_CAP)
                cur = images[key]
                if cur is None:
                    break
            if cur is None:
                capped += 1
                break
            if cur == C:
                invariant = (C, p)
                break
        if invariant:
            break
    return IrreducibilityEvidence(
        syllables=syl,
        invariant_factor=invariant,
        growth_table=list(spec.growth_table()),
        capped=capped,
        candidates=len(candidates),
    )


def _syllable_steps(spec, syl):
    """Each syllable sym^e as (chain, bounds): automorphisms to apply in
    order and the Cooper constant of each, through its exact inverse (see
    _apply_capped).  With psi known, g^e runs as psi^-1, f^e, psi, bounded
    through psi, f^-e and psi^-1, and no power or inverse of g is built;
    otherwise the chain is sym^e alone, bounded through sym^-e."""
    steps = []
    for sym, e in syl:
        if sym == "g" and spec.psi is not None:
            chain = (spec.psi_inv, spec.power("f", e), spec.psi)
            inverses = (spec.psi, spec.power("f", -e), spec.psi_inv)
        else:
            chain = (spec.power(sym, e),)
            inverses = (spec.power(sym, -e),)
        steps.append((chain, tuple(phi.cancellation_bound(inv)
                                   for phi, inv in zip(chain, inverses))))
    return steps


def _candidate_factors(n, core_bound, cap):
    out = []
    for F, _ in enumerate_cvertices(n, min(core_bound, 5), cap=cap // 2):
        out.append(F)
    # rank-2 candidates from pairs of short primitives, less F_2 itself
    small = [w for _, w in enumerate_cvertices(n, 3, cap=12)]
    for i in range(len(small)):
        for j in range(i + 1, len(small)):
            F = factor_class([small[i], small[j]])
            if F.rank != 2 or F.rank == n or F.complexity() > core_bound:
                continue
            if not is_free_factor(F).is_factor:
                continue
            if all(F != H for H in out):
                out.append(F)
            if len(out) >= cap:
                return out
    return out


# the sampled marked graphs behind each projection of the growth table
GROWTH_SAMPLES = 2
GROWTH_SEED = 0


def _growth_table(spec):
    """Projection gaps behind the chain A, f^N B, f^N g^N A, ...: each
    interior gap is d_B(A, g^N A) or d_A(B, f^N B), that is d_T(X, h^N X)
    with h(T) = T (pulled back by psi^-1 to d_A(psi^-1 A, f^N psi^-1 A)
    when psi is known).  By equivariance, pi_{phi T}(phi X) = phi . pi_T(X)
    (Bestvina-Feighn, Subfactor projections, J. Topology 2014, extended
    in A note on subfactor projections, arXiv:1307.1495), it is
    diam(P u r^N . P) for P = pi_T(X) and r the restriction of h to T: the
    samples h^N . G of h^N X project to r^N . pi_T(G) member for member,
    so no image under h^N is projected."""
    first = ((spec.A, apply_to_factor(spec.psi_inv, spec.A), spec.f)
             if spec.psi is not None else (spec.B, spec.A, spec.g))
    rows = []
    names = ("d_B(A, g^N A)", "d_A(B, f^N B)")
    for name, (T, X, h) in zip(names, (first, (spec.A, spec.B, spec.f))):
        P = project_factor(T, X, samples=GROWTH_SAMPLES, seed=GROWTH_SEED)
        if not P:
            rows.append((name, None, None))
            continue
        r = restriction(h, T)[0] ** spec.N
        rows.append((name, *factor_distance(
            T, P, {apply_to_factor(r, F) for F in P})))
    return rows


def build_pingpong(A, psi, m_emp, d_emp):
    """Assemble a PingPongSpec from a rank-2 factor A preserved by the
    Fibonacci automorphism a -> b, b -> ab (the identity on the other
    letters) and a transforming automorphism psi with B = psi(A)."""
    n = A.rank_ambient
    _require_proper(A)
    if A.rank != 2:
        raise ValueError("the Fibonacci automorphism needs rank-2 A")
    fib = Automorphism(n, (Word(n, (2,)), Word(n, (1, 2)),
                           *(Word(n, (i,)) for i in range(3, n + 1))))
    if apply_to_factor(fib, A) != A:
        raise ValueError("the base automorphism must preserve A")
    psi_inv = invert_automorphism(psi)
    B = apply_to_factor(psi, A)
    g = psi * fib * psi_inv
    fill = fill_check(A, B, phi_b=_subrose_map(A, psi_inv))
    h, _ = restriction(fib, A)
    rate = translation_estimate(h)
    N = choose_power(rate, m_emp, d_emp)
    spec = PingPongSpec(f=fib, g=g, A=A, B=B, psi=psi, psi_inv=psi_inv,
                        N=N, fill=fill)
    spec.validate()
    return spec


def _require_proper(*factors):
    """ValueError for a factor of rank >= n: F_n itself is invariant under
    every automorphism, so it is no evidence either way."""
    for F in factors:
        if F.rank >= F.rank_ambient:
            raise ValueError("need factors of rank < n (a free factor of "
                             "rank n is all of F_n)")


def _subrose_map(A, to_A=None):
    """An automorphism carrying to_A^-1(A) (A itself when to_A is None)
    onto the sub-rose on the first rank(A) letters, built by composing A's
    own Whitehead witness."""
    res = is_free_factor(A)
    if not res.is_factor:
        raise ValueError("not a free factor")
    return res.witness if to_A is None else res.witness * to_A


def spec_from_pair(f, g, A, B, m_emp, d_emp, fill_bound=8):
    """A PingPongSpec from explicitly given f preserving A and g preserving
    B, without a known conjugating automorphism."""
    _require_proper(A, B)
    fill = fill_check(A, B, s=fill_bound)
    h, _ = restriction(f, A)
    rate = translation_estimate(h)
    N = choose_power(rate, m_emp, d_emp)
    spec = PingPongSpec(f=f, g=g, A=A, B=B, N=N, fill=fill)
    spec.validate()
    return spec


def chain_windows(spec):
    """The interior three-term windows of the chain A, f^N B, f^N g^N A,
    f^N g^N f^N B, translated by the inverse prefix so every factor stays
    moderately sized; by equivariance each window carries the same X-sets
    and projection gaps as the original one, which the chain checks use.

    The window at f^N B pulls back by (f^N psi)^-1 to (psi^-1 A, A,
    f^N psi^-1 A); the window at f^N g^N A pulls back by (f^N g^N)^-1 to
    (B, A, f^N B) since g^-N B = B.  Each is then shifted by f^-(N//2),
    which fixes the middle factor A, so the two ends grow like f^(N/2)
    instead of one end carrying all of f^N.  Computed once per spec; None
    when no psi is known, like window_xsets."""
    return spec._once("_windows", _windows)


def _windows(spec):
    if spec.psi is None:
        return None
    fk, fmk = spec.shifts()
    A1 = apply_to_factor(spec.psi_inv, spec.A)
    return ((apply_to_factor(fmk, A1), spec.A, apply_to_factor(fk, A1)),
            (apply_to_factor(fmk, spec.B), spec.A,
             apply_to_factor(fk, spec.B)))


def translate_xset(xs, h):
    """Transport a certified X-set along an automorphism: X_{h(A)} = h(X_A)
    member by member, with the splitting conjugators corrected into the
    canonical frames of the image classes.  This sidesteps enumeration,
    which finds nothing when h stretches every short disjoint class.  The
    image records xs as its source and h as the automorphism it moved
    along, so chain_progress_verify can project xs in place of it."""
    image, e = class_frame([h(w) for w in xs.factor.gens()])
    members = []
    for v, c in xs.members:
        member, d = class_frame([h(w) for w in v.gens()])
        members.append((member, ~e * h(c) * d))
    return XSet(image, xs.complexity_bound, members, source=xs, along=h)


def window_xsets(spec, s=5, cap=6, conj_len=3):
    """X-sets aligned with chain_windows(spec).  The middle factor's set is
    enumerated directly; every end factor is an automorphic image of A, so
    its set is transported with translate_xset (direct enumeration finds
    nothing once the translates stretch the short disjoint classes).

    Each end set is moved in two stages: first by psi^-1 (first window) or
    psi (second window), to Y = X_{psi^-1 A} or X_B, then by the shift f^-k
    or f^(N-k), which preserves the middle factor A.  By equivariance, pi_{phi A}(phi X) = phi .
    pi_A(X) (Bestvina-Feighn, Subfactor projections, J. Topology 2014,
    extended in A note on subfactor projections, arXiv:1307.1495), so with
    phi the shift the chain check projects Y's small members and moves the
    result by the restriction of the shift to A, instead of projecting the
    stretched members.  Returns None when no psi is known (the
    untranslated windows enumerate their own sets).  conj_len is accepted
    and ignored: X-set membership is decided exactly, and
    bench/workloads.py still passes the keyword."""
    if spec.psi is None:
        return None
    fk, fmk = spec.shifts()
    xa = _xset_grow(spec.A, s, cap)
    rows = []
    for to_end in (spec.psi_inv, spec.psi):
        y = translate_xset(xa, to_end)
        rows.append([translate_xset(y, fmk), xa, translate_xset(y, fk)])
    return rows


def _xset_grow(A, s, cap):
    """x_set, retrying at larger word lengths, up to 9, until a member
    appears."""
    while True:
        xs = x_set(A, s=s, cap=cap)
        if xs.members or s >= 9:
            return xs
        s += 1
