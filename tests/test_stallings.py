import random
import sys
from collections import Counter
from pathlib import Path

import pytest

from subfactor import stallings
from subfactor.cli import main
from subfactor.stallings import (
    Expression,
    FreeFactorResult,
    GraphBuilder,
    StallingsGraph,
    apply_to_factor,
    basis,
    canonical_code,
    class_frame,
    clear_reduction_cache,
    contained_up_to_conjugacy,
    factor_class,
    factor_from_strs,
    invert_automorphism,
    is_basis,
    is_free_factor,
    mod2_span,
    random_automorphism,
    substitute,
    subgroup_graph,
)
from subfactor.words import (
    Automorphism,
    Word,
    free_reduce,
    reduce,
    type2_move,
    whitehead_move,
    whitehead_type2,
    word_from_str,
    word_to_str,
)

sys.path.insert(0, str(Path(__file__).resolve().parent))
from oracles import (  # noqa: E402
    contains_element,
    descend_by_table,
    factor_class_via_based,
    fold_all_vertices,
    tree_data_rereduced,
    whitehead_reference,
)


def w(text, rank=2):
    return word_from_str(rank, text)


def random_word(rng, rank, max_len):
    return reduce(rank, [rng.choice((1, -1)) * rng.randint(1, rank)
                         for _ in range(rng.randint(0, max_len))])


# reference implementations: plain concatenation reduced at the end, the
# fixed-point trim that rescans every vertex, and the canonical code and its
# start vertex from a complete BFS at every start


def ref_substitute(images, x):
    out = []
    for y in x.letters:
        img = images[abs(y) - 1].letters
        out.extend(img if y > 0 else tuple(-z for z in reversed(img)))
    return free_reduce(out)


def ref_express(expr, x):
    cur = 0  # the basepoint
    out = []
    for y in x.letters:
        hit = expr.steps.get((cur, y))
        if hit is None:
            return None
        cur, piece = hit
        out.extend(piece)
    return free_reduce(out) if cur == 0 else None


def ref_trim(vertices, edges, basepoint, keep_basepoint):
    vertices = set(vertices)
    while True:
        valence = {v: 0 for v in vertices}
        for u, v, _ in edges:
            valence[u] += 1
            valence[v] += 1
        dead = {v for v, k in valence.items()
                if k < 2 and not (keep_basepoint and v == basepoint)}
        if not dead:
            return vertices, edges
        vertices -= dead
        edges = [e for e in edges if e[0] not in dead and e[1] not in dead]


def ref_canonical(core):
    out, inn = core.out_map(), core.in_map()
    vs = sorted(core.vertex_set())
    if not vs:
        return f"{core.rank}|empty", None
    best = best_start = None
    for start in vs:
        number = {start: 0}
        order = [start]
        rows = []
        i = 0
        while i < len(order):
            v = order[i]
            i += 1
            row = []
            for label in range(1, core.rank + 1):
                for mp in (out, inn):
                    t = mp.get((v, label))
                    if t is not None and t not in number:
                        number[t] = len(order)
                        order.append(t)
                    row.append(-1 if t is None else number[t])
            rows.append(tuple(row))
        if best is None or tuple(rows) < best:
            best, best_start = tuple(rows), start
    body = ";".join(",".join(str(x) for x in row) for row in best)
    return f"{core.rank}|{body}", best_start


def is_folded(g):
    """No two edges with one label leave, or enter, the same vertex."""
    out = [(u, label) for u, _, label in g.edges]
    inn = [(v, label) for _, v, label in g.edges]
    return len(set(out)) == len(out) and len(set(inn)) == len(inn)


def test_subgroup_graph_aa_b():
    g = subgroup_graph([w("aa"), w("b")])
    assert is_folded(g)
    # two vertices joined by a pair of a-edges, with a b-loop at the base
    assert len(g.vertex_set()) == 2
    assert sorted(label for _, _, label in g.edges) == [1, 1, 2]
    assert g.graph_rank() == 2


def test_membership():
    g = subgroup_graph([w("aa"), w("b")])
    assert contains_element(g, w("aa"))
    assert contains_element(g, w("aab"))
    assert contains_element(g, w("baab"))
    assert not contains_element(g, w("a"))
    assert not contains_element(g, w("ab"))


def test_basis_and_rewrite():
    g = subgroup_graph([w("aa"), w("b")])
    b = basis(g)
    assert [word_to_str(x) for x in b] == ["b", "aa"]
    # aab = (aa)(b): in the basis ordering above that is generator 2 then 1
    expr = Expression(b)
    assert word_to_str(expr.express(w("aab"))) == "ba"
    assert expr.express(w("a")) is None


def test_basis_generates_same_subgroup():
    rng = random.Random(7)
    for _ in range(25):
        gens = [
            w("".join(rng.choice("abAB") for _ in range(rng.randint(1, 6))))
            for _ in range(rng.randint(1, 3))
        ]
        gens = [x for x in gens if x]
        if not gens:
            continue
        g = subgroup_graph(gens)
        b = basis(g)
        h = subgroup_graph(b) if b else None
        for x in gens:
            assert contains_element(g, x)
            if h is not None:
                assert contains_element(h, x)
        for y in b:
            assert contains_element(g, y)


def test_fold_order_irrelevant():
    # the folded core is canonical regardless of generator order
    gens = [w("abab"), w("aBa"), w("bb")]
    rng = random.Random(3)
    codes = set()
    for _ in range(6):
        rng.shuffle(gens)
        codes.add(canonical_code(subgroup_graph(gens).without_basepoint())[0])
    assert len(codes) == 1


def test_canonical_code_conjugation_invariant():
    assert factor_from_strs(2, ["ab"]) == factor_from_strs(2, ["ba"])
    assert factor_from_strs(2, ["ab"]) != factor_from_strs(2, ["a"])
    A = factor_from_strs(3, ["a", "b"])
    B = factor_from_strs(3, ["caC", "cbC"])
    assert A.code == B.code
    assert hash(A) == hash(B)


def test_factor_class_ranks():
    A = factor_from_strs(3, ["a", "b"])
    assert A.rank == 2 and A.rank_ambient == 3
    assert factor_from_strs(2, ["aa"]).rank == 1


def test_expression():
    e = Expression([w("aa"), w("b")])
    assert word_to_str(e.express(w("aab"))) == "ab"
    assert e.express(w("a")) is None
    # sanity: substituting back recovers the input
    got = e.express(w("baaaa"))
    assert word_to_str(got) == "baa"


@pytest.mark.parametrize("rank", [2, 3, 4, 5])
def test_substitute_and_express_match_reference(rank):
    rng = random.Random(100 + rank)
    for _ in range(20):
        images = [random_word(rng, rank, 6) for _ in range(rank)]
        x = random_word(rng, rank, 12)
        assert substitute(images, x).letters == ref_substitute(images, x)
        # equal images cancel completely
        images[1] = images[0]
        assert not substitute(images, Word(rank, (1, -2)))
        gens = [x for x in (random_word(rng, rank, 5) for _ in range(3)) if x]
        if not gens:
            continue
        expr = Expression(gens)
        for _ in range(5):
            idx = [rng.choice((1, -1)) * rng.randint(1, len(gens))
                   for _ in range(rng.randint(0, 6))]
            y = substitute(gens, reduce(len(gens), idx))
            got = expr.express(y)
            assert got.letters == ref_express(expr, y)
            assert substitute(gens, got) == y
            assert expr.express(y * ~y) == Word.identity(len(gens))


@pytest.mark.parametrize("keep_basepoint", [True, False])
def test_trim_matches_fixed_point_rescan(keep_basepoint):
    # a transition table holds folded graphs only, so each drawn edge whose
    # slot at either end is taken is left out
    rng = random.Random(7 + keep_basepoint)
    for _ in range(200):
        n = rng.randint(1, 9)
        drawn = [(rng.randrange(n), rng.randrange(n), rng.randint(1, 3))
                 for _ in range(rng.randint(0, 12))]
        basepoint = rng.choice([None, 0, rng.randrange(n)])
        b = GraphBuilder(3)
        b.tables = {v: {} for v in range(n)}  # isolated vertices stay
        edges = []
        for u, v, label in drawn:
            if label not in b.tables[u] and -label not in b.tables[v]:
                b.add_edge(u, v, label)
                edges.append((u, v, label))
        b.basepoint = basepoint
        b.trim(keep_basepoint=keep_basepoint)
        vs, es = ref_trim(range(n), edges, basepoint, keep_basepoint)
        assert set(b.tables) == vs
        assert list(b.to_graph().edges) == sorted(es)


def oracle_fold(b):
    """GraphBuilder.fold by the all-vertex edge-list fold of the oracle."""
    words = [(letters, None if p is None else Word(b.prov_rank, p))
             for letters, p in b.words]
    for u, v, label, p in fold_all_vertices(words, b.prov_rank):
        b.add_edge(u, v, label)
        if p is not None:
            b.prov[u, label] = p.letters
            b.prov[v, -label] = (~p).letters
    b.words = []


def bouquet(rng, rank):
    """One to five seeded generators: some trivial, some conjugates c u c^-1
    that are not cyclically reduced, the rest random reduced words."""
    gens = []
    for _ in range(rng.randint(1, 5)):
        kind = rng.random()
        if kind < 0.15:
            gens.append(Word.identity(rank))
        elif kind < 0.5:
            c = random_word(rng, rank, 4)
            gens.append(c * random_word(rng, rank, 8) * ~c)
        else:
            gens.append(random_word(rng, rank, 10))
    return gens


@pytest.mark.parametrize("rank", [2, 3, 4, 5, 6])
def test_folded_vertex_is_the_least_bouquet_id_reaching_it(rank):
    # the bouquet numbers the basepoint 0, then each letter of each word but
    # its last; a folded vertex is the least id whose prefix reaches it
    rng = random.Random(400 + rank)
    tried = 0
    while tried < 40:
        gens = bouquet(rng, rank)
        if not any(gens):
            continue
        tried += 1
        b = GraphBuilder(rank)
        for x in gens:
            b.add_loop_word(x)
        b.fold()
        tables = b.tables
        for u, table in tables.items():
            for x, v in table.items():
                assert tables[v][-x] == u
        prefixes = [()]
        for x in gens:
            prefixes += [x.letters[:i] for i in range(1, len(x))]
        reached = {}
        for vid, prefix in enumerate(prefixes):
            cur = 0
            for x in prefix:
                cur = tables[cur][x]
            reached.setdefault(cur, []).append(vid)
        assert set(reached) == set(tables)
        for v, ids in reached.items():
            assert v == min(ids)
        for x in gens:
            cur = 0
            for y in x.letters:
                cur = tables[cur][y]
            assert cur == 0


def test_long_bouquet_folds_without_recursion():
    # the last letter of a^n b a^-(n-1) sets off one cascade of n - 1
    # merges down the tail; what is left is a^(n-1) (ab) a^-(n-1)
    n = 100_000
    x = Word(2, (1,) * n + (2,) + (-1,) * (n - 1))
    assert len(x) == 200_000
    assert len(subgroup_graph([x]).edges) == n + 1
    # the core's two vertices take the ids of prefixes a^(n-1) and a^n;
    # its size is checked first, so that a failure prints no long diff
    core = factor_class([x]).core.edges
    assert len(core) == 2
    assert core == ((n - 1, n, 1), (n, n - 1, 2))


@pytest.mark.parametrize("rank", range(2, 9))
def test_inverse_matches_the_oracle_fold(rank, monkeypatch):
    rng = random.Random(900 + rank)
    autos = [random_automorphism(rank, rng, length=6) for _ in range(6)]
    new = [invert_automorphism(phi).images for phi in autos]
    monkeypatch.setattr(GraphBuilder, "fold", oracle_fold)
    assert [invert_automorphism(phi).images for phi in autos] == new


def test_canonical_code_matches_reference():
    rng = random.Random(21)
    cores = []
    for rank in (2, 3, 4, 5):
        for _ in range(15):
            gens = [x for x in (random_word(rng, rank, 7) for _ in range(3))
                    if x]
            if gens:
                cores.append(factor_class(gens).core)
                # a proper power has a symmetric core: equal codes tie
                cores.append(factor_class([gens[0] ** 3]).core)
    # disjoint unions: BFS from one start does not reach every vertex
    for a, b in zip(cores[::2], cores[1::2]):
        if a.rank == b.rank:
            shift = max(a.vertex_set()) + 1
            edges = a.edges + tuple((u + shift, v + shift, label)
                                    for u, v, label in b.edges)
            cores.append(StallingsGraph(a.rank, tuple(sorted(edges))))
    cores.append(StallingsGraph(2, ()))
    for core in cores:
        assert canonical_code(core) == ref_canonical(core)


def test_is_basis():
    assert is_basis([w("ab"), w("b")])
    assert not is_basis([w("ab"), w("ba")])
    assert not is_basis([w("a")])


def test_invert_automorphism():
    phi = Automorphism.from_strs(2, ["ab", "b"])
    inv = invert_automorphism(phi)
    assert [word_to_str(x) for x in inv.images] == ["aB", "b"]
    assert (phi * inv).is_identity() and (inv * phi).is_identity()

    # products of Whitehead moves, as random_automorphism draws them, with
    # the inverse known move by move
    moves = [whitehead_move(3, i) for i in range(48 + 6 * 15)]
    rng = random.Random(11)
    for _ in range(20):
        f = known_inv = Automorphism.identity(3)
        for _ in range(4):
            move = rng.choice(moves)
            f = move * f
            known_inv = known_inv * next(
                g for g in moves if (move * g).is_identity())
        inv = invert_automorphism(f)
        assert (f * inv).is_identity()
        assert inv.images == known_inv.images


@pytest.mark.parametrize("images", [["aa", "b"], ["a", "a"], ["", "b"],
                                    ["ab", "ba"], ["abAB", "b"]])
def test_invert_automorphism_refuses_non_bases(images):
    with pytest.raises(ValueError, match="not a basis"):
        invert_automorphism(Automorphism.from_strs(2, images))


def test_invert_automorphism_checks_its_result(monkeypatch):
    # the check must hold without asserts (python -O): feed it a wrong image
    phi = Automorphism.from_strs(2, ["ab", "b"])
    monkeypatch.setattr(Expression, "express",
                        lambda self, x: Word(2, x.letters[::-1] * 2))
    with pytest.raises(RuntimeError, match="identity"):
        invert_automorphism(phi)


def test_apply_to_factor():
    phi = Automorphism.from_strs(2, ["ab", "b"])
    A = factor_from_strs(2, ["a"])
    assert apply_to_factor(phi, A) == factor_from_strs(2, ["ab"])


def test_containment():
    F2 = factor_from_strs(2, ["a", "b"])
    assert contained_up_to_conjugacy(factor_from_strs(2, ["a"]), F2)
    assert contained_up_to_conjugacy(factor_from_strs(2, ["bab"]), F2)
    A = factor_from_strs(3, ["a", "b"])
    assert contained_up_to_conjugacy(factor_from_strs(3, ["ab"]), A)
    assert not contained_up_to_conjugacy(factor_from_strs(3, ["c"]), A)
    assert not contained_up_to_conjugacy(A, factor_from_strs(3, ["ab"]))


def test_mod2_span():
    assert mod2_span([w("aa")]) == ()
    assert mod2_span([w("ab"), w("b")]) == mod2_span([w("a"), w("b")])
    assert len(mod2_span([w("ab", 3), w("bc", 3)], )) == 2


def test_free_factor_positive():
    res = is_free_factor(factor_from_strs(2, ["ab"]))
    assert res.is_factor and res.certified
    # the witness carries <ab> onto a sub-rose
    phi = res.witness
    A = apply_to_factor(phi, factor_from_strs(2, ["ab"]))
    assert A == factor_from_strs(2, ["a"])

    res = is_free_factor(factor_from_strs(3, ["a", "bc"]))
    assert res.is_factor and res.certified


def test_free_factor_negative_certified():
    # <aa>: kills mod-2 homology rank
    res = is_free_factor(factor_from_strs(2, ["aa"]))
    assert not res.is_factor and res.certified
    # <a, bab^-1>: proper rank-2 subgroup of F_2
    res = is_free_factor(factor_from_strs(2, ["a", "baB"]))
    assert not res.is_factor and res.certified
    # commutator is not primitive
    res = is_free_factor(factor_from_strs(2, ["abAB"]))
    assert not res.is_factor


@pytest.mark.parametrize("rank,gens", [(3, ["a", "bcBCb"]),
                                       (3, ["ab", "bcBCb"]),
                                       (4, ["a", "cdCDc"])])
def test_free_factor_negative_by_peak_reduction(rank, gens):
    # no invariant obstruction applies: <x, [y,z]y> abelianizes onto a
    # direct summand; only the orbit-minimal core rules it out
    res = is_free_factor(factor_from_strs(rank, gens))
    assert not res.is_factor and res.certified
    assert res.reason == "complexity-minimal and not a sub-rose"


def strict_descent(F):
    """Reference descent: any type II move that lowers the edge count."""
    while True:
        for phi in whitehead_reference(F.rank_ambient)[1]:
            G = apply_to_factor(phi, F)
            if G.complexity() < F.complexity():
                F = G
                break
        else:
            return F


def equal_complexity_component(F):
    """Codes of the classes reachable from F by Whitehead moves, type I
    included, that keep its edge count, and the least edge count among all
    images of those classes."""
    moves, _ = whitehead_reference(F.rank_ambient)
    seen, frontier, lowest = {F.code}, [F], F.complexity()
    while frontier:
        G = frontier.pop()
        for phi in moves:
            H = apply_to_factor(phi, G)
            lowest = min(lowest, H.complexity())
            if H.complexity() == G.complexity() and H.code not in seen:
                seen.add(H.code)
                frontier.append(H)
    return seen, lowest


@pytest.mark.parametrize("rank,base", [(2, ["abABa"]),
                                       (3, ["a", "bcBCb"])])
def test_strict_local_minimum_is_orbit_minimal(rank, base):
    # peak reduction, checked exhaustively: strict local minima of moved
    # <x, [y,z]y> have no lower class anywhere in their equal-complexity
    # component, which holds every such minimum
    rng = random.Random(11)
    minima = []
    for _ in range(3):
        phi = random_automorphism(rank, rng, length=6)
        minima.append(strict_descent(
            apply_to_factor(phi, factor_from_strs(rank, base))))
    assert len({F.code for F in minima}) > 1
    seen, lowest = equal_complexity_component(minima[0])
    assert lowest == minima[0].complexity()
    assert {F.code for F in minima} <= seen
    for F in minima:
        res = is_free_factor(F)
        assert not res.is_factor and res.certified


def test_free_factor_respects_automorphisms():
    rng = random.Random(5)
    A = factor_from_strs(3, ["a", "b"])
    for _ in range(10):
        f = random_automorphism(3, rng)
        assert is_free_factor(apply_to_factor(f, A)).is_factor


def test_free_factor_whitehead_soundness_small():
    # every primitive element of F_2 has abelianization with coprime entries;
    # cross-check the decision against that classical fact on short words
    from subfactor.words import abelianize
    from math import gcd
    from itertools import product

    for n in range(1, 5):
        for ls in product([1, -1, 2, -2], repeat=n):
            try:
                x = w("".join("aAbB"[(abs(l) - 1) * 2 + (l < 0)] for l in ls))
            except ValueError:
                continue
            if not x or len(x) != n:
                continue
            F = factor_class([x])
            res = is_free_factor(F)
            p, q = abelianize(x)
            if res.is_factor:
                assert gcd(p, q) == 1, word_to_str(x)


# choosing Whitehead moves by counting cut links: the edge-count formula
# against folding, and the counting descent against the descent that folds
# every candidate move


def cut_from_images(phi):
    """The cut (A, a) of a type II move, read back from its images."""
    A, a = set(), None
    for i, img in enumerate(phi.images, 1):
        x = img.letters
        if x[-1] != i:  # x -> ...x*a
            A.add(i)
            a = x[-1]
        if x[0] != i:  # x -> a^-1*x...
            A.add(-i)
            a = -x[0]
    A.add(a)
    return frozenset(A), a


def counted_size(core, A, a):
    """|E| + #{v : L(v) meets A^-1 and is not inside it} - #{edges labelled
    a}, with links as sets of signed letters."""
    links = {}
    for u, v, label in core.edges:
        links.setdefault(u, set()).add(label)
        links.setdefault(v, set()).add(-label)
    inv = {-x for x in A}
    cut = sum(1 for L in links.values() if L & inv and not L <= inv)
    return (len(core.edges) + cut
            - sum(1 for _, _, label in core.edges if label == abs(a)))


def seeded_classes(rng, rank, count):
    """Classes of random subgroups, half of them moved by a random
    automorphism, and moved sub-roses and moved <x, [y, z] y>."""
    out = []
    while len(out) < count:
        pick = len(out) % 3
        if pick == 0:
            gens = [random_word(rng, rank, 8) for _ in range(rng.randint(1, 3))]
            if not any(gens):
                continue
            F = factor_class(gens)
        elif pick == 1:
            k = rng.randint(1, rank - 1)
            F = factor_from_strs(rank, list("abcde"[:k]))
        else:
            F = factor_from_strs(rank, ["abABa"] if rank == 2
                                 else ["a", "bcBCb"])
        if pick or rng.random() < 0.5:
            phi = random_automorphism(rank, rng, length=rng.randint(1, 6))
            F = apply_to_factor(phi, F)
        out.append(F)
    return out


def type2_cuts(rank):
    """(move, cut (A, a)) of each type II move, in whitehead_type2 order,
    with A read off the move's A^-1 bitmask."""
    multipliers = [a for g in range(1, rank + 1) for a in (g, -g)]
    return [(type2_move(rank, a, k),
             (frozenset(rank - j for j in range(2 * rank + 1)
                        if mask >> j & 1), a))
            for a, block in zip(multipliers, whitehead_type2(rank))
            for k, mask in enumerate(block, 1)]


def test_recorded_cut_matches_images():
    for rank in (2, 3, 4, 5):
        cuts = type2_cuts(rank)
        assert len(cuts) == 2 * rank * (4 ** (rank - 1) - 1)
        for phi, cut in cuts:
            assert cut == cut_from_images(phi)


def test_cut_count_matches_folding():
    # every type II move at ranks 2 to 4, sampled moves at rank 5; the
    # seeded cores include moves whose image grows, keeps its size and
    # shrinks, and images that fold further after the substitution
    rng = random.Random(808)
    seen = set()
    for rank, cores, sample in ((2, 30, None), (3, 15, None), (4, 6, None),
                                (5, 6, 150)):
        moves = type2_cuts(rank)
        for F in seeded_classes(rng, rank, cores):
            for phi, cut in (rng.sample(moves, sample) if sample else moves):
                got = apply_to_factor(phi, F).complexity()
                assert got == counted_size(F.core, *cut), (F, phi)
                seen.add((got > F.complexity()) - (got < F.complexity()))
    assert seen == {-1, 0, 1}


def folding_descent(F):
    """Reference: the descent that folds the image of every candidate move
    and takes the first, in the reference's type II order, with fewer
    edges."""
    obstruction = stallings._obstruction(F)
    if obstruction is not None:
        return FreeFactorResult(False, reason=obstruction)
    chain = []
    current = F
    gens = list(F.gens())
    while not current.is_sub_rose():
        for phi in whitehead_reference(F.rank_ambient)[1]:
            cand_gens = [phi(w) for w in gens]
            cand = factor_class(cand_gens)
            if cand.complexity() < current.complexity():
                break
        else:
            return FreeFactorResult(False, reason=stallings.MINIMAL)
        current, gens = cand, cand_gens
        chain.append(phi)
        if sum(len(w) for w in gens) > 2 * current.complexity() + 20:
            gens = list(current.gens())
    return FreeFactorResult(True, witness=stallings._finish(current, chain),
                            reason=stallings.SUB_ROSE)


def test_counting_descent_matches_folding_descent():
    rng = random.Random(2024)
    reasons = set()
    for rank, count in ((2, 160), (3, 150), (4, 75), (5, 15)):
        for F in seeded_classes(rng, rank, count):
            got, want = stallings._reduce(F), folding_descent(F)
            assert (got.is_factor, got.reason) == (want.is_factor, want.reason)
            assert (got.witness is None) == (want.witness is None)
            if got.witness is not None:
                assert got.witness.images == want.witness.images
            reasons.add(got.reason)
    assert {stallings.SUB_ROSE, stallings.MINIMAL} <= reasons


def test_descent_takes_the_moves_of_the_table_scan():
    # the descent over indexed moves takes the same moves, step by step, as
    # the scan of a stored table of every type II move, on single classes
    # and on pairs of ranks 2 to 6
    rng = random.Random(77)
    steps = 0
    for rank, count in ((2, 40), (3, 40), (4, 24), (5, 12), (6, 8)):
        classes = seeded_classes(rng, rank, count)
        type2 = whitehead_reference(rank)[1]
        for tup in [(F,) for F in classes] + list(zip(classes[::2],
                                                      classes[1::2])):
            got, chain = stallings.descend(tup)
            want, ref_chain = descend_by_table(tup, type2)
            assert ([phi.images for phi in chain]
                    == [phi.images for phi in ref_chain]), tup
            assert [F.code for F in got] == [F.code for F in want]
            steps += len(chain)
    assert steps > 100


@pytest.mark.parametrize("gens,expect", [(["abc", "b"], True),
                                         (["a", "bcBCb"], False)])
def test_free_factor_decided_in_rank_eight(gens, expect):
    # <x1x2x3, x2> is a free factor of F_8 and <x1, [x2,x3]x2> is not; the
    # witness carries the factor onto the standard sub-rose
    clear_reduction_cache()
    F = factor_from_strs(8, gens)
    res = is_free_factor(F)
    assert res.is_factor is expect and res.certified
    if expect:
        assert (apply_to_factor(res.witness, F)
                == factor_from_strs(8, ["a", "b"]))
    else:
        assert res.reason == stallings.MINIMAL


def test_cut_count_check_can_fail(monkeypatch):
    # one more edge per label puts every prediction one edge off, so the
    # fold of the first move taken disagrees, and the failure leaves main
    # as a bug instead of exiting 2
    links = stallings._links

    def one_edge_more(cores):
        masks, per_label = links(cores)
        return masks, Counter({a: per_label[a] + 1
                               for a in range(1, cores[0].rank + 1)})

    monkeypatch.setattr(stallings, "_links", one_edge_more)
    clear_reduction_cache()
    try:
        with pytest.raises(RuntimeError, match="cut count"):
            main(["classify", "--rank", "3", "--a", "ab", "--b", "c"])
    finally:
        clear_reduction_cache()


def kernel_outputs(make_class, subgroups, autos, covers):
    """Everything the folding kernel feeds, for each input: the core with
    its vertex ids, the code, gens() and class_frame of each subgroup, the
    inverse of each automorphism, and the cover_core domain of each
    (subgroup, marking automorphism of a rose)."""
    from subfactor.marked import cover_core, rose, transformed

    out = []
    for gens in subgroups:
        F = make_class(gens)
        C, d = class_frame(gens)
        out.append((F.core, F.code, [x.letters for x in F.gens()],
                    C.core, d.letters))
    for phi in autos:
        out.append([x.letters for x in invert_automorphism(phi).images])
    for gens, phi in covers:
        G = transformed(rose(phi.rank), phi)
        out.append(cover_core(make_class(gens), G).domain)
    return out


def test_folding_kernel_matches_the_all_vertex_fold(monkeypatch):
    # the eager table fold, trimming straight to the core and extending
    # tree paths give the very cores (vertex ids included), codes,
    # generators, frames, inverses and cover domains that the all-vertex
    # edge-list fold, without_basepoint and re-reduced paths give
    from subfactor.cli import FILLING_PSI
    from subfactor.irreducible import _candidate_factors, build_pingpong

    rng = random.Random(2020)
    subgroups, autos, covers = [], [], []
    for rank in (2, 3, 4, 5):
        for _ in range(40):
            gens = [x for x in (random_word(rng, rank, 12)
                                for _ in range(rng.randint(1, 4))) if x]
            if gens:
                subgroups.append(gens)
        for _ in range(15):
            autos.append(random_automorphism(rank, rng, length=6))
        for gens in subgroups[-8:]:
            covers.append((gens, random_automorphism(rank, rng, length=3)))
    spec = build_pingpong(factor_from_strs(3, ["a", "b"]),
                          Automorphism.from_strs(3, list(FILLING_PSI)),
                          m_emp=1, d_emp=1)
    candidates = _candidate_factors(3, 8, 80)
    assert len(candidates) == 72
    fN = spec.power("f", spec.N)
    subgroups += [[fN(x) for x in C.gens()] for C in candidates]
    new = kernel_outputs(factor_class, subgroups, autos, covers)
    monkeypatch.setattr(GraphBuilder, "fold", oracle_fold)
    monkeypatch.setattr(stallings, "_tree_data", tree_data_rereduced)
    old = kernel_outputs(factor_class_via_based, subgroups, autos, covers)
    assert len(new) == len(old) == len(subgroups) + len(autos) + len(covers)
    for got, want in zip(new, old):
        assert got == want
