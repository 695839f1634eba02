"""The shared graph walks of ``stallings`` (``spanning_tree``,
``components``, ``bfs_path``, ``find``) and their callers, against
independent copies: the breadth-first search that ``stallings``,
``marked`` and the collapse code each used to carry, a plain depth-first
component count for forests and components, and distances by repeated
relaxation for shortest paths."""

import random

import pytest

from subfactor.marked import (
    MarkedGraph,
    MarkingError,
    _domain_paths,
    cover_core,
    one_edge_collapse_factors,
    rose,
    transformed,
)
from subfactor.projection import _spanning_forest, sample_graphs_with_embedded
from subfactor.stallings import (
    Expression,
    apply_to_factor,
    basis,
    bfs_path,
    components,
    factor_class,
    factor_from_strs,
    random_automorphism,
    spanning_tree,
    subgroup_graph,
)
from subfactor.words import Word, reduce


def reference_bfs(root, edges):
    """Breadth-first spanning tree over (u, v, key) triples: the frontier
    in sorted order, each vertex's (key, sign, other, edge) steps sorted.
    Returns ((key, sign) paths from root, set of tree edges)."""
    incident = {}
    for u, v, key in edges:
        incident.setdefault(u, []).append((key, 1, v, (u, v, key)))
        incident.setdefault(v, []).append((key, -1, u, (u, v, key)))
    paths = {root: []}
    tree = set()
    frontier = [root]
    while frontier:
        nxt = []
        for x in sorted(frontier):
            for key, sign, other, edge in sorted(incident.get(x, [])):
                if other in paths:
                    continue
                paths[other] = paths[x] + [(key, sign)]
                tree.add(edge)
                nxt.append(other)
        frontier = nxt
    return paths, tree


def backwards(path):
    return [(key, -sign) for key, sign in reversed(path)]


def product(words, rank):
    out = Word.identity(rank)
    for w in words:
        out = out * w
    return out


def random_word(rng, rank, length):
    return reduce(rank, [rng.choice([1, -1]) * rng.randint(1, rank)
                         for _ in range(length)])


def random_marked_graph(rng, rank):
    """A connected graph on scattered vertex ids with random eids and
    random (possibly trivial) edge words; the marking need not be an
    isomorphism, since only the walks are under test."""
    verts = rng.sample(range(40), rng.randint(1, 6))
    pairs = [(rng.choice(verts[:i]), v) for i, v in enumerate(verts) if i]
    pairs += [(rng.choice(verts), rng.choice(verts))
              for _ in range(rng.randint(1, 4))]
    eids = rng.sample(range(1, 100), len(pairs))
    edges = [(e, u, v) if rng.random() < 0.5 else (e, v, u)
             for e, (u, v) in zip(eids, pairs)]
    marking = {e: random_word(rng, rank, rng.randint(0, 3)) for e in eids}
    return MarkedGraph(rank, tuple(edges), marking)


def seeded_factors(rank, count, seed):
    rng = random.Random(seed)
    for _ in range(count):
        phi = random_automorphism(rank, rng, length=rng.randint(1, 4))
        k = rng.randint(2, rank) if rank > 2 else 2
        base = factor_from_strs(rank, "abcd"[:k])
        yield apply_to_factor(phi, base)


@pytest.mark.parametrize("rank", [2, 3, 4])
def test_basis_matches_reference_tree(rank):
    rng = random.Random(100 + rank)
    for _ in range(25):
        gens = [random_word(rng, rank, rng.randint(1, 9))
                for _ in range(rng.randint(1, 3))]
        if not any(gens):
            continue
        g = subgroup_graph(gens)
        paths, tree = reference_bfs(g.basepoint, g.edges)
        assert spanning_tree(g.basepoint, g.edges) == (paths, tree)

        def spell(path):
            return reduce(rank, [sign * label for label, sign in path])

        want = [spell(paths[u] + [(label, 1)] + backwards(paths[v]))
                for u, v, label in g.edges if (u, v, label) not in tree]
        assert basis(g) == want


@pytest.mark.parametrize("rank", [2, 3, 4])
def test_marked_tree_data_matches_reference_tree(rank):
    rng = random.Random(200 + rank)
    for _ in range(25):
        G = random_marked_graph(rng, rank)
        paths, tree = reference_bfs(
            G.base_vertex(), [(u, v, e) for e, u, v in G.edges])
        tree_eids, path_words, path_edges = G.tree_data()
        assert tree_eids == {e for _, _, e in tree}
        assert path_edges == paths
        assert path_words == {
            x: product([G.marking[e] if s > 0 else ~G.marking[e]
                        for e, s in p], rank)
            for x, p in paths.items()}
        assert G.is_connected()


def test_disconnected_marked_graph():
    G = MarkedGraph(2, ((1, 0, 0), (2, 1, 1)),
                    {1: Word(2, (1,)), 2: Word(2, (2,))})
    assert not G.is_connected()
    with pytest.raises(MarkingError):
        G.tree_data()


def reference_collapse(imm):
    """one_edge_collapse_factors with the reference tree and edge words
    multiplied one by one."""
    target = imm.target
    core = imm.core()
    expr = Expression(imm.factor.gens())
    base_paths, _ = reference_bfs(imm.domain.basepoint, imm.domain.edges)
    out = set()
    for cut in core.edges:
        rest = [e for e in core.edges if e != cut]
        left = set(core.vertex_set())
        while left:
            root = min(left)
            paths, tree = reference_bfs(root, rest)
            left -= set(paths)
            gens = []
            for u, v, label in rest:
                if u not in paths or (u, v, label) in tree:
                    continue
                conj = base_paths[root]
                loop = (conj + paths[u] + [(label, 1)]
                        + backwards(conj + paths[v]))
                word = product(
                    [target.marking[imm.eids[k - 1]] if s > 0
                     else ~target.marking[imm.eids[k - 1]]
                     for k, s in loop], target.rank)
                gens.append(expr.express(word))
            gens = [g for g in gens if g]
            if gens:
                out.add(factor_class(gens))
    return out


@pytest.mark.parametrize("rank", [2, 3, 4])
def test_cover_walks_match_reference_tree(rank):
    rng = random.Random(300 + rank)
    seen_collapses = 0
    for i, A in enumerate(seeded_factors(rank, 6, seed=rank)):
        phi = random_automorphism(rank, rng, length=rng.randint(1, 3))
        B = factor_from_strs(rank, ["a"])
        graphs = [transformed(rose(rank), phi)]
        graphs += sample_graphs_with_embedded(B, samples=3, seed=i)[1:]
        for G in graphs:
            imm = cover_core(A, G)
            paths, _ = reference_bfs(imm.domain.basepoint, imm.domain.edges)
            assert _domain_paths(imm.domain) == paths
            got = one_edge_collapse_factors(imm)
            assert got == reference_collapse(imm)
            seen_collapses += len(got)
    assert seen_collapses > 0


def component_count(vertices, edges):
    adj = {v: set() for v in vertices}
    for u, v, _ in edges:
        adj[u].add(v)
        adj[v].add(u)
    seen = set()
    count = 0
    for v in vertices:
        if v in seen:
            continue
        count += 1
        stack = [v]
        while stack:
            x = stack.pop()
            if x not in seen:
                seen.add(x)
                stack.extend(adj[x])
    return count


def test_spanning_forest_refuses_forced_cycles():
    vs = {0, 1, 2, 3}
    triangle = [(0, 1, 1), (1, 2, 2), (2, 0, 3)]
    edges = triangle + [(2, 3, 4)]
    assert _spanning_forest(vs, edges, triangle) is None
    assert _spanning_forest(vs, edges, [(3, 3, 5)]) is None
    assert _spanning_forest(vs, (), [(0, 1, 1), (1, 0, 2)]) is None
    assert _spanning_forest(vs, (), triangle[:2]) == set(triangle[:2])


def test_spanning_forest_spans_through_forced_edges():
    rng = random.Random(7)
    for _ in range(200):
        vs = set(rng.sample(range(30), rng.randint(1, 8)))
        order = sorted(vs)
        edges = [(rng.choice(order), rng.choice(order), k)
                 for k in range(rng.randint(0, 12))]
        forced = [e for e in edges if rng.random() < 0.3]
        tree = _spanning_forest(vs, edges, forced)
        acyclic = (component_count(vs, forced)
                   == len(vs) - len(set(forced)))
        if not acyclic:
            assert tree is None
            continue
        assert set(forced) <= tree <= set(edges)
        # a forest (no cycles) with the components of the whole graph
        assert component_count(vs, tree) == len(vs) - len(tree)
        assert component_count(vs, tree) == component_count(vs, edges)


def test_components_cover_each_component_once():
    rng = random.Random(8)
    for _ in range(100):
        vs = set(rng.sample(range(30), rng.randint(1, 8)))
        order = sorted(vs)
        edges = [(rng.choice(order), rng.choice(order), k)
                 for k in range(rng.randint(0, 8))]
        parts = list(components(vs, edges))
        assert len(parts) == component_count(vs, edges)
        roots = [min(paths) for paths, _ in parts]
        assert roots == sorted(roots)
        assert sorted(v for paths, _ in parts for v in paths) == order
        for paths, tree in parts:
            assert paths[min(paths)] == []
            assert (paths, tree) == spanning_tree(min(paths), edges)


def relaxed_distances(items, adjacent, start):
    """Distances from start by relaxing every pair until nothing changes."""
    dist = {start: 0}
    changed = True
    while changed:
        changed = False
        for x in items:
            for y in items:
                if x in dist and adjacent(x, y) and dist[x] + 1 < dist.get(
                        y, len(items)):
                    dist[y] = dist[x] + 1
                    changed = True
    return dist


def test_bfs_path_is_shortest_and_asks_each_pair_once():
    rng = random.Random(9)
    for _ in range(150):
        items = list(range(rng.randint(1, 12)))
        rng.shuffle(items)
        edges = {frozenset(rng.sample(items, 2)) for _ in range(
            rng.randint(0, 20)) if len(items) > 1}
        start, goal = rng.choice(items), rng.choice(items)
        depth = rng.choice([None, 1, 2, 3])
        asked = []

        def adjacent(x, y):
            asked.append((x, y))
            return frozenset((x, y)) in edges

        path = bfs_path(start, goal, items, adjacent, max_depth=depth)
        assert len(asked) == len(set(asked))
        d = relaxed_distances(items, lambda x, y: frozenset((x, y)) in edges,
                              start).get(goal)
        if d is None or (depth is not None and d > depth):
            assert path is None
            continue
        assert path[0] == start and path[-1] == goal and len(path) == d + 1
        assert all(frozenset(p) in edges for p in zip(path, path[1:]))
