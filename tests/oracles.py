"""Independent checks that several test modules share: subgroup membership
read off a folded graph, and Farey adjacency of slopes."""


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
