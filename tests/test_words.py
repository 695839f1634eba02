import itertools
import random
import sys
from pathlib import Path

import pytest
from hypothesis import given, strategies as st

from subfactor.cli import FILLING_PSI
from subfactor.stallings import invert_automorphism, random_automorphism
from subfactor.words import (
    Automorphism,
    Word,
    _cyclic_core,
    _cyclic_released,
    _join,
    _released,
    abelianize,
    cyclic_reduce,
    cyclic_words,
    free_reduce,
    is_cyclically_reduced,
    reduce,
    type2_move,
    whitehead_move,
    whitehead_type2,
    word_from_str,
    word_to_str,
)

sys.path.insert(0, str(Path(__file__).resolve().parent))
from oracles import whitehead_reference  # noqa: E402


letters = st.lists(st.sampled_from([1, -1, 2, -2, 3, -3]), max_size=12)


@st.composite
def ranked_words(draw, count):
    """`count` reduced words of one drawn rank between 2 and 5."""
    rank = draw(st.integers(2, 5))
    letter = st.integers(1, rank).flatmap(lambda i: st.sampled_from((i, -i)))
    return [reduce(rank, draw(st.lists(letter, max_size=16)))
            for _ in range(count)]


# reference implementations: reduce the whole concatenation after every
# product, and build powers by repeated multiplication


def ref_inverse(letters):
    return tuple(-x for x in reversed(letters))


def ref_apply(phi, w):
    out = []
    for x in w.letters:
        img = phi.images[abs(x) - 1].letters
        out.extend(img if x > 0 else ref_inverse(img))
    return free_reduce(out)


def ref_power(x, n, identity):
    out = identity
    for _ in range(n):
        out = x * out
    return out


def ref_cyclic_words(rank, max_len):
    alphabet = [x for s in range(1, rank + 1) for x in (s, -s)]
    for length in range(1, max_len + 1):
        for letters in itertools.product(alphabet, repeat=length):
            if free_reduce(letters) != letters:
                continue
            if length >= 2 and letters[0] == -letters[-1]:
                continue
            inv = ref_inverse(letters)
            rotations = [base[i:] + base[:i] for base in (letters, inv)
                         for i in range(length)]
            if min(rotations) == letters:
                yield letters


def w(text, rank=2):
    return word_from_str(rank, text)


def test_reduce_basic():
    assert word_to_str(w("abBA")) == ""
    assert word_to_str(w("abAB")) == "abAB"
    assert word_to_str(w("aA")) == ""
    assert word_to_str(reduce(2, (1, 2, -2, 2))) == "ab"


@given(letters)
def test_reduce_idempotent(ls):
    assert free_reduce(free_reduce(ls)) == free_reduce(ls)


@given(letters)
def test_inverse_cancels(ls):
    x = reduce(3, ls)
    assert not (x * ~x)
    assert not (~x * x)


@given(letters, letters)
def test_abelianize_homomorphism(ls, ms):
    x, y = reduce(3, ls), reduce(3, ms)
    assert abelianize(x * y) == tuple(
        a + b for a, b in zip(abelianize(x), abelianize(y))
    )


def test_cyclic_reduce():
    core, conj = cyclic_reduce(w("aBabA"))
    assert word_to_str(core) == "a"
    assert word_to_str(conj) == "aB"
    assert conj * core * ~conj == w("aBabA")
    assert is_cyclically_reduced(core)

    core, conj = cyclic_reduce(w("ab"))
    assert word_to_str(core) == "ab" and not conj


@given(letters)
def test_cyclic_reduce_invariants(ls):
    x = reduce(3, ls)
    core, conj = cyclic_reduce(x)
    assert is_cyclically_reduced(core)
    assert conj * core * ~conj == x


def test_word_str_roundtrip():
    for s in ["", "a", "Ab", "aBc", "ccA"]:
        assert word_to_str(word_from_str(3, s)) == s
    with pytest.raises(ValueError):
        word_from_str(2, "c")
    with pytest.raises(ValueError):
        word_from_str(2, "a!")


def test_word_rejects_unreduced():
    with pytest.raises(ValueError):
        Word(2, (1, -1))
    for bad in [(1, 2, -2), (3,), (0,), (1, -3)]:
        with pytest.raises(ValueError):
            Word(2, bad)
    for bad in [(1, 3), (0,), (-3, 3)]:
        with pytest.raises(ValueError):
            reduce(2, bad)
    for bad in ["aC", "ab0"]:
        with pytest.raises(ValueError):
            word_from_str(2, bad)


@given(ranked_words(3))
def test_product_cancels_only_at_the_junction(ws):
    x, y, z = ws
    assert (x * y).letters == free_reduce(x.letters + y.letters)
    assert (x * y * ~y).letters == x.letters
    assert (~x).letters == ref_inverse(x.letters)
    assert not (x * ~x) and not (~x * x)
    assert (x * y * z * ~z * ~y).letters == x.letters
    core, conj = cyclic_reduce(x)
    assert (conj * core * ~conj) == x


@given(ranked_words(1), st.integers(0, 9))
def test_word_power_matches_repeated_product(ws, n):
    (x,) = ws
    ref = ref_power(x, n, Word.identity(x.rank))
    assert x ** n == ref
    assert x ** -n == ~ref


@pytest.mark.parametrize("rank", [2, 3, 4, 5])
def test_automorphism_kernel_matches_reference(rank):
    rng = random.Random(rank)
    for _ in range(6):
        phi = random_automorphism(rank, rng, length=rng.randint(1, 6))
        inv = invert_automorphism(phi)
        for _ in range(8):
            w = reduce(rank, [rng.choice((1, -1)) * rng.randint(1, rank)
                              for _ in range(rng.randint(0, 20))])
            assert phi(w).letters == ref_apply(phi, w)
            assert phi(inv(w)) == w and inv(phi(w)) == w
            assert phi(w * ~w) == Word.identity(rank)
        for n in range(7):
            assert phi ** n == ref_power(phi, n, Automorphism.identity(rank))


@pytest.mark.parametrize("rank,max_len", [(1, 5), (2, 7), (3, 5), (4, 4),
                                          (2, 9), (3, 6)])
def test_cyclic_words_match_filtered_product(rank, max_len):
    got = [w.letters for w in cyclic_words(rank, max_len)]
    assert got == list(ref_cyclic_words(rank, max_len))


def _random_reduced(rank, rng, n):
    return reduce(rank, [rng.choice((1, -1)) * rng.randint(1, rank)
                         for _ in range(n)])


@pytest.mark.parametrize("rank", [2, 3, 4])
def test_cancellation_is_bounded(rank):
    # Cooper: at most Lip(phi) * floor(Lip(phi^-1) / 2) letters cancel
    # between phi(u) and phi(v) when uv is reduced, so a prefix image is
    # never more than that longer than the whole image
    rng = random.Random(10 + rank)
    autos = [random_automorphism(rank, rng, length=rng.randint(2, 8))
             for _ in range(8)]
    autos = [(phi, invert_automorphism(phi)) for phi in autos]
    if rank == 3:
        psi = Automorphism.from_strs(3, list(FILLING_PSI))
        autos.append((psi, invert_automorphism(psi)))
        assert psi.cancellation_bound(autos[-1][1]) == 24 * (49 // 2)
    most = 0
    for phi, inv in autos:
        bound = phi.cancellation_bound(inv)
        for _ in range(40):
            u = _random_reduced(rank, rng, rng.randint(1, 30))
            v = _random_reduced(rank, rng, rng.randint(1, 30))
            if not (u and v) or (u * v).letters != u.letters + v.letters:
                continue
            cancelled = (len(phi(u)) + len(phi(v)) - len(phi(u * v))) // 2
            assert cancelled <= bound
            assert len(phi(u * v)) >= len(phi(u)) - bound
            most = max(most, cancelled)
            # so the image never stops at the stop length |phi(uv)| + bound,
            # and always stops below |phi(uv)|
            full = phi(u * v)
            pieces = (u * v).letters
            assert (_join(phi.pieces(pieces), stop=len(full) + bound)
                    == full.letters)
            assert _join(phi.pieces(pieces), stop=len(full) - 1) is None
    assert most > 0


@pytest.mark.parametrize("rank", [2, 3, 4])
def test_streamed_stage_gives_the_full_image(rank):
    # phi's letters, released one by one as its Cooper bound certifies
    # them, make phi(w); fed to psi they give psi(phi(w)) and the same stop
    # as the full image does; and for w cyclically reduced the cyclic
    # stream is the cyclic reduction of phi(w)
    rng = random.Random(30 + rank)
    autos = [random_automorphism(rank, rng, length=rng.randint(2, 8))
             for _ in range(6)]
    autos = [(phi, phi.cancellation_bound(invert_automorphism(phi)))
             for phi in autos]
    stopped = 0
    for (phi, bound), (psi, _) in zip(autos, autos[1:] + autos[:1]):
        for _ in range(20):
            w = _random_reduced(rank, rng, rng.randint(1, 40))
            if not w:
                continue
            full = phi(w).letters
            assert tuple(_released(phi, w.letters, bound)) == full
            whole = _join(psi.pieces(full))
            for stop in (None, len(whole), len(whole) - 1,
                         rng.randint(0, len(whole))):
                want = _join(psi.pieces(full), stop)
                got = _join(psi.pieces(_released(phi, w.letters, bound)),
                            stop)
                assert got == want
                stopped += got is None
            u = cyclic_reduce(w)[0].letters
            assert (tuple(_cyclic_released(phi, u, bound))
                    == _cyclic_core(phi(Word(rank, u)).letters))
    assert stopped > 0


def test_streamed_stage_with_too_small_a_bound_raises():
    # psi^2 cancels most of psi^2's image of psi^-2(a) on the way back to
    # a, so a stream that releases letters at once is caught cancelling one
    psi = Automorphism.from_strs(3, list(FILLING_PSI))
    sq = psi * psi
    inv = invert_automorphism(psi)
    w = (inv * inv)(Word(3, (1,))).letters
    bound = sq.cancellation_bound(inv * inv)
    assert tuple(_released(sq, w, bound)) == (1,)
    with pytest.raises(RuntimeError):
        tuple(_released(sq, w, 0))


def type2_cuts(rank):
    """(multiplier, index, A^-1 bitmask) of each type II move, in
    whitehead_type2 order."""
    multipliers = [a for g in range(1, rank + 1) for a in (g, -g)]
    return [(a, k, mask)
            for a, block in zip(multipliers, whitehead_type2(rank))
            for k, mask in enumerate(block, 1)]


def test_whitehead_type2_built_once():
    # the per-rank cache holds integers only: one block of 4^(n-1) - 1
    # masks per multiplier, and no automorphism
    blocks = whitehead_type2(3)
    assert blocks is whitehead_type2(3)
    assert [len(block) for block in blocks] == [15] * 6
    assert all(type(mask) is int for block in blocks for mask in block)
    assert type2_move(3, 2, 0).is_identity()


@pytest.mark.parametrize("rank", [2, 3, 4, 5])
def test_whitehead_moves_match_filtered_reference(rank):
    # every index unranks to the reference move, and every type II move
    # and its cut mask match the reference move and its recorded cut
    every, type2 = whitehead_reference(rank)
    assert ([whitehead_move(rank, i).images for i in range(len(every))]
            == [phi.images for phi in every])
    cuts = type2_cuts(rank)
    assert len(cuts) == len(type2)
    for (a, k, mask), phi in zip(cuts, type2):
        assert type2_move(rank, a, k).images == phi.images
        A, multiplier = phi._cut
        assert multiplier == a
        assert mask == sum(1 << (rank - x) for x in A)


@pytest.mark.parametrize("rank", [2, 3, 4, 5])
def test_random_automorphism_draws_as_choice_from_the_reference(rank):
    every, _ = whitehead_reference(rank)
    for seed in range(12):
        rng, ref = random.Random(seed), random.Random(seed)
        length = ref.randint(1, 6)
        assert rng.randint(1, 6) == length
        want = Automorphism.identity(rank)
        for _ in range(length):
            want = ref.choice(every) * want
        got = random_automorphism(rank, rng, length=length)
        assert got.images == want.images
        # both streams made the same calls
        assert rng.random() == ref.random()


def test_automorphism_apply_and_compose():
    phi = Automorphism.from_strs(2, ["ab", "b"])
    assert word_to_str(phi(w("a"))) == "ab"
    assert word_to_str(phi(w("aB"))) == "a"
    psi = Automorphism.from_strs(2, ["b", "a"])
    # (phi * psi)(a) = phi(psi(a)) = phi(b) = b
    assert word_to_str((phi * psi)(w("a"))) == "b"
    assert word_to_str((psi * phi)(w("a"))) == "ba"
    assert (phi ** 0).is_identity()
    assert word_to_str((phi ** 2)(w("a"))) == "abb"


def test_whitehead_count_rank2():
    # 8 signed permutations; type II contributes 13 distinct maps, one of
    # which (the identity) is already a signed permutation
    autos = [whitehead_move(2, i) for i in range(20)]
    assert sum(len(block) for block in whitehead_type2(2)) == 12
    keys = {tuple(x.letters for x in f.images) for f in autos}
    assert len(keys) == 20


def test_whitehead_closed_under_inverse():
    autos = [whitehead_move(2, i) for i in range(20)]
    keys = {tuple(x.letters for x in f.images) for f in autos}
    for f in autos:
        # the inverse of a Whitehead automorphism is again one; find it
        assert any(
            (f * g).is_identity()
            for g in autos
        ), f
    assert Automorphism.identity(2) is not None
    assert tuple(x.letters for x in Automorphism.identity(2).images) in keys
