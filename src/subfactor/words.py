"""Freely reduced words in F_n, automorphisms, and Whitehead automorphisms.

A word is stored as a tuple of nonzero signed generator indices: ``2`` is the
second generator, ``-2`` its inverse.  The text format maps generator ``i``
(for rank up to 26) to the i-th lowercase letter and its inverse to the
corresponding uppercase letter, so ``"abA"`` is a * b * a^-1.

Validation rule: the public constructors (``Word(rank, letters)``,
``reduce``, ``word_from_str``) check that every letter is in range and that
the letters are freely reduced.  Products, inverses, powers, cyclic
reduction and automorphism images are reduced by construction and built
with ``_word``, which trusts its letters and checks nothing.
"""

from __future__ import annotations

import functools
import itertools
import math
import string
from dataclasses import dataclass
from operator import neg


def _check_letters(rank, letters):
    for x in letters:
        if x == 0 or abs(x) > rank:
            raise ValueError(f"letter {x} out of range for rank {rank}")


def free_reduce(letters):
    """Freely reduce a letter sequence (cancel adjacent x, x^-1 pairs)."""
    out = []
    for x in letters:
        if out and out[-1] == -x:
            out.pop()
        else:
            out.append(x)
    return tuple(out)


def _join(pieces, stop=None):
    """Concatenate freely reduced letter tuples, cancelling only where one
    piece meets the next; the result is freely reduced.  Given a stop
    length, None as soon as the reduced prefix is longer than stop."""
    out = []
    pop = out.pop
    for p in pieces:
        k = 0
        n = len(p)
        while k < n and out and out[-1] == -p[k]:
            pop()
            k += 1
        out.extend(p[k:] if k else p)
        if stop is not None and len(out) > stop:
            return None
    return tuple(out)


def _released(phi, letters, bound, trim=0):
    """The letters of phi(w), w reduced with the given letters, in order and
    less trim letters at each end, each passed on as soon as no later piece
    can cancel it.  After the pieces of a prefix p of w, phi(w) begins with
    all of phi(p) but its last bound letters when bound is Cooper's
    constant of phi (Automorphism.cancellation_bound).  Fed to _join, the
    letters reach it in the order phi(w) gives them, so its stop comes at
    the same place.  RuntimeError when a piece cancels a released letter or
    the image ends inside the released ones: the bound was too small."""
    return itertools.chain.from_iterable(_release(phi, letters, bound, trim))


def _release(phi, letters, bound, trim):
    """The runs of letters _released passes on, one list per piece."""
    out = []
    pop = out.pop
    done = trim  # out[trim:done] are released
    for p in phi.pieces(letters):
        k = 0
        n = len(p)
        while k < n and out and out[-1] == -p[k]:
            pop()
            k += 1
        if done > trim and len(out) < done:
            raise RuntimeError("a piece cancelled a released letter")
        out.extend(p[k:] if k else p)
        end = len(out) - bound - trim
        if end > done:
            yield out[done:end]
            done = end
    if len(out) - trim < done:
        raise RuntimeError("the image ended inside its released letters")
    yield out[done:len(out) - trim]


def _cyclic_released(phi, letters, bound):
    """The letters of a cyclically reduced conjugate of phi(w), w
    cyclically reduced with the given letters, streamed as by _released
    with bound Cooper's constant of phi.

    phi(w) = c v c^-1 with v cyclically reduced and |c| <= bound: phi(w^m)
    lies within bound of [1, phi(w^2m)] for every m (Cooper, J. Algebra
    111, 1987), so, translating by phi(w)^-m and letting m grow, 1 lies
    within bound of the axis of phi(w), and |c| is that distance.  So c is
    read off the first letters of phi(w) and of phi(w^-1), and v is phi(w)
    less |c| letters at each end."""
    head = tuple(itertools.islice(_released(phi, letters, bound),
                                  2 * bound + 1))
    if len(head) <= 2 * bound:  # the whole image
        return _cyclic_core(head)
    tail = tuple(itertools.islice(
        _released(phi, _inverse_letters(letters), bound), bound + 1))
    k = 0
    while head[k] == tail[k]:
        k += 1
        if k > bound:
            raise RuntimeError("the image conjugates by more than the bound")
    return _released(phi, letters, bound, k)


def _inverse_letters(letters):
    return tuple(map(neg, reversed(letters)))


def _cyclic_core(letters):
    """The letters of the cyclic reduction of reduced letters."""
    i, j = 0, len(letters)
    while j - i >= 2 and letters[i] == -letters[j - 1]:
        i += 1
        j -= 1
    return letters[i:j]


def _image_table(images):
    """Letter -> letters of its image, for x_i -> images[i-1] and inverses."""
    table = {}
    for i, w in enumerate(images, 1):
        table[i] = w.letters
        table[-i] = _inverse_letters(w.letters)
    return table


def _power(x, n, identity):
    """x ** n for n >= 0 by repeated squaring."""
    out = identity
    while n:
        if n & 1:
            out = out * x
        n >>= 1
        if n:
            x = x * x
    return out


@dataclass(frozen=True)
class Word:
    rank: int
    letters: tuple

    def __post_init__(self):
        if self.rank < 1:
            raise ValueError("rank must be positive")
        _check_letters(self.rank, self.letters)
        if self.letters != free_reduce(self.letters):
            raise ValueError("letters are not freely reduced; use reduce()")

    @staticmethod
    def identity(rank):
        return _word(rank, ())

    def __len__(self):
        return len(self.letters)

    def __bool__(self):
        return bool(self.letters)

    def __mul__(self, other):
        if self.rank != other.rank:
            raise ValueError("rank mismatch")
        return _word(self.rank, _join((self.letters, other.letters)))

    def __invert__(self):
        return _word(self.rank, _inverse_letters(self.letters))

    def __pow__(self, n):
        if n < 0:
            return (~self) ** (-n)
        return _power(self, n, Word.identity(self.rank))

    def __str__(self):
        return word_to_str(self)

    def __repr__(self):
        return f"Word({self.rank}, {word_to_str(self)!r})"


def _word(rank, letters):
    """A Word from a letter tuple that is in range and freely reduced by
    construction; nothing is checked."""
    w = object.__new__(Word)
    w.__dict__.update(rank=rank, letters=letters)
    return w


def reduce(rank, letters):
    """Build a Word from a raw letter sequence, cancelling as needed."""
    _check_letters(rank, letters)
    return Word(rank, free_reduce(letters))


def word_from_str(rank, text):
    if rank > 26:
        raise ValueError("text format supports rank <= 26")
    letters = []
    for ch in text:
        if ch.isspace():
            continue
        if ch in string.ascii_lowercase:
            letters.append(string.ascii_lowercase.index(ch) + 1)
        elif ch in string.ascii_uppercase:
            letters.append(-(string.ascii_uppercase.index(ch) + 1))
        else:
            raise ValueError(f"bad character {ch!r} in word")
    return reduce(rank, letters)


def word_to_str(w):
    out = []
    for x in w.letters:
        if x > 0:
            out.append(string.ascii_lowercase[x - 1])
        else:
            out.append(string.ascii_uppercase[-x - 1])
    return "".join(out)


def cyclic_reduce(w):
    """Return (core, conjugator) with w = conjugator * core * conjugator^-1."""
    core = _cyclic_core(w.letters)
    i = (len(w) - len(core)) // 2
    return _word(w.rank, core), _word(w.rank, w.letters[:i])


def is_cyclically_reduced(w):
    return not w.letters or w.letters[0] != -w.letters[-1]


def cyclic_words(rank, max_len):
    """One word per conjugacy class of cyclically reduced words of length 1
    to max_len up to inversion: the least rotation of the word and of its
    inverse.  Ordered by length, then letter by letter with generators in
    order and each before its inverse.

    The least letter of such a word, -m for its largest generator m, leads
    it, so only words starting with -m and using generators up to m are
    generated.  Any other rotation that is smaller must also start with -m,
    so only the rotations where -m recurs in the word, or occurs in its
    inverse (where m occurs in the word), are compared."""
    for length in range(1, max_len + 1):
        for top in range(1, rank + 1):
            alphabet = [x for s in range(1, top + 1) for x in (s, -s)]
            for letters in _reduced_extensions((-top,), alphabet, length):
                if letters[-1] != top and _is_least_rotation(letters):
                    yield _word(rank, letters)


def _is_least_rotation(letters):
    """No rotation of letters or of its inverse is smaller (see
    cyclic_words); letters leads with lo and does not end with -lo."""
    lo = letters[0]
    inverse = (_inverse_letters(letters),) if -lo in letters else ()
    for base in (letters,) + inverse:
        i = 0
        for _ in range(base.count(lo) - (base is letters)):
            i = base.index(lo, i + 1)
            if base[i:] + base[:i] < letters:
                return False
    return True


def _reduced_extensions(prefix, alphabet, length):
    """Freely reduced tuples of the given length extending prefix, in
    product order of the alphabet."""
    if len(prefix) == length:
        yield prefix
        return
    for x in alphabet:
        if x != -prefix[-1]:
            yield from _reduced_extensions(prefix + (x,), alphabet, length)


def abelianize(w):
    """Exponent-sum vector of w, one entry per generator."""
    vec = [0] * w.rank
    for x in w.letters:
        vec[abs(x) - 1] += 1 if x > 0 else -1
    return tuple(vec)


@dataclass(frozen=True)
class Automorphism:
    """An automorphism of F_n given by generator images.

    The basis invariant (images generate all of F_n) is not enforced here;
    the stallings module certifies it by folding.
    """

    rank: int
    images: tuple

    def __post_init__(self):
        if len(self.images) != self.rank:
            raise ValueError("need one image per generator")
        for w in self.images:
            if w.rank != self.rank:
                raise ValueError("image rank mismatch")

    @staticmethod
    def identity(rank):
        return Automorphism(rank, tuple(Word(rank, (i + 1,)) for i in range(rank)))

    @staticmethod
    def from_strs(rank, texts):
        return Automorphism(rank, tuple(word_from_str(rank, t) for t in texts))

    def __call__(self, w):
        """The image of w."""
        if w.rank != self.rank:
            raise ValueError("rank mismatch")
        return _word(self.rank, _join(self.pieces(w.letters)))

    def pieces(self, letters):
        """The image of each letter, in order, as letter tuples."""
        table = self.__dict__.get("_table")
        if table is None:
            table = _image_table(self.images)
            object.__setattr__(self, "_table", table)
        return map(table.__getitem__, letters)

    def cancellation_bound(self, inverse):
        """Cooper's bounded cancellation constant, given the inverse:
        Lip(phi) * floor(Lip(phi^-1) / 2), where Lip is the longest image of
        a generator (D. Cooper, J. Algebra 111, 1987)."""
        return (max(map(len, self.images))
                * (max(map(len, inverse.images)) // 2))

    def __mul__(self, other):
        """Composition: (f * g)(w) == f(g(w))."""
        if self.rank != other.rank:
            raise ValueError("rank mismatch")
        return Automorphism(self.rank, tuple(self(w) for w in other.images))

    def __pow__(self, n):
        if n < 0:
            raise ValueError("negative powers need an explicit inverse")
        return _power(self, n, Automorphism.identity(self.rank))

    def is_identity(self):
        return all(w.letters == (i + 1,) for i, w in enumerate(self.images))

    def __str__(self):
        return "[" + ",".join(word_to_str(w) for w in self.images) + "]"


def whitehead_move(rank, i):
    """Move i (from 0) of the Whitehead automorphisms of F_rank in a fixed
    order: the 2^rank * rank! signed permutations, permutation-major in
    itertools order with signs in product order of (1, -1), then the type
    II moves block by block as in whitehead_type2."""
    signed = 2 ** rank * math.factorial(rank)
    if i >= signed:
        block, index = divmod(i - signed, 4 ** (rank - 1) - 1)
        return type2_move(rank, (block // 2 + 1) * (-1) ** block, index + 1)
    perm, signs = divmod(i, 2 ** rank)
    rest = list(range(1, rank + 1))
    images = []
    for k in range(rank - 1, -1, -1):
        j, perm = divmod(perm, math.factorial(k))
        x = rest.pop(j)
        images.append(_word(rank, (-x if signs >> k & 1 else x,)))
    return Automorphism(rank, tuple(images))


def type2_move(rank, a, index):
    """The type II Whitehead move with multiplier a that fixes |a| and
    replaces every other generator x, in order, by x, x*a, a^-1*x or
    a^-1*x*a for the base-4 digits 0 to 3 of index, most significant first;
    index 0 is the identity."""
    g = abs(a)
    images = []
    for x in range(1, rank + 1):
        c = 0 if x == g else index >> 2 * (rank - x - (x < g)) & 3
        images.append(_word(rank, (-a,) * (c >> 1) + (x,) + (a,) * (c & 1)))
    return Automorphism(rank, tuple(images))


@functools.cache
def whitehead_type2(rank):
    """The cuts of the non-identity type II Whitehead moves of F_rank, built
    once per rank; edge-count descent needs only these moves, since type I
    moves never change complexity.

    One block per multiplier a = 1, -1, 2, -2, ...; entry k - 1 of a block
    belongs to type2_move(rank, a, k).  A move's cut (A, a) holds a, each x
    with x -> x*a or a^-1*x*a, and x^-1 for each x with x -> a^-1*x or
    a^-1*x*a; the entry is the bitmask of A^-1, with bit rank + y for
    letter y.  Distinct choices give distinct moves, since a non-identity
    choice puts a beside some x, which reads back a and every choice.
    """
    blocks = []
    for g in range(1, rank + 1):
        choices = [(0, 1 << rank - x, 1 << rank + x,
                    1 << rank - x | 1 << rank + x)
                   for x in range(1, rank + 1) if x != g]
        masks = tuple(map(sum, itertools.product(*choices)))[1:]
        for a in (g, -g):
            bit = 1 << rank - a
            blocks.append(tuple(m | bit for m in masks))
    return tuple(blocks)
