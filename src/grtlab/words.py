"""Graded alphabets, Lyndon words, and dimension counts for free Lie algebras.

Words are tuples of letter indices into a :class:`GradedAlphabet`; every
letter carries a positive integer degree and the degree of a word is the
sum over its letters.  Lyndon words of a fixed degree index a basis of the
corresponding graded piece of the free Lie algebra, which is what the rest
of the package is built on.

The convention used for display throughout the package is that a
generator of degree ``n`` sits in weight ``-2*n``; see :func:`tate_weight`.
"""

from __future__ import annotations

import functools
from math import comb
from typing import Iterable, Iterator, Sequence

from .errors import AtomicWordError, PreconditionError

Word = tuple[int, ...]


class GradedAlphabet:
    """An ordered, finite alphabet of named generators with positive degrees.

    Accepts either a whitespace-separated string of names (all degree 1),
    an iterable of names, or an iterable of ``(name, degree)`` pairs.  In a
    string, a name may carry an explicit degree as ``name:degree``.

    >>> GradedAlphabet("x y").degrees
    (1, 1)
    >>> GradedAlphabet([("a", 3), ("b", 5)]).degrees
    (3, 5)
    """

    __slots__ = ("names", "degrees", "_index", "_unit_degrees")

    def __init__(self, letters: str | Iterable):
        if isinstance(letters, str):
            items = []
            for chunk in letters.split():
                if ":" in chunk:
                    name, _, deg = chunk.partition(":")
                    items.append((name, int(deg) if deg.isdecimal() else 0))
                else:
                    items.append((chunk, 1))
        else:
            items = [(l, 1) if isinstance(l, str) else (l[0], int(l[1]))
                     for l in letters]
        if not items:
            raise PreconditionError(
                "alphabet must contain at least one letter")
        names, degrees = zip(*items)
        if len(set(names)) != len(names):
            raise PreconditionError("duplicate letter names")
        for name, deg in items:
            if not name or not all(c.isalnum() or c == "_" for c in name) \
                    or name[0].isdigit():
                raise PreconditionError(f"invalid letter name {name!r}")
            if deg < 1:
                raise PreconditionError(
                    f"letter {name!r} needs a positive integer degree")
        self.names: tuple[str, ...] = tuple(names)
        self.degrees: tuple[int, ...] = tuple(degrees)
        self._index = {name: i for i, name in enumerate(names)}
        self._unit_degrees = all(d == 1 for d in self.degrees)

    def __len__(self) -> int:
        return len(self.names)

    def __eq__(self, other) -> bool:
        return (isinstance(other, GradedAlphabet)
                and self.names == other.names
                and self.degrees == other.degrees)

    def __hash__(self) -> int:
        return hash((self.names, self.degrees))

    def __repr__(self) -> str:
        if self._unit_degrees:
            return f"GradedAlphabet({' '.join(self.names)!r})"
        inner = " ".join(f"{n}:{d}" for n, d in zip(self.names, self.degrees))
        return f"GradedAlphabet({inner!r})"

    def index(self, name: str) -> int:
        try:
            return self._index[name]
        except KeyError:
            raise KeyError(f"no generator named {name!r}") from None

    def word_degree(self, word: Sequence[int]) -> int:
        if self._unit_degrees:
            return len(word)
        return sum(self.degrees[i] for i in word)

    def word_str(self, word: Sequence[int]) -> str:
        """Plain (unbracketed) rendering of a word, e.g. ``'xxy'``."""
        sep = "" if all(len(n) == 1 for n in self.names) else "."
        return sep.join(self.names[i] for i in word)


def is_lyndon(word: Sequence[int]) -> bool:
    """True iff ``word`` is nonempty and strictly smaller than each of its
    proper suffixes, which for nonempty words is the same as strictly
    smaller than each of its proper rotations."""
    w = tuple(word)
    return bool(w) and all(w < w[i:] for i in range(1, len(w)))


@functools.lru_cache(maxsize=None)
def _lyndon_tuples(degrees: tuple[int, ...], target: int) -> tuple[Word, ...]:
    """All Lyndon words of the given total degree, in lexicographic order.

    Generation walks the tree of pre-necklaces (prefixes of powers of Lyndon
    words) in the style of Cattell-Ruskey-Sawada-Serra, pruned by the weight
    bound; a branch is a Lyndon word exactly when its period equals its
    length.  This is output-sensitive, unlike filtering all words of a given
    length, which is hopeless for alphabets with letters of large degree.
    """
    k = len(degrees)
    out: list[Word] = []
    word: list[int] = []

    def extend(period: int, weight: int) -> None:
        t = len(word)
        start = word[t - period] if t >= period else 0
        for c in range(start, k):
            w2 = weight + degrees[c]
            if w2 > target:
                continue  # degrees need not be sorted, so no break
            new_period = period if (t >= period and c == word[t - period]) \
                else t + 1
            word.append(c)
            if w2 == target and new_period == t + 1:
                out.append(tuple(word))
            extend(new_period, w2)
            word.pop()

    if target >= 1:
        extend(1, 0)
    return tuple(out)


class LyndonWord:
    """A Lyndon word over a graded alphabet.

    The constructor enforces the Lyndon property, so instances can be
    trusted downstream.  Comparison is lexicographic on letter indices.
    """

    __slots__ = ("alphabet", "letters", "degree")

    def __init__(self, alphabet: GradedAlphabet, letters: Sequence[int]):
        letters = tuple(letters)
        if not all(0 <= i < len(alphabet) for i in letters):
            raise PreconditionError(f"letter index out of range in {letters}")
        if not is_lyndon(letters):
            raise PreconditionError(
                f"{alphabet.word_str(letters)!r} is not a Lyndon word")
        self.alphabet = alphabet
        self.letters: Word = letters
        self.degree: int = alphabet.word_degree(letters)

    @classmethod
    def _trusted(cls, alphabet: GradedAlphabet, letters: Word) -> "LyndonWord":
        """An instance for a letter tuple already known to be a Lyndon
        word over ``alphabet``, without the constructor's checks: for the
        words this module generates or factors."""
        w = cls.__new__(cls)
        w.alphabet = alphabet
        w.letters = letters
        w.degree = alphabet.word_degree(letters)
        return w

    def __eq__(self, other) -> bool:
        return (isinstance(other, LyndonWord)
                and self.alphabet == other.alphabet
                and self.letters == other.letters)

    def __hash__(self) -> int:
        return hash((self.alphabet, self.letters))

    def __lt__(self, other: "LyndonWord") -> bool:
        return self.letters < other.letters

    def __le__(self, other: "LyndonWord") -> bool:
        return self.letters <= other.letters

    def __len__(self) -> int:
        return len(self.letters)

    def __repr__(self) -> str:
        return f"LyndonWord({self.alphabet.word_str(self.letters)!r})"

    def __str__(self) -> str:
        return self.alphabet.word_str(self.letters)


def lyndon_words(alphabet: GradedAlphabet, degree: int) -> list[LyndonWord]:
    """Lyndon words of the given total degree, lexicographically sorted."""
    if degree < 1:
        return []
    return [LyndonWord._trusted(alphabet, w)
            for w in _lyndon_tuples(alphabet.degrees, degree)]


@functools.lru_cache(maxsize=None)
def _std_factorization(letters: Word) -> tuple[Word, Word]:
    """Standard factorization w = u v of a Lyndon word w of length >= 2,
    with v the longest proper Lyndon suffix of w.  That suffix is the
    lexicographically least proper suffix: the least one is smaller than
    its own suffixes, hence Lyndon, and a longer Lyndon suffix would be
    smaller still.  Both factors are Lyndon and u < v."""
    v = min(letters[i:] for i in range(1, len(letters)))
    return letters[:len(letters) - len(v)], v


def standard_factorization(w: LyndonWord) -> tuple[LyndonWord, LyndonWord]:
    """Split a composite Lyndon word as u v with v the longest proper
    Lyndon suffix.  Raises :class:`AtomicWordError` on single letters."""
    if len(w) == 1:
        raise AtomicWordError(
            f"single letter {w} has no standard factorization")
    u, v = _std_factorization(w.letters)
    return (LyndonWord._trusted(w.alphabet, u),
            LyndonWord._trusted(w.alphabet, v))


# ---------------------------------------------------------------------------
# dimension counts


def _divisors(n: int) -> list[int]:
    small, large = [], []
    d = 1
    while d * d <= n:
        if n % d == 0:
            small.append(d)
            if d * d != n:
                large.append(n // d)
        d += 1
    return small + large[::-1]


def _mobius(n: int) -> int:
    if n == 1:
        return 1
    result, p = 1, 2
    while p * p <= n:
        if n % p == 0:
            n //= p
            if n % p == 0:
                return 0
            result = -result
        p += 1
    if n > 1:
        result = -result
    return result


def witt_dim(num_letters: int, degree: int) -> int:
    """Number of Lyndon words of length ``degree`` over ``num_letters``
    letters: (1/n) * sum_{d | n} mu(d) k^(n/d)."""
    if num_letters < 1 or degree < 1:
        raise PreconditionError(
            "witt_dim needs num_letters >= 1 and degree >= 1")
    n = degree
    total = sum(_mobius(d) * num_letters ** (n // d) for d in _divisors(n))
    if total % n:
        raise AssertionError(
            f"necklace sum {total} is not divisible by the degree {n}")
    return total // n


def _dims_by_necklace(degrees: tuple[int, ...], max_degree: int) -> dict[int, int]:
    return {n: len(_lyndon_tuples(degrees, n))
            for n in range(1, max_degree + 1)}


def _dims_by_pbw(degrees: tuple[int, ...], max_degree: int) -> dict[int, int]:
    """Recover the graded dimensions a_n from the identity

        prod_n (1 - t^n)^(-a_n) = 1 / (1 - g(t)),

    g(t) = sum of t^(deg) over the letters: the right side counts all words
    by degree, and the left side is the Poincare series of the enveloping
    algebra.  Peel off one exponent per degree, lowest first."""
    N = max_degree
    words = [0] * (N + 1)
    words[0] = 1
    for m in range(1, N + 1):
        words[m] = sum(words[m - d] for d in degrees if d <= m)
    dims: dict[int, int] = {}
    series = words[:]          # running series, divided down as we go
    for n in range(1, N + 1):
        a = series[n]
        dims[n] = a
        if a:
            # multiply by (1 - t^n)^a; comb vanishes past j = a
            factor = [0] * (N + 1)
            for j in range(0, N // n + 1):
                factor[n * j] = (-1) ** j * comb(a, j)
            out = [0] * (N + 1)
            for i in range(N + 1):
                si = series[i]
                if si:
                    for j in range(0, (N - i) // n + 1):
                        out[i + n * j] += si * factor[n * j]
            series = out
        if series[n]:
            raise AssertionError(
                f"degree {n}: the PBW series keeps {series[n]} after "
                "its factor is divided out")
    return dims


def weighted_witt_dims(generator_degrees: Iterable[int],
                       max_degree: int) -> dict[int, int]:
    """Graded dimensions of the free Lie algebra on generators of the
    given degrees, computed two independent ways (Lyndon enumeration and
    the enveloping-algebra product formula) and cross-checked."""
    degrees = tuple(generator_degrees)
    if not degrees or any(d < 1 for d in degrees):
        raise PreconditionError("generator degrees must be positive integers")
    if max_degree < 0:
        raise PreconditionError("max_degree must be >= 0")
    by_necklace = _dims_by_necklace(degrees, max_degree)
    by_pbw = _dims_by_pbw(degrees, max_degree)
    if by_necklace != by_pbw:
        raise AssertionError(
            f"dimension routes disagree: {by_necklace} vs {by_pbw}")
    return by_necklace


def tate_weight(degree: int) -> int:
    """Weight carried by a degree-n graded piece in the display convention
    used throughout: degree n sits in weight -2n."""
    return -2 * degree


def all_words(alphabet: GradedAlphabet, degree: int) -> Iterator[Word]:
    """All words (not just Lyndon) of the given total degree, lex order."""
    k = len(alphabet)
    degs = alphabet.degrees

    def rec(prefix: Word, remaining: int) -> Iterator[Word]:
        if remaining == 0:
            yield prefix
            return
        for c in range(k):
            if degs[c] <= remaining:
                yield from rec(prefix + (c,), remaining - degs[c])

    if degree >= 0:
        yield from rec((), degree)
