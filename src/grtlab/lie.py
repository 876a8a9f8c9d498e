"""Free Lie algebra elements in the Lyndon basis.

An element is a finite rational combination of Lyndon words; the word ``w``
stands for its standard bracketing sigma(w), defined recursively by
sigma(letter) = letter and sigma(w) = [sigma(u), sigma(v)] for the standard
factorization w = u v.  Brackets of basis elements are rewritten back into
the basis by the classical Lyndon rewriting process, with integer structure
constants, and never touch the tensor algebra.  Every bracket in the
package runs through one loop, :func:`_bracket_into`, over the memoized
brackets of basis words, :func:`_basis_bracket`.  Both run on int ids:
each Lyndon word is interned once, in a table that only this module
reads, and the loop's dicts are keyed by id, which hashes at no cost,
where a word tuple is rehashed at every lookup.  ``LieElement.terms``
stays keyed by word; :func:`bracket`, :func:`substitute`, the derivations
of ``derivations`` and the stages of ``ihara`` re-key their dicts by id
where they meet the loop (:func:`_ids_of`, :func:`_words_of`).

The tensor algebra route (:func:`expand_assoc` / :func:`project_lyndon`)
is implemented independently on purpose: the two routes cross-check each
other, and projection doubles as a membership test for the free Lie
algebra inside the tensor algebra.
"""

from __future__ import annotations

import functools
import itertools
import threading
from fractions import Fraction
from typing import Callable, Iterable, Mapping

from .errors import (AlphabetMismatchError, InhomogeneousError,
                     NotALiePolynomialError, PreconditionError)
from .words import (GradedAlphabet, LyndonWord, Word, _lyndon_tuples,
                    _std_factorization, is_lyndon)


def _merge_scaled(acc: dict, terms: Mapping, scale) -> None:
    """acc += scale * terms, pruning exact zeros."""
    for key, c in terms.items():
        new = acc.get(key, 0) + scale * c
        if new:
            acc[key] = new
        else:
            acc.pop(key, None)


class _SparseVector:
    """A finite combination of words over a graded alphabet with exact
    coefficients, ``terms`` mapping words (letter-index tuples) to nonzero
    coefficients: the vector-space structure shared by
    :class:`LieElement` and :class:`AssocPoly`.  Only elements of the
    same class over the same alphabet combine or compare equal."""

    __slots__ = ("alphabet", "terms")

    def __init__(self, alphabet: GradedAlphabet, terms: Mapping[Word, object]):
        self.alphabet = alphabet
        self.terms: dict[Word, object] = {w: c for w, c in terms.items() if c}

    @classmethod
    def zero(cls, alphabet: GradedAlphabet):
        return cls(alphabet, {})

    @classmethod
    def _of(cls, alphabet: GradedAlphabet, terms: dict):
        """An element that adopts ``terms`` as it is, without the
        constructor's copy and filter.  ``terms`` must be a freshly built
        dict of nonzero coefficients that no cache or caller still holds,
        since the element's owner may mutate it."""
        e = cls.__new__(cls)
        e.alphabet = alphabet
        e.terms = terms
        return e

    def _check(self, other) -> None:
        if self.alphabet != other.alphabet:
            raise AlphabetMismatchError(
                f"cannot combine elements over {self.alphabet!r} "
                f"and {other.alphabet!r}")

    def _merged(self, other, sign: int):
        self._check(other)
        acc = dict(self.terms)
        _merge_scaled(acc, other.terms, sign)
        return type(self)._of(self.alphabet, acc)

    def __add__(self, other):
        return self._merged(other, 1)

    def __sub__(self, other):
        return self._merged(other, -1)

    def __neg__(self):
        return self.scale(-1)

    def scale(self, scalar):
        return type(self)._of(self.alphabet,
                              {w: scalar * c for w, c in self.terms.items()}
                              if scalar else {})

    __rmul__ = scale

    def __eq__(self, other) -> bool:
        return (type(other) is type(self)
                and self.alphabet == other.alphabet
                and self.terms == other.terms)

    def __bool__(self) -> bool:
        return bool(self.terms)

    def truncate(self, max_degree: int):
        deg = self.alphabet.word_degree
        return type(self)(self.alphabet,
                          {w: c for w, c in self.terms.items()
                           if deg(w) <= max_degree})


class LieElement(_SparseVector):
    """A rational linear combination of Lyndon-basis elements.

    ``terms`` maps Lyndon words to nonzero coefficients.  Coefficients
    are whatever exact ring the caller feeds in; integers and
    :class:`fractions.Fraction` mix freely.  Hashable.
    """

    __slots__ = ()

    # -- constructors ------------------------------------------------

    @staticmethod
    def generator(alphabet: GradedAlphabet, name: str) -> "LieElement":
        return LieElement(alphabet, {(alphabet.index(name),): 1})

    @staticmethod
    def from_word(w: LyndonWord, coeff=1) -> "LieElement":
        return LieElement(w.alphabet, {w.letters: coeff})

    def __hash__(self):
        return hash((self.alphabet, frozenset(self.terms.items())))

    # -- grading -----------------------------------------------------

    def graded_components(self) -> dict[int, "LieElement"]:
        return {n: LieElement(self.alphabet, t)
                for n, t in sorted(_by_degree(self).items())}

    def component(self, degree: int) -> "LieElement":
        return LieElement(self.alphabet,
                          {w: c for w, c in self.terms.items()
                           if self.alphabet.word_degree(w) == degree})

    def homogeneous_degree(self) -> int | None:
        """Degree of a homogeneous element, None for zero; raises
        :class:`InhomogeneousError` when components of several degrees
        are present."""
        degrees = {self.alphabet.word_degree(w) for w in self.terms}
        if not degrees:
            return None
        if len(degrees) > 1:
            raise InhomogeneousError(
                f"element mixes degrees {sorted(degrees)}")
        return degrees.pop()

    # -- coordinates -------------------------------------------------

    def coordinates(self, degree: int) -> list:
        """Coefficient vector of the degree-``degree`` component with
        respect to the lex-ordered Lyndon basis in that degree."""
        basis = _lyndon_tuples(self.alphabet.degrees, degree)
        return [self.terms.get(w, 0) for w in basis]

    def __repr__(self) -> str:
        return f"LieElement({lie_to_string(self)})"

    def __str__(self) -> str:
        return lie_to_string(self)


def from_coordinates(alphabet: GradedAlphabet, degree: int,
                     vector: Iterable) -> LieElement:
    """Inverse of :meth:`LieElement.coordinates` for one graded piece."""
    basis = _lyndon_tuples(alphabet.degrees, degree)
    vector = list(vector)
    if len(vector) != len(basis):
        raise PreconditionError(
            f"expected {len(basis)} coordinates in degree {degree}, "
            f"got {len(vector)}")
    return LieElement(alphabet, dict(zip(basis, vector)))


# ---------------------------------------------------------------------------
# interned Lyndon words
#
# The bracket kernel keys its dicts by int ids, which hash at no cost,
# rather than by word tuples, which Python rehashes at every lookup.  Each
# word gets its id once, on first sight, and keeps it: ids are never
# reused or dropped (clear_caches in ``ihara`` leaves them alone), since
# the cache of _basis_bracket and the word images of live derivations hold
# them.  A new id is made under a lock; a known one is read without it.
# Only this module reads the table or orders ids: other modules hold ids
# as opaque dict keys, made with _intern or _ids_of and read back with
# _word_of, _words_of or _factor_ids.

#: Id -> word, id -> the id of its left and of its right standard factor
#: (None for a letter), and word -> id.
_ID_WORDS: list[Word] = []
_ID_LEFT: list[int | None] = []
_ID_RIGHT: list[int | None] = []
_ID_OF_WORD: dict[Word, int] = {}
_ID_LOCK = threading.Lock()
_factorize = _std_factorization.__wrapped__


def _intern(w: Word) -> int:
    """The id of the Lyndon word w, made on first sight along with the
    ids of its standard factors; the factorization does not go through
    the cache of :func:`grtlab.words._std_factorization`."""
    i = _ID_OF_WORD.get(w)
    if i is None:
        if len(w) == 1:
            i = _new_id(w, None, None)
        else:
            a, b = _factorize(w)
            i = _new_id(w, _intern(a), _intern(b))
    return i


def _new_id(w: Word, a: int | None, b: int | None) -> int:
    """The id of w, made now unless another thread made it first, with
    a and b the ids of its standard factors."""
    with _ID_LOCK:
        i = _ID_OF_WORD.get(w)
        if i is None:
            i = len(_ID_WORDS)
            _ID_WORDS.append(w)
            _ID_LEFT.append(a)
            _ID_RIGHT.append(b)
            _ID_OF_WORD[w] = i
    return i


def _factor_ids(i: int) -> tuple[int, int] | None:
    """The ids of the standard factors of the word with id i, None for a
    letter."""
    a = _ID_LEFT[i]
    return None if a is None else (a, _ID_RIGHT[i])


def _word_of(i: int) -> Word:
    """The word with id i."""
    return _ID_WORDS[i]


def _ids_of(terms: Mapping) -> dict:
    """A {word: c} dict re-keyed by id, in the same order."""
    get = _ID_OF_WORD.get
    out = {}
    for w, c in terms.items():
        i = get(w)
        out[_intern(w) if i is None else i] = c
    return out


def _words_of(terms: Mapping) -> dict:
    """An {id: c} dict re-keyed by word, in the same order."""
    words = _ID_WORDS
    return {words[i]: c for i, c in terms.items()}


# ---------------------------------------------------------------------------
# bracket via Lyndon rewriting


@functools.lru_cache(maxsize=None)
def _basis_bracket(u: int, v: int) -> tuple[tuple[int, int], ...]:
    """[sigma(u), sigma(v)] expanded in the Lyndon basis, for the ids of
    Lyndon words u < v, as a tuple of (id, integer coefficient) pairs.
    Only ordered pairs are memoized: :func:`_bracket_into` serves a
    reversed pair by antisymmetry and skips equal words.

    If u is a letter, or its right standard factor b is >= v, then (u, v)
    is the standard factorization of uv and the result is sigma(uv),
    whose id is made with those factors.
    Otherwise u = ab with b < v, and the Jacobi identity
    [[a,b],v] = [a,[b,v]] + [[a,v],b] pushes the computation to brackets
    of lower total degree plus pairs with shorter left factors (a < u <
    v and b < v); the process terminates and produces integer constants.
    The two memoized sub-results are read term by term, each term w
    bracketed with a or b as the ordered pair it forms, and equal words
    skipped.
    """
    words = _ID_WORDS
    a = _ID_LEFT[u]
    if a is not None:
        b = _ID_RIGHT[u]
        if words[b] < words[v]:
            acc: dict[int, int] = {}
            get = acc.get
            for s, t, n in itertools.chain(
                    ((a, w, n) for w, n in _basis_bracket(b, v)),
                    ((w, b, n) for w, n in _basis_bracket(a, v))):
                if s == t:
                    continue
                if words[s] < words[t]:
                    terms = _basis_bracket(s, t)
                else:
                    terms, n = _basis_bracket(t, s), -n
                for w, m in terms:
                    new = get(w, 0) + n * m
                    if new:
                        acc[w] = new
                    else:
                        del acc[w]
            return tuple(acc.items())
    w = words[u] + words[v]
    i = _ID_OF_WORD.get(w)
    return ((_new_id(w, u, v) if i is None else i, 1),)


def _bracket_into(acc: dict, t1: Mapping, t2: Mapping) -> dict:
    """acc += [t1, t2] on raw {id: coefficient} dicts of interned Lyndon
    words, pruning exact zeros; returns acc.  The one bracket loop of the
    package."""
    get = acc.get
    words = _ID_WORDS
    for u, cu in t1.items():
        wu = words[u]
        for v, cv in t2.items():
            if u == v:
                continue
            if wu < words[v]:
                c = cu * cv
                terms = _basis_bracket(u, v)
            else:
                c = -cu * cv
                terms = _basis_bracket(v, u)
            for w, n in terms:
                new = get(w, 0) + c * n
                if new:
                    acc[w] = new
                else:
                    del acc[w]
    return acc


def bracket(a: LieElement, b: LieElement,
            max_degree: int | None = None) -> LieElement:
    """Lie bracket [a, b], bilinear over the memoized basis brackets.

    ``max_degree`` discards products landing above the bound before they
    are computed, which is what keeps truncated group computations cheap:
    the terms of each operand are grouped by degree once, and only pairs
    of groups within the bound are bracketed.
    """
    if a.alphabet != b.alphabet:
        raise AlphabetMismatchError("bracket operands over different alphabets")
    ta, tb = _ids_of(a.terms), _ids_of(b.terms)
    if max_degree is None:
        acc = _bracket_into({}, ta, tb)
    else:
        deg = _id_degree(a.alphabet)
        acc = _bracket_graded({}, _split_by(ta, deg), _split_by(tb, deg),
                              max_degree)
    return LieElement._of(a.alphabet, _words_of(acc))


def _bracket_graded(acc: dict, g1: Mapping, g2: Mapping, bound) -> dict:
    """acc += the part of [a, b] of grade at most ``bound``, for an
    additive grading of words, given a and b split by grade as ``g1`` and
    ``g2`` (grade -> raw {id: coefficient} dict, as from
    :func:`_split_by`); returns acc.  Pairs of groups whose grades add up
    to more than ``bound`` are never bracketed."""
    for d1, t1 in g1.items():
        for d2, t2 in g2.items():
            if d1 + d2 <= bound:
                _bracket_into(acc, t1, t2)
    return acc


def _split_by(terms: Mapping, grade: Callable) -> dict[int, dict]:
    """The terms of a raw dict split by ``grade`` of their keys."""
    split: dict[int, dict] = {}
    for w, c in terms.items():
        split.setdefault(grade(w), {})[w] = c
    return split


def _id_degree(alphabet: GradedAlphabet) -> Callable[[int], int]:
    """The degree over ``alphabet`` of the word with a given id."""
    deg, words = alphabet.word_degree, _ID_WORDS
    return lambda i: deg(words[i])


def _by_degree(e: LieElement) -> dict[int, dict]:
    """The terms of e split by degree, as raw dicts."""
    return _split_by(e.terms, e.alphabet.word_degree)


def substitute(f: LieElement, images: Iterable[LieElement],
               max_degree: int | None = None) -> LieElement:
    """Image of f under the Lie algebra map letter i -> images[i].

    The images may live over any alphabet (all the same one).  With
    ``max_degree`` set, brackets are truncated as they form, so
    substitution into a nilpotent quotient never materializes the
    discarded degrees.
    """
    imgs = tuple(images)
    if not imgs:
        raise PreconditionError("need at least one image")
    target = imgs[0].alphabet
    if any(img.alphabet != target for img in imgs):
        raise AlphabetMismatchError("substitution images over different "
                                    "alphabets")
    on_id = _id_images(imgs, max_degree)
    acc: dict = {}
    for i, c in _ids_of(f.terms).items():
        _merge_scaled(acc, on_id(i), c)
    return LieElement._of(target, _words_of(acc))


def _id_images(imgs: tuple[LieElement, ...], max_degree: int | None = None
               ) -> Callable[[int], dict]:
    """The map from the id of w to sigma(w) evaluated at letter i ->
    imgs[i], as a raw {id: coefficient} dict that the caller must not
    mutate, memoized along standard factorizations for as long as the
    caller keeps it.  Under ``max_degree`` each image is kept with its
    terms split by degree, so a truncated bracket of two images splits
    neither again.  The memo is in no reference cycle, so it is freed with
    the map rather than at the next garbage collection."""
    deg = None if max_degree is None else _id_degree(imgs[0].alphabet)
    cache: dict[int, tuple[dict, dict | None]] = {}
    return lambda i: _id_image(i, imgs, max_degree, deg, cache)[0]


def _id_image(i: int, imgs, max_degree, deg, cache: dict
              ) -> tuple[dict, dict | None]:
    """The image of the word with id i for :func:`_id_images`, kept in
    ``cache`` with its terms split by degree under ``max_degree``."""
    got = cache.get(i)
    if got is None:
        factors = _factor_ids(i)
        if factors is None:
            img = imgs[_ID_WORDS[i][0]]
            if max_degree is not None:
                img = img.truncate(max_degree)
            img = _ids_of(img.terms)
        else:
            (iu, su), (iv, sv) = (_id_image(x, imgs, max_degree, deg, cache)
                                  for x in factors)
            img = (_bracket_into({}, iu, iv) if max_degree is None else
                   _bracket_graded({}, su, sv, max_degree))
        got = cache[i] = (img, None if max_degree is None
                          else _split_by(img, deg))
    return got


# ---------------------------------------------------------------------------
# tensor algebra: expansion and projection


class AssocPoly(_SparseVector):
    """An element of the tensor algebra: words with exact coefficients,
    multiplied by concatenation.  Used as the independent oracle for the
    bracket and for Lie-membership tests.  Unhashable."""

    __slots__ = ()

    def times(self, other: "AssocPoly",
              max_degree: int | None = None) -> "AssocPoly":
        """The product self * other, by concatenation of words.

        ``max_degree`` keeps only the part of degree at most the bound:
        pairs of words whose degrees add up to more are never formed.
        It is the tensor-side twin of ``bracket(a, b, max_degree)``.
        """
        self._check(other)
        deg = self.alphabet.word_degree
        right = _split_by(other.terms, deg)
        bound = float("inf") if max_degree is None else max_degree
        acc: dict[Word, object] = {}
        get = acc.get
        for u, cu in self.terms.items():
            room = bound - deg(u)
            for d, t in right.items():
                if d > room:
                    continue
                for v, cv in t.items():
                    w = u + v
                    new = get(w, 0) + cu * cv
                    if new:
                        acc[w] = new
                    else:
                        del acc[w]
        return AssocPoly(self.alphabet, acc)

    __mul__ = times

    def __repr__(self) -> str:
        if not self.terms:
            return "AssocPoly(0)"
        parts = [f"{c}*{self.alphabet.word_str(w) or '1'}"
                 for w, c in sorted(self.terms.items())]
        return f"AssocPoly({' + '.join(parts)})"


@functools.lru_cache(maxsize=None)
def _sigma_tensor(w: Word) -> tuple[tuple[Word, int], ...]:
    """sigma(w) written out in the tensor algebra, integer coefficients.

    Triangular: the expansion is w itself plus lexicographically larger
    words of the same length, which is what makes projection a simple
    elimination."""
    if len(w) == 1:
        return ((w, 1),)
    u, v = _std_factorization(w)
    acc: dict[Word, int] = {}
    for (a, ca) in _sigma_tensor(u):
        for (b, cb) in _sigma_tensor(v):
            c = ca * cb
            # accumulate the two words separately: a+b can equal b+a
            _merge_scaled(acc, {a + b: c}, 1)
            _merge_scaled(acc, {b + a: -c}, 1)
    return tuple(sorted(acc.items()))


@functools.lru_cache(maxsize=None)
def _lyndon_of_content(content: Word) -> tuple[tuple[Word, Word, Word], ...]:
    """The Lyndon words of length >= 2 whose letters are the sorted tuple
    ``content``, in lexicographic order, each as (w, a, b) with (a, b) its
    standard factorization."""
    words = _lyndon_tuples((1,) * (content[-1] + 1), len(content))
    return tuple((w, *_std_factorization(w)) for w in words
                 if tuple(sorted(w)) == content)


def _tensor_coefficients(s: Word, memo: dict) -> dict:
    """{l: (P_l | s)} over the Lyndon words l whose standard bracketing
    P_l = sigma(l) has a nonzero coefficient on the word s in the tensor
    algebra: a column of :func:`_sigma_tensor`, read off one word.

    Only l <= s with the letter content of s take part, since sigma(l)
    is l plus larger words (see :func:`_sigma_tensor`); for l = a b, its
    standard factorization, (P_l | s) = (P_a | s')(P_b | s'') - (P_b | t')
    (P_a | t''), with s = s' s'' split at |a| and s = t' t'' at |b|.  So
    the coefficients on s come from those on its prefixes and suffixes,
    and no word is expanded in full.  ``memo`` keeps every substring's
    coefficients for as long as the caller keeps it; its values are
    shared, not copied."""
    got = memo.get(s)
    if got is None:
        if len(s) == 1:
            got = {s: 1}
        else:
            pre = [None] + [_tensor_coefficients(s[:i], memo)
                            for i in range(1, len(s))]
            suf = [None] + [_tensor_coefficients(s[i:], memo)
                            for i in range(1, len(s))]
            got = {}
            for w, a, b in _lyndon_of_content(tuple(sorted(s))):
                if w > s:
                    break
                i, j = len(a), len(b)
                c = (pre[i].get(a, 0) * suf[i].get(b, 0)
                     - pre[j].get(b, 0) * suf[j].get(a, 0))
                if c:
                    got[w] = c
        memo[s] = got
    return got


def expand_assoc(e: LieElement) -> AssocPoly:
    """Image of a Lie element under the embedding into the tensor algebra."""
    acc: dict[Word, object] = {}
    for w, c in e.terms.items():
        _merge_scaled(acc, dict(_sigma_tensor(w)), c)
    return AssocPoly(e.alphabet, acc)


def project_lyndon(p: AssocPoly) -> LieElement:
    """Rewrite a tensor element as a combination of standard bracketings.

    Works degreewise by triangular elimination: repeatedly look at the
    lexicographically least surviving word; it must be Lyndon (else the
    input was not a Lie polynomial, and :class:`NotALiePolynomialError`
    reports it), and its coefficient is the Lyndon-basis coefficient.
    Leading coefficients are 1, so no division happens and the procedure
    is valid over any exact coefficient ring.
    """
    remaining = dict(p.terms)
    out: dict[Word, object] = {}
    while remaining:
        w = min(remaining)
        if not is_lyndon(w):
            raise NotALiePolynomialError(
                f"leading word {p.alphabet.word_str(w)!r} is not Lyndon; "
                f"input is not a Lie polynomial", word=w)
        out[w] = c = remaining[w]
        # sigma(w) is w plus larger words, so this clears w
        _merge_scaled(remaining, dict(_sigma_tensor(w)), -c)
    return LieElement(p.alphabet, out)


# ---------------------------------------------------------------------------
# canonical printing


def _word_bracket_str(alphabet: GradedAlphabet, w: Word, memo: dict) -> str:
    """The standard bracketing of w as text, kept in ``memo`` along with
    the bracketings of its standard factors."""
    text = memo.get(w)
    if text is None:
        if len(w) == 1:
            text = alphabet.names[w[0]]
        else:
            u, v = _std_factorization(w)
            text = (f"[{_word_bracket_str(alphabet, u, memo)},"
                    f"{_word_bracket_str(alphabet, v, memo)}]")
        memo[w] = text
    return text


def lie_to_string(e: LieElement) -> str:
    """Canonical rendering: terms sorted by (degree, word), coefficients
    in lowest terms, Lyndon words printed as their standard bracketings,
    each bracketing built once per call.  ``parse_lie`` inverts this
    exactly."""
    if not e.terms:
        return "0"
    items = sorted(e.terms.items(),
                   key=lambda kv: (e.alphabet.word_degree(kv[0]), kv[0]))
    memo: dict[Word, str] = {}
    parts: list[str] = []
    for w, c in items:
        frac = c if isinstance(c, Fraction) else Fraction(c)
        mag = abs(frac)
        body = _word_bracket_str(e.alphabet, w, memo)
        text = body if mag == 1 else f"{mag}*{body}"
        if not parts:
            parts.append(text if frac > 0 else f"-{text}")
        else:
            parts.append(f"{'+' if frac > 0 else '-'} {text}")
    return " ".join(parts)
