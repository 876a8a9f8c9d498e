"""Exact sparse linear algebra over the rationals and GF(p).

Every rank, kernel, echelon form and residual, over the rationals or
mod a prime, runs through one eliminator, :func:`_echelon`, on sparse
rows ``{column: int}`` whose columns are any ordered keys: dense rows are
keyed by index, and the stable stages in ``ihara`` key by Lyndon word.
Over the rationals it is fraction-free: each update keeps rows integral
and divides out their content, so entries stay modest.  Pivot columns
are taken in column order, and kernel vectors and echelon rows come out
primitive integral with the first nonzero entry positive, which makes
every routine's output canonical.  The Smith normal form is a separate
algorithm on dense integer rows.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from heapq import heapify, heappop, heappush
from math import gcd, lcm
from typing import Iterable, Sequence

from .errors import PreconditionError


def _dense_rows(m) -> list:
    """The rows of m, a list of rows; raises on ragged rows.  The rows
    themselves are not copied."""
    rows = list(m)
    if rows:
        cols = len(rows[0])
        if any(len(r) != cols for r in rows):
            raise ValueError("ragged rows")
    return rows


def _sparse(row, p: int | None = None) -> dict:
    """A row, dense or a {column: entry} dict, as a new {column: entry}:
    over the rationals (``p`` None) scaled to a primitive integral vector,
    sign kept; over GF(p) reduced to residues."""
    items = row.items() if isinstance(row, dict) else enumerate(row)
    out = {j: x for j, x in items if x}
    if p is None:
        if any(type(x) is not int for x in out.values()):
            fracs = {j: Fraction(x) for j, x in out.items()}
            q = lcm(*(f.denominator for f in fracs.values()))
            out = {j: f.numerator * (q // f.denominator)
                   for j, f in fracs.items()}
        return _primitive(out)
    res = {}
    for j, x in out.items():
        if type(x) is not int:
            f = Fraction(x)
            if f.denominator % p == 0:
                raise ZeroDivisionError(
                    f"denominator divisible by {p} in modular reduction")
            x = f.numerator * pow(f.denominator, -1, p)
        if x % p:
            res[j] = x % p
    return res


def _rows_of(m, p: int | None = None) -> tuple[list[dict], int]:
    """The nonzero rows of m made sparse (see :func:`_sparse`), and the
    column count of m."""
    rows = _dense_rows(m)
    sparse = (_sparse(row, p) for row in rows)
    return [r for r in sparse if r], len(rows[0]) if rows else 0


def _primitive(row: dict) -> dict:
    """An integral sparse row divided by the gcd of its entries."""
    g = gcd(*row.values())
    return {j: x // g for j, x in row.items()} if g > 1 else row


def _positive(row: dict) -> dict:
    """A sparse row, its sign changed if its leading entry is negative."""
    neg = row and row[min(row)] < 0
    return {j: -x for j, x in row.items()} if neg else row


def _canonical(row: dict, ncols: int) -> list[int]:
    """A primitive sparse row as a dense list with its first nonzero entry
    positive."""
    out = [0] * ncols
    for j, x in _positive(row).items():
        out[j] = x
    return out


def _update(target: dict, piv: dict, c: int, p: int | None) -> dict:
    """The one row-update step, target -= (target[c] / piv[c]) * piv,
    which clears column c of target.  Over GF(p) the pivot row is monic.
    Over the rationals target is first multiplied by piv[c] / g, with g
    = gcd(piv[c], target[c]) signed like piv[c], so the step stays
    integral; the result is divided by its content.  ``target`` is
    updated in place unless it had to be rescaled; use the result."""
    a, b = piv[c], target[c]
    if p is None:
        g = gcd(a, b) if a > 0 else -gcd(a, b)
        a, b = a // g, b // g
        if a != 1:
            target = {j: a * x for j, x in target.items()}
    get = target.get
    for j, y in piv.items():
        x = get(j, 0) - b * y
        if p is not None:
            x %= p
        if x:
            target[j] = x
        elif j in target:
            del target[j]
    return target if p is not None else _primitive(target)


def _reduce(v: dict, ech: Sequence[dict], pivots: Sequence[int],
            p: int | None = None) -> dict:
    """The residual of v against echelon rows with the given pivot
    columns, ascending: zero iff v lies in their row space.  ``v`` is
    consumed."""
    for row, c in zip(ech, pivots):
        if c in v:
            v = _update(v, row, c, p)
    return v


def _echelon(rows: list[dict], p: int | None = None,
             reduced: bool = False) -> tuple[list[dict], list[int]]:
    """The eliminator: echelon rows of the nonzero sparse ``rows`` and
    their pivot columns, ascending.

    Over the rationals (``p`` None) the rows are integral; over GF(p),
    for a prime p, they are residues.  They are consumed.  Pivot columns
    are taken in column order; among the rows leading in a column, the
    pivot row has the smallest |entry| there, then the fewest nonzeros.
    Over GF(p) it is made monic.  The other rows leading in that column
    are updated and move on to their new leading column.  With
    ``reduced``, back elimination from the last row up clears every pivot
    column outside its pivot row: the reduced echelon form, up to the
    scale of each row.
    """
    by_lead: dict[int, list[dict]] = {}
    for r in rows:
        by_lead.setdefault(min(r), []).append(r)
    heap = list(by_lead)
    heapify(heap)
    ech: list[dict] = []
    pivots: list[int] = []
    while heap:
        c = heappop(heap)
        bucket = by_lead.pop(c)
        piv = bucket.pop(min(range(len(bucket)),
                             key=lambda i: (abs(bucket[i][c]),
                                            len(bucket[i]))))
        if p is not None and piv[c] != 1:
            inv = pow(piv[c], -1, p)
            piv = {j: x * inv % p for j, x in piv.items()}
        ech.append(piv)
        pivots.append(c)
        for r in bucket:
            r = _update(r, piv, c, p)
            if r:
                lead = min(r)
                if lead not in by_lead:
                    by_lead[lead] = []
                    heappush(heap, lead)
                by_lead[lead].append(r)
    if reduced:
        for i in reversed(range(len(ech))):
            ech[i] = _reduce(ech[i], ech[i + 1:], pivots[i + 1:], p)
    return ech, pivots


def rank(m) -> int:
    """Rank over the rationals."""
    return len(_echelon(_rows_of(m)[0])[1])


def kernel_basis(m) -> list[list[int]]:
    """Basis of the right kernel, one vector per free column in ascending
    column order.  Each vector is primitive integral with its first
    nonzero entry positive; over the rationals this basis is canonical
    (it is the standard kernel basis of the reduced echelon form).
    """
    rows, ncols = _rows_of(m)
    return _kernel_of_echelon(*_echelon(rows, reduced=True), ncols)


def _column_kernel(cols: Sequence[dict], p: int | None = None) -> list:
    """:func:`kernel_basis` of the matrix whose column j is the sparse
    dict ``cols[j]`` over any hashable row keys, or over GF(p) a kernel
    basis of integer vectors whose residues mod p span the kernel there."""
    rows: dict = {}
    for j, col in enumerate(cols):
        for key, x in col.items():
            rows.setdefault(key, {})[j] = x
    sparse = (_sparse(row, p) for row in rows.values())
    return _kernel_of_echelon(*_echelon([r for r in sparse if r], p,
                                        reduced=True), len(cols))


def _kernel_of_echelon(red: list[dict], pivots: list[int],
                       ncols: int) -> list[list[int]]:
    """:func:`kernel_basis` of a matrix with ``ncols`` columns, read off
    its reduced echelon form (from :func:`_echelon` with ``reduced``),
    which is left unchanged.  Fraction-free: free column f gets x_f the
    lcm of the pivot entries e_ip of the rows i meeting column f, and
    x_p = -e_if * (x_f / e_ip) on each such row.  Over GF(p) the pivot
    rows are monic, so x_f = 1 and the vectors are residues up to sign."""
    meets: dict[int, list] = {}
    for row, p in zip(red, pivots):
        for f, e in row.items():
            if f != p:
                meets.setdefault(f, []).append((e, row[p], p))
    pivot_set = set(pivots)
    basis: list[list[int]] = []
    for f in (c for c in range(ncols) if c not in pivot_set):
        rows = meets.get(f, [])
        xf = lcm(*(ep for _, ep, _ in rows))
        x = {f: xf}
        for ef, ep, p in rows:
            x[p] = -ef * (xf // ep)
        basis.append(_canonical(_primitive(x), ncols))
    return basis


def kernel_dim(m) -> int:
    rows, ncols = _rows_of(m)
    return ncols - len(_echelon(rows)[1])


def in_row_space(rows, vec) -> bool:
    ech, pivots = _echelon(_rows_of(rows)[0])
    return not _reduce(_sparse(vec), ech, pivots)


def reduced_echelon(rows) -> list[list[int]]:
    """Reduced echelon over the rationals, rows rescaled to primitive
    integral with positive leading entry.  Canonical basis of the row
    space, ordered by pivot column."""
    sparse, ncols = _rows_of(rows)
    return [_canonical(r, ncols) for r in _echelon(sparse, reduced=True)[0]]


# ---------------------------------------------------------------------------
# integer matrices: Smith normal form and quotients


@dataclass
class SNFResult:
    """U @ A @ V == D with U, V unimodular and D diagonal with a
    divisibility chain d1 | d2 | ... (nonnegative)."""

    U: list[list[int]]
    D: list[list[int]]
    V: list[list[int]]

    @property
    def invariants(self) -> list[int]:
        return [self.D[i][i] for i in range(min(len(self.D),
                                                len(self.D[0]) if self.D else 0))
                if self.D[i][i]]


def _identity(n: int) -> list[list[int]]:
    return [[1 if i == j else 0 for j in range(n)] for i in range(n)]


def _mat_mul(a: list[list[int]], b: list[list[int]]) -> list[list[int]]:
    """The product a b, len(a) rows of as many entries as b has columns
    (none when b has no rows), also when a dimension is 0.  Zero entries
    of a and b are skipped."""
    cols = len(b[0]) if b else 0
    nonzero = [[(j, y) for j, y in enumerate(row) if y] for row in b]
    out = []
    for row in a:
        acc = [0] * cols
        for x, b_row in zip(row, nonzero):
            if x:
                for j, y in b_row:
                    acc[j] += x * y
        out.append(acc)
    return out


def smith_normal_form(m) -> SNFResult:
    """Smith normal form of an integer matrix by gcd-reduction pivoting.

    The pivot of each step is the first entry of least magnitude, in row
    order, of the trailing block.  The factorization U A V = D is
    re-multiplied and verified before returning, and so is the
    divisibility chain; unimodularity holds by construction since U and
    V are products of swaps, sign flips, and shear rows/columns.  The
    scans and the check skip zero entries, which a tall lattice matrix
    and its U are mostly made of.
    """
    orig = _dense_rows(m)
    A = [[int(x) for x in row] for row in orig]
    for row, o in zip(A, orig):
        if any(type(y) is not int and Fraction(y) != x
               for x, y in zip(row, o)):
            raise ValueError("smith_normal_form needs integer entries")
    A0 = [row[:] for row in A]
    nr = len(A)
    nc = len(A[0]) if A else 0
    U = _identity(nr)
    V = _identity(nc)

    def row_op(i, j, q):  # row_i -= q * row_j
        A[i] = [a - q * b for a, b in zip(A[i], A[j])]
        U[i] = [a - q * b for a, b in zip(U[i], U[j])]

    def col_op(i, j, q):  # col_i -= q * col_j
        for M in (A, V):
            for row in M:
                if row[j]:
                    row[i] -= q * row[j]

    def swap_rows(i, j):
        A[i], A[j] = A[j], A[i]
        U[i], U[j] = U[j], U[i]

    def swap_cols(i, j):
        for row in A:
            row[i], row[j] = row[j], row[i]
        for row in V:
            row[i], row[j] = row[j], row[i]

    t = 0
    while t < min(nr, nc):
        # locate the first nonzero pivot of least magnitude in the
        # trailing block, row by row
        least, pi = 0, None
        for i in range(t, nr):
            x = min(map(abs, filter(None, A[i][t:])), default=0)
            if x and (pi is None or x < least):
                least, pi = x, i
                if x == 1:
                    break
        if pi is None:
            break
        swap_rows(t, pi)
        swap_cols(t, t + [abs(x) for x in A[t][t:]].index(least))
        while True:
            # clear column t by division with remainder
            dirty = False
            for i in range(t + 1, nr):
                if A[i][t]:
                    q = A[i][t] // A[t][t]
                    row_op(i, t, q)
                    if A[i][t]:
                        swap_rows(i, t)
                        dirty = True
            if dirty:
                continue
            for j in range(t + 1, nc):
                if A[t][j]:
                    q = A[t][j] // A[t][t]
                    col_op(j, t, q)
                    if A[t][j]:
                        swap_cols(j, t)
                        dirty = True
                        break
            if dirty:
                continue
            # pivot must divide the rest of the block for the chain; a
            # unit pivot divides everything
            piv = A[t][t]
            if piv in (1, -1):
                break
            offender = next((i for i in range(t + 1, nr)
                             if any(x % piv for x in A[i][t + 1:])), None)
            if offender is None:
                break
            row_op(t, offender, -1)  # pull the offending row into row t
        t += 1
    for i in range(min(nr, nc)):
        if A[i][i] < 0:
            A[i] = [-x for x in A[i]]
            U[i] = [-x for x in U[i]]
    result = SNFResult(U=U, D=A, V=V)
    if _mat_mul(_mat_mul(U, A0), V) != A:
        raise AssertionError("Smith normal form verification failed")
    inv = result.invariants
    for a, b in zip(inv, inv[1:]):
        if b % a:
            raise AssertionError("divisibility chain broken")
    return result


def quotient_invariants(rows: Iterable[Sequence[int]],
                        ambient_rank: int) -> tuple[int, list[int]]:
    """Structure of Z^ambient_rank modulo the span of integer ``rows``:
    returns (free rank, torsion invariants > 1, smallest first).

    Zero rows and rows equal, up to sign, to an earlier row are dropped
    before the Smith form; the span they leave is the same lattice."""
    mat = [list(map(int, r)) for r in rows]
    for r in mat:
        if len(r) != ambient_rank:
            raise ValueError("row length disagrees with ambient rank")
    seen = set()
    kept = []
    for r in mat:
        key = tuple(r)
        if key in seen or not any(r):
            continue
        seen.add(key)
        seen.add(tuple(-x for x in r))
        kept.append(r)
    if not kept:
        return ambient_rank, []
    inv = smith_normal_form(kept).invariants
    free = ambient_rank - len(inv)
    torsion = [d for d in inv if d > 1]
    return free, torsion


# ---------------------------------------------------------------------------
# modular checks

#: Miller-Rabin with these bases decides primality exactly below 2^64.
_WITNESSES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37)


def _check_prime(p) -> None:
    """Raise :class:`PreconditionError` unless p is a prime below 2^64."""
    if not isinstance(p, int) or not 2 <= p < 1 << 64:
        raise PreconditionError("p must be a prime below 2**64")
    d, s = p - 1, 0
    while d % 2 == 0:
        d, s = d // 2, s + 1
    for a in _WITNESSES:
        x = pow(a, d, p)
        if a % p and x != 1 and all(pow(x, 1 << i, p) != p - 1
                                    for i in range(s)):
            raise PreconditionError(f"p = {p} is not prime")


def rank_mod(m, p: int) -> int:
    """Rank over GF(p), for a prime p below 2^64."""
    _check_prime(p)
    return len(_echelon(_rows_of(m, p)[0], p)[1])


def kernel_dim_mod(m, p: int) -> int:
    """Kernel dimension over GF(p), for a prime p below 2^64."""
    _check_prime(p)
    rows, ncols = _rows_of(m, p)
    return ncols - len(_echelon(rows, p)[1])
