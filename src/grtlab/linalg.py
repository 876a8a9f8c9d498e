"""Exact sparse linear algebra over the rationals and GF(p).

Every rank, kernel, echelon form, residual and solve, over the rationals
or mod a prime, runs through one eliminator, :func:`_echelon`, on sparse
rows ``{column: int}`` that dense rows become once, on the way in.  Over
the rationals it is fraction-free: each update keeps rows integral and
divides out their content, so entries stay modest.  Pivot columns are
taken in column order, and kernel vectors and echelon rows come out
primitive integral with the first nonzero entry positive, which makes
every routine's output canonical.  The Smith normal form is a separate
algorithm on dense integer rows.

A thin :class:`RatMatrix` container carries the JSON representation
(entries as exact ``"p/q"`` strings); the algorithms accept either a
``RatMatrix`` or a bare list of rows.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from heapq import heapify, heappop, heappush
from math import gcd, lcm
from typing import Iterable, Sequence


@dataclass
class RatMatrix:
    """A dense matrix of exact rationals with its shape made explicit."""

    rows: int
    cols: int
    entries: list[list[Fraction]]

    @staticmethod
    def from_rows(entries: Sequence[Sequence]) -> "RatMatrix":
        data = [[Fraction(x) for x in row] for row in entries]
        cols = len(data[0]) if data else 0
        if any(len(row) != cols for row in data):
            raise ValueError("ragged rows")
        return RatMatrix(len(data), cols, data)

    def to_json(self) -> dict:
        return {"rows": self.rows, "cols": self.cols,
                "entries": [[str(x) for x in row] for row in self.entries]}

    @staticmethod
    def from_json(obj: dict) -> "RatMatrix":
        m = RatMatrix.from_rows([[Fraction(s) for s in row]
                                 for row in obj["entries"]])
        if (m.rows, m.cols) != (obj["rows"], obj["cols"]):
            raise ValueError("matrix shape disagrees with entries")
        return m


def _dense_rows(m) -> list:
    """The rows of m, a :class:`RatMatrix` or a list of rows; raises on
    ragged rows.  The rows themselves are not copied."""
    rows = m.entries if isinstance(m, RatMatrix) else list(m)
    if rows:
        cols = len(rows[0])
        if any(len(r) != cols for r in rows):
            raise ValueError("ragged rows")
    return rows


def _sparse(row: Sequence, p: int | None = None) -> dict:
    """A dense row as {column: entry}: over the rationals (``p`` None)
    scaled to a primitive integral vector, sign kept; over GF(p) reduced
    to residues."""
    out = {j: x for j, x in enumerate(row) if x}
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


def _canonical(row: dict, ncols: int) -> list[int]:
    """A primitive sparse row as a dense list with its first nonzero entry
    positive."""
    s = -1 if row and row[min(row)] < 0 else 1
    out = [0] * ncols
    for j, x in row.items():
        out[j] = s * x
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


def _kernel_of_echelon(red: list[dict], pivots: list[int],
                       ncols: int) -> list[list[int]]:
    """:func:`kernel_basis` of a matrix with ``ncols`` columns, read off
    its reduced echelon form (from :func:`_echelon` with ``reduced``),
    which is left unchanged.  Fraction-free: free column f gets x_f the
    lcm of the pivot entries e_ip of the rows i meeting column f, and
    x_p = -e_if * (x_f / e_ip) on each such row."""
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


class FullRankSolver:
    """Exact solutions of A x = b for one integer matrix A of full column
    rank and many right-hand sides b.

    The factorization is done once.  The pivot columns of the echelon
    form of the transpose of A are ncols linearly independent rows of A,
    the pivot rows.  The reduced echelon form of [B | I], with B the
    square block of pivot rows, is [D | R] with R an integer matrix and D
    diagonal, R B = D; R is kept as sparse rows.  A solve is then integer
    dot products: x = D^-1 R b on the pivot rows, and an exact check of
    A x = b on the other rows, which decides whether a solution exists.
    """

    def __init__(self, m):
        rows = _dense_rows(m)
        if any(type(x) is not int for row in rows for x in row):
            raise ValueError("FullRankSolver needs integer entries")
        ncols = len(rows[0]) if rows else 0
        _, pivot_rows = _echelon(_rows_of(list(zip(*rows)))[0])
        if len(pivot_rows) != ncols:
            raise ValueError("matrix is not of full column rank")
        red, _ = _echelon(
            [{**{j: a for j, a in enumerate(rows[r]) if a}, ncols + i: 1}
             for i, r in enumerate(pivot_rows)], reduced=True)
        diag = [row[i] for i, row in enumerate(red)]
        self._nrows = len(rows)
        self._den = lcm(*diag)
        # Row i gives den * x_i as a sparse dot product with b.
        self._inverse = [
            [(pivot_rows[j - ncols], t * (self._den // d))
             for j, t in row.items() if j >= ncols]
            for row, d in zip(red, diag)]
        pivot_set = set(pivot_rows)
        self._checks = [(r, [(j, a) for j, a in enumerate(row) if a])
                        for r, row in enumerate(rows) if r not in pivot_set]

    def solve(self, b) -> list[Fraction] | None:
        """The unique x with A x = b, or None when there is none.  The
        entries of ``b`` may be integers or fractions."""
        if len(b) != self._nrows:
            raise ValueError(f"expected {self._nrows} entries, got {len(b)}")
        q = lcm(*(x.denominator for x in b if isinstance(x, Fraction)))
        bq = [int(x * q) for x in b]
        # x = num / (den * q), in integers throughout
        num = [sum(t * bq[r] for r, t in row) for row in self._inverse]
        for r, row in self._checks:
            if sum(a * num[j] for j, a in row) != bq[r] * self._den:
                return None
        return [Fraction(v, self._den * q) for v in num]


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
    if not a or not b:
        return []
    bt = list(zip(*b))
    return [[sum(x * y for x, y in zip(row, col)) for col in bt] for row in a]


def smith_normal_form(m) -> SNFResult:
    """Smith normal form of an integer matrix by gcd-reduction pivoting.

    The factorization U A V = D is re-multiplied and verified before
    returning; unimodularity holds by construction since U and V are
    products of swaps, sign flips, and shear rows/columns.
    """
    A = [[int(x) for x in row] for row in _dense_rows(m)]
    for row, orig in zip(A, _dense_rows(m)):
        if any(Fraction(x) != Fraction(y) for x, y in zip(row, orig)):
            raise ValueError("smith_normal_form needs integer entries")
    nr = len(A)
    nc = len(A[0]) if A else 0
    U = _identity(nr)
    V = _identity(nc)

    def row_op(i, j, q):  # row_i -= q * row_j
        A[i] = [a - q * b for a, b in zip(A[i], A[j])]
        U[i] = [a - q * b for a, b in zip(U[i], U[j])]

    def col_op(i, j, q):  # col_i -= q * col_j
        for row in A:
            row[i] -= q * row[j]
        for row in V:
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
        # locate a nonzero pivot of least magnitude in the trailing block
        pivot = None
        for i in range(t, nr):
            for j in range(t, nc):
                if A[i][j] and (pivot is None
                                or abs(A[i][j]) < abs(A[pivot[0]][pivot[1]])):
                    pivot = (i, j)
        if pivot is None:
            break
        swap_rows(t, pivot[0])
        swap_cols(t, pivot[1])
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
            # pivot must divide the rest of the block for the chain
            offender = None
            for i in range(t + 1, nr):
                for j in range(t + 1, nc):
                    if A[i][j] % A[t][t]:
                        offender = i
                        break
                if offender is not None:
                    break
            if offender is None:
                break
            row_op(t, offender, -1)  # pull the offending row into row t
        t += 1
    for i in range(min(nr, nc)):
        if A[i][i] < 0:
            A[i] = [-x for x in A[i]]
            U[i] = [-x for x in U[i]]
    result = SNFResult(U=U, D=A, V=V)
    got = _mat_mul(_mat_mul(result.U, [[int(x) for x in row]
                                       for row in _dense_rows(m)]),
                   result.V)
    if got != result.D:
        raise AssertionError("Smith normal form verification failed")
    inv = result.invariants
    for a, b in zip(inv, inv[1:]):
        if b % a:
            raise AssertionError("divisibility chain broken")
    return result


def quotient_invariants(rows: Iterable[Sequence[int]],
                        ambient_rank: int) -> tuple[int, list[int]]:
    """Structure of Z^ambient_rank modulo the span of integer ``rows``:
    returns (free rank, torsion invariants > 1, smallest first)."""
    mat = [list(map(int, r)) for r in rows]
    for r in mat:
        if len(r) != ambient_rank:
            raise ValueError("row length disagrees with ambient rank")
    if not mat:
        return ambient_rank, []
    inv = smith_normal_form(mat).invariants
    free = ambient_rank - len(inv)
    torsion = [d for d in inv if d > 1]
    return free, torsion


# ---------------------------------------------------------------------------
# modular checks


def rank_mod(m, p: int) -> int:
    """Rank over GF(p); p must be prime."""
    return len(_echelon(_rows_of(m, p)[0], p)[1])


def kernel_dim_mod(m, p: int) -> int:
    rows, ncols = _rows_of(m, p)
    return ncols - len(_echelon(rows, p)[1])
