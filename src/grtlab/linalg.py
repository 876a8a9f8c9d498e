"""Exact dense linear algebra over the rationals and the integers.

Everything here works on lists of rows.  Elimination is fraction-free:
rows are scaled to primitive integer vectors and updated by cross
multiplication, so entries stay integral and modest.  Kernel vectors and
echelon rows are normalized to primitive integral form with the first
nonzero entry positive, which makes every routine's output canonical.

A thin :class:`RatMatrix` container carries the JSON representation
(entries as exact ``"p/q"`` strings); the algorithms accept either a
``RatMatrix`` or a bare list of rows.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
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


def _rows_of(m) -> list[list]:
    if isinstance(m, RatMatrix):
        return [list(r) for r in m.entries]
    rows = [list(r) for r in m]
    if rows:
        cols = len(rows[0])
        if any(len(r) != cols for r in rows):
            raise ValueError("ragged rows")
    return rows


def _reduce_content(ints: list[int]) -> list[int]:
    g = 0
    for x in ints:
        g = gcd(g, x)
        if g == 1:
            return ints
    if g > 1:
        ints = [x // g for x in ints]
    return ints


def _primitive_int_row(row: Sequence) -> list[int]:
    """Scale a rational row to integers and divide out the content.
    Sign is preserved."""
    if all(type(x) is int for x in row):
        return _reduce_content(list(row))
    fracs = [x if isinstance(x, Fraction) else Fraction(x) for x in row]
    mult = lcm(*(f.denominator for f in fracs)) if fracs else 1
    return _reduce_content([int(f * mult) for f in fracs])


def _sign_normalize(row: list[int]) -> list[int]:
    for x in row:
        if x:
            return row if x > 0 else [-y for y in row]
    return row


def _echelon_int(rows: list[list]) -> tuple[list[list[int]], list[int]]:
    """Fraction-free row echelon form.  Returns the nonzero echelon rows
    (primitive integral) and the list of pivot columns."""
    work = [_primitive_int_row(r) for r in rows]
    work = [r for r in work if any(r)]
    if not work:
        return [], []
    ncols = len(work[0])
    pivots: list[int] = []
    r = 0
    for col in range(ncols):
        best = None
        for i in range(r, len(work)):
            v = work[i][col]
            if v and (best is None or abs(v) < abs(work[best][col])):
                best = i
        if best is None:
            continue
        work[r], work[best] = work[best], work[r]
        a = work[r][col]
        for i in range(r + 1, len(work)):
            b = work[i][col]
            if b:
                g = gcd(a, b)
                fa, fb = a // g, b // g
                work[i] = _reduce_content(
                    [fa * x - fb * y for x, y in zip(work[i], work[r])])
        work = work[:r + 1] + [row for row in work[r + 1:] if any(row)]
        pivots.append(col)
        r += 1
        if r == len(work):
            break
    return [work[i] for i in range(r)], pivots


def rank(m) -> int:
    """Rank over the rationals."""
    return len(_echelon_int(_rows_of(m))[0])


def kernel_basis(m) -> list[list[int]]:
    """Basis of the right kernel, one vector per free column in ascending
    column order.  Each vector is primitive integral with its first
    nonzero entry positive; over the rationals this basis is canonical
    (it is the standard kernel basis of the reduced echelon form).
    """
    rows = _rows_of(m)
    if not rows:
        return []
    return _kernel_of_echelon(*_echelon_int(rows), len(rows[0]))


def _kernel_of_echelon(ech: list[list[int]], pivots: list[int],
                       ncols: int) -> list[list[int]]:
    """:func:`kernel_basis` of a matrix with ``ncols`` columns, read off
    its echelon form (output of :func:`_echelon_int`, left unchanged).
    Fraction-free: on the reduced form of a copy, free column f gets x_f
    the lcm of the pivots e_ip of the rows i meeting column f, and
    x_p = -e_if * (x_f / e_ip) on each such row."""
    red = [list(row) for row in ech]
    _clear_above_pivots(red, pivots)
    pivot_set = set(pivots)
    basis: list[list[int]] = []
    for f in (c for c in range(ncols) if c not in pivot_set):
        rows = [(row[f], row[p], p) for row, p in zip(red, pivots) if row[f]]
        xf = lcm(*(e for _, e, _ in rows))
        x = [0] * ncols
        x[f] = xf
        for ef, ep, p in rows:
            x[p] = -ef * (xf // ep)
        basis.append(_sign_normalize(_reduce_content(x)))
    return basis


def kernel_dim(m) -> int:
    rows = _rows_of(m)
    if not rows:
        return 0
    return len(rows[0]) - rank(rows)


def residual_against(ech: list[list[int]], pivots: list[int],
                     vec: Sequence) -> list[int]:
    """Reduce ``vec`` against an echelon basis (output of
    :func:`_echelon_int`); the result is zero iff ``vec`` lies in the row
    space.  Returned primitive integral."""
    v = _primitive_int_row(vec)
    for row, p in zip(ech, pivots):
        if v[p]:
            a, b = row[p], v[p]
            g = gcd(a, b)
            fa, fb = a // g, b // g
            v = [fa * x - fb * y for x, y in zip(v, row)]
            v = _primitive_int_row(v)
    return v


def in_row_space(rows, vec) -> bool:
    ech, pivots = _echelon_int(_rows_of(rows))
    return not any(residual_against(ech, pivots, vec))


def _clear_above_pivots(ech: list[list[int]], pivots: list[int]) -> None:
    """Fraction-free back elimination, in place: turns the echelon form
    from :func:`_echelon_int` into a reduced one, each pivot column zero
    outside its pivot row.  Rows stay primitive integral."""
    for i in reversed(range(len(ech))):
        p = pivots[i]
        a = ech[i][p]
        for j in range(i):
            c = ech[j][p]
            if c:
                g = gcd(a, c)
                fa, fc = a // g, c // g
                ech[j] = _reduce_content(
                    [fa * x - fc * y for x, y in zip(ech[j], ech[i])])


def reduced_echelon(rows) -> list[list[int]]:
    """Reduced echelon over the rationals, rows rescaled to primitive
    integral with positive leading entry.  Canonical basis of the row
    space, ordered by pivot column."""
    ech, pivots = _echelon_int(_rows_of(rows))
    _clear_above_pivots(ech, pivots)
    return [_sign_normalize(r) for r in ech]


class FullRankSolver:
    """Exact solutions of A x = b for one integer matrix A of full column
    rank and many right-hand sides b.

    The factorization is done once.  :func:`_echelon_int` on the
    transpose of A picks ncols linearly independent rows of A, the pivot
    rows.  Fraction-free Gauss-Jordan elimination of [B | I], with B the
    square block of pivot rows, gives an integer R and a diagonal D with
    R B = D; R is kept as sparse rows.  A solve is then integer dot
    products: x = D^-1 R b on the pivot rows, and an exact check of
    A x = b on the other rows, which decides whether a solution exists.
    """

    def __init__(self, m):
        rows = _rows_of(m)
        if any(type(x) is not int for row in rows for x in row):
            raise ValueError("FullRankSolver needs integer entries")
        ncols = len(rows[0]) if rows else 0
        _, pivot_rows = _echelon_int([list(c) for c in zip(*rows)])
        if len(pivot_rows) != ncols:
            raise ValueError("matrix is not of full column rank")
        ech, pivots = _echelon_int(
            [rows[r] + [int(i == j) for j in range(ncols)]
             for i, r in enumerate(pivot_rows)])
        _clear_above_pivots(ech, pivots)
        diag = [row[i] for i, row in enumerate(ech)]
        self._nrows = len(rows)
        self._den = lcm(*diag)
        # Row i gives den * x_i as a sparse dot product with b.
        self._inverse = [
            [(pivot_rows[j], t * (self._den // d))
             for j, t in enumerate(row[ncols:]) if t]
            for row, d in zip(ech, diag)]
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


def smith_normal_form(m, check: bool = True) -> SNFResult:
    """Smith normal form of an integer matrix by gcd-reduction pivoting.

    With ``check`` the factorization U A V = D is re-multiplied and
    verified before returning; unimodularity holds by construction since
    U and V are products of swaps, sign flips, and shear rows/columns.
    """
    A = [[int(x) for x in row] for row in _rows_of(m)]
    for row, orig in zip(A, _rows_of(m)):
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
    if check:
        got = _mat_mul(_mat_mul(result.U, [[int(x) for x in row]
                                           for row in _rows_of(m)]), result.V)
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


def _rows_mod(rows: list[list], p: int) -> list[list[int]]:
    out = []
    for row in rows:
        new = []
        for x in row:
            if type(x) is int:
                new.append(x % p)
                continue
            f = x if isinstance(x, Fraction) else Fraction(x)
            if f.denominator % p == 0:
                raise ZeroDivisionError(
                    f"denominator divisible by {p} in modular reduction")
            new.append(f.numerator * pow(f.denominator, -1, p) % p)
        out.append(new)
    return out


def rank_mod(m, p: int) -> int:
    """Rank over GF(p); p must be prime.  Rows below the pivot row are
    zero left of the pivot column, so updates start at that column."""
    work = _rows_mod(_rows_of(m), p)
    work = [r for r in work if any(r)]
    if not work:
        return 0
    ncols = len(work[0])
    r = 0
    for col in range(ncols):
        piv = next((i for i in range(r, len(work)) if work[i][col]), None)
        if piv is None:
            continue
        work[r], work[piv] = work[piv], work[r]
        inv = pow(work[r][col], -1, p)
        tail = [x * inv % p for x in work[r][col:]]
        for row in work[r + 1:]:
            c = row[col]
            if c:
                row[col:] = [(x - c * y) % p
                             for x, y in zip(row[col:], tail)]
        r += 1
        if r == len(work):
            break
    return r


def kernel_dim_mod(m, p: int) -> int:
    rows = _rows_of(m)
    if not rows:
        return 0
    return len(rows[0]) - rank_mod(rows, p)
