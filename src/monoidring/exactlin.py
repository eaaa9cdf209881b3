"""Exact integer and rational linear algebra.

Everything runs on arbitrary-precision Python integers (and
``fractions.Fraction`` where division is unavoidable); no floating point
enters any computation.  Matrices are tuples of row tuples, vectors are
tuples, and the row convention is used throughout: a lattice is the set of
integer combinations of the *rows* of its basis matrix.

There are two eliminations, and each carries only the transform its
callers read.  The Hermite form (hnf) carries its left transform, and
lattice_from_rows runs it with none.  The Smith form (snf) carries the
inverse of its column transform, from which the saturation, the aligned
bases of finite quotients and the unimodular completion of a saturated
span are read with no second elimination to invert it.  Two lattice
operations run no elimination where the answer is already in hand: the
kernel of a form on a lattice (form_kernel) comes out of one xgcd pass
over the HNF basis already in echelon form, and lattice_intersect returns
its first argument when that lies in the second.  Results built here are
tuples of Python ints already; mat() converts input that comes from
outside.
"""

from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
from math import gcd
from operator import add, mul, sub

from .errors import DegenerateFace, NotSublattice

Vec = tuple[int, ...]
Mat = tuple[Vec, ...]


def vec(entries) -> Vec:
    return tuple(int(e) for e in entries)


def mat(rows) -> Mat:
    return tuple(vec(r) for r in rows)


def identity(n: int) -> Mat:
    return tuple(tuple(1 if i == j else 0 for j in range(n)) for i in range(n))


def transpose(m: Mat) -> Mat:
    return tuple(zip(*m)) if m else ()


def dot(u, v) -> int:
    return sum(map(mul, u, v))


def vadd(u: Vec, v: Vec) -> Vec:
    return tuple(map(add, u, v))


def vsub(u: Vec, v: Vec) -> Vec:
    return tuple(map(sub, u, v))


def vscale(k: int, u: Vec) -> Vec:
    return tuple(k * a for a in u)


def vneg(u: Vec) -> Vec:
    return tuple(-a for a in u)


def is_zero_vec(u) -> bool:
    return all(a == 0 for a in u)


def content(u: Vec) -> int:
    """Gcd of the entries, nonnegative."""
    g = 0
    for a in u:
        g = gcd(g, a)
    return g


def primitive(u: Vec) -> Vec:
    """Divide out the content; the zero vector stays zero."""
    g = content(u)
    if g <= 1:
        return tuple(u)
    return tuple(a // g for a in u)


def mat_mul(a: Mat, b: Mat) -> Mat:
    bt = transpose(b)
    return tuple(tuple(dot(ra, cb) for cb in bt) for ra in a)


def vec_mat(x, m: Mat) -> Vec:
    cols = len(m[0]) if m else 0
    return tuple(sum(x[i] * m[i][j] for i in range(len(m))) for j in range(cols))


def prime_factors(n: int) -> set[int]:
    """Prime divisors of |n| by trial division (desk-scale inputs)."""
    out = set()
    n = abs(n)
    p = 2
    while p * p <= n:
        while n % p == 0:
            out.add(p)
            n //= p
        p += 1
    if n > 1:
        out.add(n)
    return out


def xgcd(a: int, b: int) -> tuple[int, int, int]:
    """Return (g, s, t) with s*a + t*b = g = gcd(a, b) >= 0."""
    old_r, r = a, b
    old_s, s = 1, 0
    old_t, t = 0, 1
    while r:
        q = old_r // r
        old_r, r = r, old_r - q * r
        old_s, s = s, old_s - q * s
        old_t, t = t, old_t - q * t
    if old_r < 0:
        old_r, old_s, old_t = -old_r, -old_s, -old_t
    return old_r, old_s, old_t


def _row_gcd_transform(m, i, j, col):
    """Left-multiply rows i, j of the matrix m by the 2x2 determinant-one
    matrix that moves gcd(a, b) into position (i, col) and zeroes (j, col),
    for a, b the entries of m there."""
    a, b = m[i][col], m[j][col]
    if b == 0:
        return
    if a and b % a == 0:
        # shear only; keeping the pivot row fixed guarantees progress
        q = b // a
        m[j] = [y - q * x for x, y in zip(m[i], m[j])]
        return
    g, s, t = xgcd(a, b)
    p, q = -(b // g), a // g
    ri, rj = m[i], m[j]
    m[i] = [s * x + t * y for x, y in zip(ri, rj)]
    m[j] = [p * x + q * y for x, y in zip(ri, rj)]


def _hermite_rows(rows: list[list[int]], cols: int) -> None:
    """The Hermite elimination, in place, pivoting on the first cols columns.

    Each pivot column is cleared below its pivot by gcd steps, the pivot is
    made positive, and the entries above it are reduced into [0, pivot).
    Columns past cols are carried along by the same row operations and never
    pivoted on, so hnf reads its transform off an appended identity.  Zero
    rows sink to the bottom.
    """
    n = len(rows)
    piv_row = 0
    for col in range(cols):
        if piv_row >= n:
            break
        pivot = next((i for i in range(piv_row, n) if rows[i][col]), None)
        if pivot is None:
            continue
        if pivot != piv_row:
            rows[piv_row], rows[pivot] = rows[pivot], rows[piv_row]
        for i in range(piv_row + 1, n):
            _row_gcd_transform(rows, piv_row, i, col)
        if rows[piv_row][col] < 0:
            rows[piv_row] = [-x for x in rows[piv_row]]
        p = rows[piv_row][col]
        for i in range(piv_row):
            q = rows[i][col] // p
            if q:
                rows[i] = [x - q * y for x, y in zip(rows[i], rows[piv_row])]
        piv_row += 1


def hnf(matrix) -> tuple[Mat, Mat]:
    """Row Hermite normal form.

    Returns (h, u) with u unimodular, u @ matrix == h, pivots positive,
    entries above each pivot reduced into [0, pivot).  Zero rows sink to the
    bottom, so the nonzero rows of h are the canonical basis of the row span.
    The elimination runs on [matrix | I], pivoting on the columns of matrix
    only, and u is the part that started as I.  polyhedral.dual_description
    reads u, as the inverse of a unimodular matrix (whose HNF is I);
    lattice_from_rows and lattice_intersect run the same elimination
    without a transform.
    """
    rows = [list(r) for r in matrix]
    n = len(rows)
    cols = len(rows[0]) if n else 0
    for r, e in zip(rows, identity(n)):
        r.extend(e)
    _hermite_rows(rows, cols)
    return tuple(tuple(r[:cols]) for r in rows), tuple(tuple(r[cols:]) for r in rows)


def snf(matrix) -> tuple[tuple[int, ...], Mat]:
    """Smith normal form, with the one transform its callers read.

    Returns (d, w).  d is the diagonal, min(rows, cols) nonnegative entries
    forming a divisibility chain, its zeros last.  w is a unimodular
    cols x cols matrix with u @ matrix == D @ w for some unimodular u, D
    the rows x cols matrix with diagonal d.  So the rows d[i] * w[i] with
    d[i] != 0 are a basis of the row lattice of matrix, and the first r
    rows of w, r the number of nonzero d[i], are a basis of its saturation,
    which the other rows of w complete to a basis of Z^cols.

    The elimination brings a copy of the matrix to D by row operations and
    by column operations M <- M @ E, each E unimodular and acting on two
    columns i, j.  So D = u @ matrix @ v with v the product of the E, and
    u @ matrix = D @ v^-1.  w = v^-1 is kept instead of v: it starts as I
    and takes w <- E^-1 @ w, a step on rows i, j of w, for each E.  A swap
    of two columns swaps the two rows; the shear col_j -= q col_i gives
    w_i += q w_j; the xgcd step [[s, p], [t, q]] (E on rows and columns i,
    j, with s q - p t = 1) has inverse [[q, -p], [-t, s]] and gives
    w_i <- q w_i - p w_j, w_j <- s w_j - t w_i.  No inversion is left for
    the end, and u is not kept, as nothing reads it.
    """
    s = [list(r) for r in matrix]
    n = len(s)
    cols = len(s[0]) if n else 0
    w = [list(r) for r in identity(cols)]

    def col_gcd_transform(i, j, row):
        a, b = s[row][i], s[row][j]
        if b == 0:
            return
        if a and b % a == 0:
            q = b // a
            for r in s:
                r[j] -= q * r[i]
            w[i] = [x + q * y for x, y in zip(w[i], w[j])]
            return
        g, sc, tc = xgcd(a, b)
        p, q = -(b // g), a // g
        for r in s:
            xi, xj = r[i], r[j]
            r[i] = sc * xi + tc * xj
            r[j] = p * xi + q * xj
        wi, wj = w[i], w[j]
        w[i] = [q * x - p * y for x, y in zip(wi, wj)]
        w[j] = [sc * y - tc * x for x, y in zip(wi, wj)]

    k = 0
    while k < min(n, cols):
        nz = [(abs(s[i][j]), i, j) for i in range(k, n) for j in range(k, cols) if s[i][j]]
        if not nz:
            break
        _, bi, bj = min(nz)
        if bi != k:
            s[k], s[bi] = s[bi], s[k]
        if bj != k:
            for r in s:
                r[k], r[bj] = r[bj], r[k]
            w[k], w[bj] = w[bj], w[k]
        while True:
            for i in range(k + 1, n):
                _row_gcd_transform(s, k, i, col=k)
            for j in range(k + 1, cols):
                col_gcd_transform(k, j, row=k)
            if all(s[i][k] == 0 for i in range(k + 1, n)) and all(
                s[k][j] == 0 for j in range(k + 1, cols)
            ):
                bad = next(
                    (
                        (i, j)
                        for i in range(k + 1, n)
                        for j in range(k + 1, cols)
                        if s[i][j] % s[k][k]
                    ),
                    None,
                )
                if bad is None:
                    break
                i, _ = bad
                s[k] = [x + y for x, y in zip(s[k], s[i])]
        if s[k][k] < 0:
            s[k] = [-x for x in s[k]]
        k += 1
    return tuple(s[t][t] for t in range(min(n, cols))), tuple(map(tuple, w))


def invariant_factors(matrix) -> tuple[int, ...]:
    """The nonzero invariant factors of an integer matrix, in divisibility
    order; their number is the rank over Q, those prime to p give the rank
    over F_p, and their prime divisors are the torsion primes.

    Entries +-1 are pivoted first, on sparse rows (column -> entry).  A unit
    pivot (i, j) is cleared from column j by row operations and then from
    row i by column operations, all unimodular, so the matrix splits as
    (1) + its Schur complement on the other rows and columns: one factor 1
    per unit pivot.  Only the core left without unit entries goes through
    `snf` (Dumas-Saunders-Villard, JSC 2001).  A unit pivot is taken in the
    sparsest column of its row to limit fill-in.
    """
    rows: dict[int, dict[int, int]] = {}
    col_rows: dict[int, set[int]] = {}
    for i, r in enumerate(matrix):
        row = {j: x for j, x in enumerate(r) if x}
        if row:
            rows[i] = row
            for j in row:
                col_rows.setdefault(j, set()).add(i)
    units = 0
    queue = list(rows)
    queued = set(queue)
    while queue:
        i = queue.pop()
        queued.discard(i)
        row = rows.get(i)
        if row is None:
            continue
        unit_cols = [j for j, x in row.items() if x == 1 or x == -1]
        if not unit_cols:
            continue
        j = min(unit_cols, key=lambda c: len(col_rows[c]))
        del rows[i]
        p = row.pop(j)
        for c in row:
            col_rows[c].discard(i)
        others = col_rows.pop(j)
        others.discard(i)
        for k in others:
            target = rows[k]
            f = target.pop(j) * p
            for c, x in row.items():
                y = target.get(c, 0) - f * x
                if y:
                    if c not in target:
                        col_rows[c].add(k)
                    target[c] = y
                elif c in target:
                    del target[c]
                    col_rows[c].discard(k)
            if not target:
                del rows[k]
            elif k not in queued:
                queue.append(k)
                queued.add(k)
        units += 1
    if not rows:
        return (1,) * units
    cols = sorted({c for row in rows.values() for c in row})
    d, _ = snf([[row.get(c, 0) for c in cols] for row in rows.values()])
    core = tuple(x for x in d if x)
    return (1,) * units + core


def det(matrix) -> int:
    """Exact determinant by fraction-free (Bareiss) elimination."""
    n = len(matrix)
    if n == 0:
        return 1
    a = [list(r) for r in matrix]
    sign = 1
    prev = 1
    for k in range(n - 1):
        if a[k][k] == 0:
            swap = next((i for i in range(k + 1, n) if a[i][k]), None)
            if swap is None:
                return 0
            a[k], a[swap] = a[swap], a[k]
            sign = -sign
        for i in range(k + 1, n):
            for j in range(k + 1, n):
                a[i][j] = (a[i][j] * a[k][k] - a[i][k] * a[k][j]) // prev
            a[i][k] = 0
        prev = a[k][k]
    return sign * a[-1][-1]


def rank(matrix) -> int:
    """Rank over the rationals, by integer elimination."""
    rows = [list(r) for r in matrix if not is_zero_vec(r)]
    if not rows:
        return 0
    cols = len(rows[0])
    rk = 0
    for col in range(cols):
        pivot = next((i for i in range(rk, len(rows)) if rows[i][col]), None)
        if pivot is None:
            continue
        rows[rk], rows[pivot] = rows[pivot], rows[rk]
        p = rows[rk][col]
        for i in range(rk + 1, len(rows)):
            e = rows[i][col]
            if e:
                rows[i] = [p * x - e * y for x, y in zip(rows[i], rows[rk])]
                g = content(rows[i])
                if g > 1:
                    rows[i] = [x // g for x in rows[i]]
        rk += 1
        if rk == len(rows):
            break
    return rk


def rank_mod(matrix, p: int) -> int:
    """Rank over the prime field F_p."""
    rows = [[x % p for x in r] for r in matrix]
    rows = [r for r in rows if any(r)]
    if not rows:
        return 0
    cols = len(rows[0])
    rk = 0
    for col in range(cols):
        pivot = next((i for i in range(rk, len(rows)) if rows[i][col]), None)
        if pivot is None:
            continue
        rows[rk], rows[pivot] = rows[pivot], rows[rk]
        inv = pow(rows[rk][col], -1, p)
        rows[rk] = [(x * inv) % p for x in rows[rk]]
        for i in range(len(rows)):
            if i != rk and rows[i][col]:
                e = rows[i][col]
                rows[i] = [(x - e * y) % p for x, y in zip(rows[i], rows[rk])]
        rk += 1
        if rk == len(rows):
            break
    return rk


def solve_rational(rows: Mat, target) -> tuple[Fraction, ...] | None:
    """Solve t @ rows == target over Q for linearly independent rows.

    Returns None when target is outside the rational row span, and raises
    DegenerateFace on dependent rows.
    """
    k = len(rows)
    if k == 0:
        return () if is_zero_vec(target) else None
    m = len(rows[0])
    # Augmented system over the coordinates: rows^T t = target^T.
    aug = [[Fraction(rows[i][j]) for i in range(k)] + [Fraction(target[j])] for j in range(m)]
    piv_cols: list[int] = []
    r = 0
    for c in range(k):
        pivot = next((i for i in range(r, m) if aug[i][c]), None)
        if pivot is None:
            continue
        aug[r], aug[pivot] = aug[pivot], aug[r]
        pv = aug[r][c]
        aug[r] = [x / pv for x in aug[r]]
        for i in range(m):
            if i != r and aug[i][c]:
                e = aug[i][c]
                aug[i] = [x - e * y for x, y in zip(aug[i], aug[r])]
        piv_cols.append(c)
        r += 1
    for i in range(r, m):
        if aug[i][k]:
            return None
    if len(piv_cols) != k:
        raise DegenerateFace("solve_rational requires independent rows")
    sol = [Fraction(0)] * k
    for i, c in enumerate(piv_cols):
        sol[c] = aug[i][k]
    return tuple(sol)


def sign_det_fractions(rows) -> int:
    """Sign of the determinant of a square matrix of Fractions."""
    cleared = []
    for r in rows:
        denom_lcm = 1
        for x in r:
            denom_lcm = denom_lcm * x.denominator // gcd(denom_lcm, x.denominator)
        cleared.append([int(x * denom_lcm) for x in r])
    d = det(cleared)
    return (d > 0) - (d < 0)


@dataclass(frozen=True)
class Lattice:
    """A subgroup of Z^ambient_dim in canonical row-HNF form.

    Two Lattice values describe the same subgroup exactly when they compare
    equal componentwise, so equality of lattices is decidable by ``==``.
    """

    ambient_dim: int
    basis: Mat

    @property
    def rank(self) -> int:
        return len(self.basis)

    @cached_property
    def _pivots(self) -> tuple[int, ...]:
        """The pivot column of each basis row, found once per value.  Not a
        field, so equal lattices still compare and hash equal."""
        return tuple(next(j for j, a in enumerate(row) if a) for row in self.basis)

    def member(self, x) -> bool:
        return self.coords(x) is not None

    def coords(self, x) -> Vec | None:
        """Integer coordinates of x in the basis, or None."""
        if len(x) != self.ambient_dim:
            raise ValueError("dimension mismatch")
        residue = list(x)
        out = []
        for p, row in zip(self._pivots, self.basis):
            c, r = divmod(residue[p], row[p])
            if r:
                return None
            if c:
                residue = [a - c * b for a, b in zip(residue, row)]
            out.append(c)
        if any(residue):
            return None
        return tuple(out)

    def order(self, x) -> int:
        """The least k > 0 with k * x in the lattice; ValueError when x is
        off the rational span.

        k * x lies in the lattice exactly when k times each rational
        coordinate of x is an integer, so k is the lcm of the denominators
        of those coordinates.  The walk is that of coords on k * x, with k
        raised at each pivot just enough that the pivot entry divides: the
        pivot entry of the residue is k * c * d for c the coordinate and d
        the pivot, the later rows being zero in the pivot column, and
        multiplying k by the denominator of k * c makes it lcm(k, den c).
        """
        if len(x) != self.ambient_dim:
            raise ValueError("dimension mismatch")
        residue = list(x)
        k = 1
        for p, row in zip(self._pivots, self.basis):
            m = row[p] // gcd(residue[p], row[p])
            if m > 1:
                k *= m
                residue = [m * a for a in residue]
            c = residue[p] // row[p]
            if c:
                residue = [a - c * b for a, b in zip(residue, row)]
        if any(residue):
            raise ValueError("vector is not in the rational span of the lattice")
        return k

    def from_coords(self, coords) -> Vec:
        return vec_mat(coords, self.basis) if self.basis else (0,) * self.ambient_dim


def lattice_from_rows(ambient_dim: int, rows) -> Lattice:
    """The lattice spanned by rows, in its canonical HNF basis.

    The Hermite elimination of hnf runs on the rows alone, with no
    transform, as nothing here reads one.  The HNF of a row span is unique,
    so the basis is the nonzero rows of hnf(rows)[0].
    """
    rows = [list(map(int, r)) for r in rows]
    for r in rows:
        if len(r) != ambient_dim:
            raise ValueError("row length does not match ambient dimension")
    _hermite_rows(rows, ambient_dim)
    return Lattice(ambient_dim, tuple(tuple(r) for r in rows if any(r)))


def form_kernel(lat: Lattice, phi) -> Lattice:
    """{x in lat : phi . x = 0}, in its canonical HNF basis, by one pass of
    xgcd steps over the values of phi on the basis of lat.

    When phi vanishes on every basis row, the kernel is lat itself.
    Otherwise the pass runs from the last row up.  A row with value 0 joins
    the kernel.  The first other row is the running row p, with value a;
    each later row r, with value b, replaces p and r by s p + t r (value
    g = gcd(a, b) = s a + t b) and (b/g) p - (a/g) r (value 0), which joins
    the kernel.  That 2x2 step has determinant -(s a + t b)/g = -1, so the
    rows stay a basis of lat throughout; at the end it is the kernel rows
    and p, of value g != 0.  An x in lat is a combination of them, and
    phi(x) = c g for c its coefficient of p, so the kernel is exactly the
    span of the kernel rows.

    Each kernel row keeps the pivot column of the basis row r it was made
    at: p is a combination of the rows after r, which the HNF makes zero in
    that column and every one before it, and the coefficient of r is 1 or
    -a/g, nonzero.  So the kernel rows, in basis order, are in echelon form,
    and the unique HNF of their span (Cohen, GTM 138, §2.4.2) needs no gcd
    elimination: each pivot is made positive and the entries above it are
    reduced into [0, pivot).  Those pivot columns are the kernel's
    _pivots, which it is handed, so no caller looks for them again.
    """
    values = [dot(phi, r) for r in lat.basis]
    if not any(values):
        return lat
    kernel, pivots = [], []
    p, a = None, 0
    for col, r, b in zip(reversed(lat._pivots), reversed(lat.basis), reversed(values)):
        if not b:
            kernel.append(list(r))
        elif p is None:
            p, a = r, b
            continue
        else:
            g, s, t = xgcd(a, b)
            u, v = b // g, a // g
            kernel.append([u * x - v * y for x, y in zip(p, r)])
            p, a = [s * x + t * y for x, y in zip(p, r)], g
        pivots.append(col)
    kernel.reverse()
    pivots.reverse()
    for k, col in enumerate(pivots):
        row = kernel[k]
        if row[col] < 0:
            kernel[k] = row = [-x for x in row]
        for j in range(k):
            q = kernel[j][col] // row[col]
            if q:
                kernel[j] = [x - q * y for x, y in zip(kernel[j], row)]
    out = Lattice(lat.ambient_dim, tuple(map(tuple, kernel)))
    out.__dict__["_pivots"] = tuple(pivots)  # the slot of the cached Lattice._pivots
    return out


def lattice_intersect(a: Lattice, b: Lattice) -> Lattice:
    """a ∩ b: a itself when a ⊆ b, else one Hermite elimination of the rows
    [a | a ; b | 0] over all 2m columns.

    a ⊆ b is decided first, by one membership test in b per basis row of
    a, so a caller passes first the lattice it expects to be the smaller.
    Otherwise the rows span the pairs (x + y, x) for x in a and y in b.
    The left half is zero exactly when y = -x, so these pairs are (0, z)
    for z in a ∩ b, and every z in a ∩ b gives one.  In the echelon form, a
    combination of rows is nonzero in the pivot column of its first row
    with a nonzero coefficient.  So the rows with a zero left half, the last
    ones, span exactly {0} x (a ∩ b).  The elimination made their pivots
    positive and reduced the entries above each pivot, so their right
    halves are the canonical HNF basis of a ∩ b.
    """
    if a.ambient_dim != b.ambient_dim:
        raise ValueError("ambient dimensions differ")
    if all(map(b.member, a.basis)):
        return a
    m = a.ambient_dim
    rows = [list(r + r) for r in a.basis] + [list(r) + [0] * m for r in b.basis]
    _hermite_rows(rows, 2 * m)
    return Lattice(m, tuple(tuple(r[m:]) for r in rows if any(r[m:]) and not any(r[:m])))


def saturation(lat: Lattice) -> Lattice:
    """Smallest saturated lattice containing lat: (R-span of lat) cap Z^m,
    spanned by the first lat.rank rows of snf's w."""
    if lat.rank == 0:
        return lat
    _, w = snf(lat.basis)
    return lattice_from_rows(lat.ambient_dim, w[: lat.rank])


def _diagonal_coords(a: Lattice, b: Lattice) -> list[int] | None:
    """c with b.basis[i] == c[i] * a.basis[i] for every i, or None: the
    coordinates of b's basis in a's when they form the matrix diag(c).
    Both lattices have the same rank and ambient dimension."""
    out = []
    for p, ra, rb in zip(a._pivots, a.basis, b.basis):
        c = rb[p] // ra[p]
        if any(y != c * x for x, y in zip(ra, rb)):
            return None
        out.append(c)
    return out


def quotient_decomposition(a: Lattice, b: Lattice) -> tuple[tuple[int, ...], Mat]:
    """Aligned basis for a finite quotient a/b of equal-rank lattices.

    Returns (d, rows) with rows a basis of a such that the d[i]-multiples of
    the rows form a basis of b; the classes of a/b are exactly the sums
    sum c_i rows[i] with 0 <= c_i < d[i].  For c the coordinates of b's
    basis in a's, snf(c) gives u @ c == D @ w, so the rows w @ a.basis are
    a basis of a and the rows of D @ (w @ a.basis) = u @ b.basis one of b.

    Two cases give snf's own output without running it.  For a == b, c is
    the identity, on which snf changes nothing: d is all ones and w = I.
    For c = diag(c_0, ..., c_{r-1}), b's basis rows multiples of a's
    (positive ones, as both bases are in Hermite form), snf's row and column
    gcd steps find only zeros off the diagonal and do nothing.  So step k
    only selects: it swaps into position k the least entry at a position
    >= k, the lowest such position on a tie, and swaps the same two rows
    of w.  Its bad branch fires exactly when that least entry fails to
    divide a later one, so on a selected sequence that is a divisibility
    chain it never does, and d is that sequence, w the permutation matrix
    of the selection order, and w @ a.basis the rows of a.basis in that
    order.  A diagonal c whose selected sequence is not a chain, and every
    other c, goes through snf.
    """
    if a.rank != b.rank:
        raise NotSublattice("quotient is infinite: ranks differ")
    if a.rank == 0:
        return (), ()
    if a.ambient_dim != b.ambient_dim:
        raise ValueError("ambient dimensions differ")
    if a == b:
        return (1,) * a.rank, a.basis
    diag = _diagonal_coords(a, b)
    if diag is not None:
        order = list(range(a.rank))
        for k in range(a.rank):
            j = min(range(k, a.rank), key=lambda j: diag[order[j]])
            order[k], order[j] = order[j], order[k]
        d = tuple(diag[i] for i in order)
        if all(y % x == 0 for x, y in zip(d, d[1:])):
            return d, tuple(a.basis[i] for i in order)
    coords = [a.coords(row) for row in b.basis]
    if None in coords:
        raise NotSublattice("second lattice is not contained in the first")
    d, w = snf(coords)
    return d, mat_mul(w, a.basis)
