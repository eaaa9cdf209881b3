import random
from collections import Counter
from fractions import Fraction
from itertools import combinations
from math import gcd

import pytest

from monoidring.errors import DegenerateFace, NotSublattice
from monoidring.exactlin import (
    Lattice,
    det,
    dot,
    form_kernel,
    hnf,
    identity,
    invariant_factors,
    lattice_from_rows,
    lattice_intersect,
    mat,
    mat_mul,
    quotient_decomposition,
    rank,
    rank_mod,
    saturation,
    snf,
    solve_rational,
    vec_mat,
)

from conftest import assert_kernel_matches_dense_path, fraction_det, snf_contract_failures
from oracles import (
    AbelianQuotient,
    intersect_by_kernel,
    left_kernel,
    quotient_structure,
    smith_decomposition,
)


def random_matrix(rng, rows, cols, bound=5):
    return mat([[rng.randint(-bound, bound) for _ in range(cols)] for _ in range(rows)])


def is_row_hnf(h):
    pivots = []
    for r in h:
        nz = [j for j, x in enumerate(r) if x]
        if not nz:
            pivots.append(None)
            continue
        assert not pivots or pivots[-1] is not None, "zero row above nonzero row"
        p = nz[0]
        assert r[p] > 0
        if pivots and pivots[-1] is not None:
            assert p > pivots[-1]
        pivots.append(p)
    rows = [r for r, p in zip(h, pivots) if p is not None]
    pcols = [p for p in pivots if p is not None]
    for i, p in enumerate(pcols):
        for k in range(i):
            assert 0 <= rows[k][p] < rows[i][p]
        for k in range(i + 1, len(rows)):
            assert rows[k][p] == 0
    return True


class TestHnf:
    def test_identity(self):
        h, u = hnf(identity(3))
        assert h == identity(3)
        assert u == identity(3)

    def test_small_example(self):
        m = mat([[2, 4], [6, 8]])
        h, u = hnf(m)
        # hand reduction: r2 -= 3 r1 gives (0, -4); sign flip; r1 -= r2
        assert h == mat([[2, 0], [0, 4]])
        assert mat_mul(u, m) == h
        assert abs(det(u)) == 1

    def test_idempotent_and_transform(self):
        rng = random.Random(101)
        for _ in range(60):
            m = random_matrix(rng, rng.randint(1, 4), rng.randint(1, 4))
            h, u = hnf(m)
            assert mat_mul(u, m) == h
            assert abs(det(u)) == 1
            assert is_row_hnf(h)
            h2, _ = hnf(h)
            assert h2 == h


def _index_in(rows, basis):
    """[Z-span(basis) : Z-span(rows)] for rows inside Z-span(basis) of full
    rank there: the gcd of the maximal minors of the coordinate matrix of
    the rows, solved over Q against the echelon basis."""
    coords = []
    for r in rows:
        residue, c = [Fraction(x) for x in r], []
        for b in basis:
            p = next(j for j, x in enumerate(b) if x)
            t = residue[p] / b[p]
            residue = [x - t * y for x, y in zip(residue, b)]
            c.append(t)
        assert not any(residue)
        coords.append(c)
    index = 0
    for pick in combinations(coords, len(basis)):
        det = fraction_det(pick)
        assert det.denominator == 1
        index = gcd(index, det.numerator)
    return index


def awkward_matrix(rng):
    """Up to 7 rows of length 1-5 with zero rows, zero columns, repeated
    rows, combinations of other rows, negative leading entries and entries
    past 10**6, each with some chance."""
    cols = rng.randint(1, 5)
    bound = rng.choice([3, 9, 10**7])
    rows = [[rng.randint(-bound, bound) for _ in range(cols)] for _ in range(rng.randint(0, 4))]
    if rows and rng.random() < 0.4:
        rows.append(list(rng.choice(rows)))
    if len(rows) >= 2 and rng.random() < 0.4:
        a, b = rng.sample(rows, 2)
        s, t = rng.randint(-3, 3), rng.randint(-3, 3)
        rows.append([s * x + t * y for x, y in zip(a, b)])
    if rng.random() < 0.3:
        rows.insert(rng.randint(0, len(rows)), [0] * cols)
    if cols > 1 and rng.random() < 0.3:
        j = rng.randrange(cols)
        for r in rows:
            r[j] = 0
    for r in rows:
        if rng.random() < 0.5:
            r[:] = [-x for x in r]
    rng.shuffle(rows)
    return cols, rows


class TestLatticeFromRows:
    """lattice_from_rows, which runs the Hermite elimination with no
    transform, against checks that share no code with it."""

    def test_awkward_matrices(self):
        rng = random.Random(71)
        seen = Counter()
        for _ in range(300):
            cols, rows = awkward_matrix(rng)
            lat = lattice_from_rows(cols, rows)
            basis = lat.basis
            assert is_row_hnf(basis) and all(any(b) for b in basis)
            assert all(lat.member(r) for r in rows)
            nonzero = [r for r in rows if any(r)]
            # every basis row an integer combination of the rows: they
            # generate the same group, of index 1 in the basis span
            assert not basis or _index_in(nonzero, basis) == 1
            seen["zero row"] += len(nonzero) < len(rows)
            seen["zero column"] += bool(rows) and not all(map(any, zip(*rows)))
            seen["rank deficient"] += len(basis) < len(rows)
            seen["repeated row"] += len(set(map(tuple, rows))) < len(rows)
            seen["negative lead"] += any(next(x for x in r if x) < 0 for r in nonzero)
            seen["past 10**6"] += any(abs(x) > 10**6 for r in rows for x in r)
        assert min(seen.values()) >= 30, seen

    def test_same_basis_as_hnf(self):
        rng = random.Random(72)
        for _ in range(100):
            cols, rows = awkward_matrix(rng)
            h, _ = hnf(rows) if rows else ((), ())
            assert lattice_from_rows(cols, rows).basis == tuple(r for r in h if any(r))


class TestSnf:
    """snf's contract, u @ m == D @ w for some unimodular u, checked by
    conftest.snf_contract_failures in the test's own Fraction arithmetic."""

    def test_zero(self):
        d, w = snf(mat([[0, 0], [0, 0]]))
        assert d == (0, 0)
        assert not snf_contract_failures(((0, 0), (0, 0)), d, w)

    def test_small_example(self):
        # d1 = gcd of entries = 2, d1*d2 = |det| = 8
        d, w = snf(mat([[2, 4], [6, 8]]))
        assert d == (2, 4)
        assert not snf_contract_failures(((2, 4), (6, 8)), d, w)

    def test_diag_input(self):
        # gcd 2, product 24
        d, w = snf(mat([[6, 0], [0, 4]]))
        assert d == (2, 12)
        assert not snf_contract_failures(((6, 0), (0, 4)), d, w)

    def test_random_properties(self):
        rng = random.Random(202)
        for _ in range(60):
            m = random_matrix(rng, rng.randint(1, 4), rng.randint(1, 4))
            assert not snf_contract_failures(m, *snf(m)), m

    def test_awkward_matrices(self):
        rng = random.Random(203)
        seen = Counter()
        for _ in range(300):
            cols, rows = awkward_matrix(rng)
            m = mat(rows)
            d, w = snf(m)
            assert not snf_contract_failures(m, d, w), rows
            seen["zero row"] += any(not any(r) for r in rows)
            seen["zero column"] += bool(rows) and not all(map(any, zip(*rows)))
            seen["rank deficient"] += rank(m) < min(len(rows), cols)
            seen["past 10**6"] += any(abs(x) > 10**6 for r in rows for x in r)
            seen["no rows"] += not rows
        assert min(seen.values()) >= 30, seen

    def test_empty_and_zero_matrices(self):
        assert snf(()) == ((), ())
        for rows, cols in [(1, 0), (3, 0), (1, 1), (3, 4), (4, 3)]:
            m = mat([[0] * cols for _ in range(rows)])
            d, w = snf(m)
            assert d == (0,) * min(rows, cols)
            assert w == identity(cols)
            assert not snf_contract_failures(m, d, w)


class TestLattice:
    def test_empty_rows(self):
        lat = lattice_from_rows(3, [])
        assert lat.rank == 0

    def test_canonical_basis(self):
        lat = lattice_from_rows(2, [(2, 0), (0, 1), (2, 1)])
        assert lat.basis == mat([[2, 0], [0, 1]])

    def test_standard_basis(self):
        assert lattice_from_rows(3, identity(3)).basis == identity(3)

    def test_order_insensitive(self):
        rng = random.Random(303)
        for _ in range(40):
            rows = [tuple(rng.randint(-5, 5) for _ in range(3)) for _ in range(rng.randint(1, 4))]
            lat = lattice_from_rows(3, rows)
            rng.shuffle(rows)
            assert lattice_from_rows(3, rows) == lat

    def test_member_basics(self):
        lat = lattice_from_rows(2, [(2, 0), (0, 1)])
        assert lat.member((0, 0))
        assert not lat.member((1, 1))
        assert lat.member((2, 0))

    def test_member_vs_rational_solve(self):
        # independent oracle: solve over Q and check integrality
        rng = random.Random(404)
        checked = 0
        for _ in range(1000):
            dim = rng.randint(1, 3)
            lat = lattice_from_rows(
                dim, [[rng.randint(-5, 5) for _ in range(dim)] for _ in range(rng.randint(1, 3))]
            )
            x = tuple(rng.randint(-5, 5) for _ in range(dim))
            got = lat.member(x)
            sol = solve_rational(lat.basis, x)
            expect = sol is not None and all(c.denominator == 1 for c in sol)
            assert got == expect
            checked += 1
        assert checked == 1000

    def test_member_construct_then_check(self):
        rng = random.Random(505)
        for _ in range(100):
            dim = rng.randint(1, 4)
            lat = lattice_from_rows(
                dim, [[rng.randint(-4, 4) for _ in range(dim)] for _ in range(rng.randint(1, dim))]
            )
            if lat.rank == 0:
                continue
            coeffs = [rng.randint(-6, 6) for _ in range(lat.rank)]
            x = vec_mat(coeffs, lat.basis)
            assert lat.member(x)
            assert lat.coords(x) == tuple(coeffs)

    def test_stored_pivots_leave_equality_alone(self):
        # coords stores the pivot columns on the lattice it reads; a lattice
        # with them stored and one without still compare and hash equal
        a = lattice_from_rows(3, [(2, 0, 0), (0, 1, 1)])
        b = lattice_from_rows(3, [(0, 1, 1), (2, 4, 4)])
        assert a.coords((4, 1, 1)) == (2, 1)
        assert "_pivots" in vars(a) and "_pivots" not in vars(b)
        assert a == b and hash(a) == hash(b)
        assert {a: "a"}[b] == "a"
        assert a._pivots == b._pivots == (0, 1)
        assert a.order((1, 1, 1)) == 2
        assert repr(a) == repr(b)


class TestVecMat:
    """vec_mat and Lattice.from_coords take one coefficient per row, and
    vec_mat is the plain double sum."""

    def test_equals_the_double_sum(self):
        rng = random.Random(2808)
        seen = Counter()
        for _ in range(2000):
            rows, cols = rng.randint(0, 5), rng.randint(1, 6)
            m = random_matrix(rng, rows, cols, rng.choice([3, 10**9]))
            x = tuple(rng.choice([0, 0, 1, -1, rng.randint(-10**6, 10**6)]) for _ in range(rows))
            want = tuple(sum(x[i] * m[i][j] for i in range(rows)) for j in range(cols))
            assert vec_mat(x, m) == (want if rows else ())
            seen["zero"] += 0 in x
            seen["one"] += 1 in x
            seen["all zero"] += rows > 0 and not any(x)
        assert min(seen.values()) >= 100

    def test_coefficient_count_must_match(self):
        m = ((1, 0, 0), (0, 1, 0))
        for x in ((1,), (1, 2, 5), ()):
            with pytest.raises(ValueError, match="dimension mismatch"):
                vec_mat(x, m)
        with pytest.raises(ValueError, match="dimension mismatch"):
            vec_mat((1,), ())

    def test_from_coords_count_must_match(self):
        lat = Lattice(3, ((1, 0, 0), (0, 1, 0)))
        assert lat.from_coords((1, 2)) == (1, 2, 0)
        for coords in ((1, 2, 5), (1,), ()):
            with pytest.raises(ValueError, match="dimension mismatch"):
                lat.from_coords(coords)
        zero = Lattice(3, ())
        assert zero.from_coords(()) == (0, 0, 0)
        with pytest.raises(ValueError, match="dimension mismatch"):
            zero.from_coords((1,))


class TestIntersectSaturation:
    def test_self_intersection(self):
        lat = lattice_from_rows(2, [(2, 0), (0, 3)])
        assert lattice_intersect(lat, lat) == lat

    def test_even_sum_example(self):
        a = lattice_from_rows(2, [(2, 0), (0, 1)])
        b = lattice_from_rows(2, [(1, 1), (0, 2)])  # x + y even
        got = lattice_intersect(a, b)
        assert got == lattice_from_rows(2, [(2, 0), (0, 2)])
        # brute force over a box
        for x in range(-4, 5):
            for y in range(-4, 5):
                expect = x % 2 == 0 and (x + y) % 2 == 0
                assert got.member((x, y)) == expect

    def test_full_identity(self):
        a = lattice_from_rows(3, [(1, 2, 3), (0, 5, 1)])
        assert lattice_intersect(a, lattice_from_rows(3, identity(3))) == a

    def test_random_brute_force(self):
        rng = random.Random(606)
        for _ in range(40):
            a = lattice_from_rows(2, [[rng.randint(-3, 3) for _ in range(2)] for _ in range(2)])
            b = lattice_from_rows(2, [[rng.randint(-3, 3) for _ in range(2)] for _ in range(2)])
            got = lattice_intersect(a, b)
            for x in range(-4, 5):
                for y in range(-4, 5):
                    expect = a.member((x, y)) and b.member((x, y))
                    assert got.member((x, y)) == expect

    def test_one_elimination_equals_the_kernel_construction(self):
        """The rows of [a | a ; b | 0] with a zero left half against the
        left kernel of the stacked bases, on seeded pairs of ranks 0 to m
        with dependent rows and entries past 10**6."""
        rng = random.Random(1919)
        seen = Counter()
        for _ in range(400):
            m = rng.randint(1, 6)
            bound = rng.choice([3, 9, 10**7])

            def rows(r):
                out = [[rng.randint(-bound, bound) for _ in range(m)] for _ in range(r)]
                if len(out) >= 2 and rng.random() < 0.4:
                    x, y = rng.sample(out, 2)
                    s, t = rng.randint(-3, 3), rng.randint(-3, 3)
                    out.append([s * p + t * q for p, q in zip(x, y)])
                    seen["dependent"] += 1
                return out

            a = lattice_from_rows(m, rows(rng.randint(0, m)))
            if rng.random() < 0.3:
                # a sublattice of a, so that the intersection has a's rank;
                # each row of m entries gives its first a.rank as coefficients
                b = lattice_from_rows(
                    m, [vec_mat(c[: a.rank], a.basis) for c in rows(a.rank)] if a.rank else []
                )
            else:
                b = lattice_from_rows(m, rows(rng.randint(0, m)))
            got = lattice_intersect(a, b)
            assert got == intersect_by_kernel(a, b), (a, b)
            seen["rank", a.rank == 0 or b.rank == 0, a.rank == m or b.rank == m] += 1
            seen["big"] += any(abs(x) > 10**6 for lat in (a, b) for row in lat.basis for x in row)
            seen["meet", got.rank] += 1
        assert seen["dependent"] >= 30 and seen["big"] >= 50
        assert all(seen["rank", zero, full] >= 20 for zero in (True, False) for full in (True, False))
        assert all(seen["meet", r] >= 10 for r in range(6))

    def test_containment_returns_the_first_argument(self):
        """Seeded pairs with a ⊆ b, with b ⊆ a and with neither, against the
        2m-column elimination of [a | a ; b | 0] written out here: the same
        lattice, and a itself exactly when a ⊆ b."""
        rng = random.Random(2323)
        seen = Counter()
        for _ in range(300):
            m = rng.randint(1, 5)
            big = rng.choice([4, 10**6])
            outer = lattice_from_rows(m, random_matrix(rng, rng.randint(0, m), m, big))
            coeffs = random_matrix(rng, rng.randint(0, m), outer.rank) if outer.rank else ()
            inner = lattice_from_rows(m, [vec_mat(c, outer.basis) for c in coeffs])
            kind = rng.choice(["a in b", "b in a", "neither"])
            if kind == "a in b":
                a, b = inner, outer
            elif kind == "b in a":
                a, b = outer, inner
            else:
                a = lattice_from_rows(m, random_matrix(rng, rng.randint(1, m), m))
                b = lattice_from_rows(m, random_matrix(rng, rng.randint(1, m), m))
            rows = [r + r for r in a.basis] + [r + (0,) * m for r in b.basis]
            h, _ = hnf(rows) if rows else ((), ())
            want = Lattice(m, tuple(r[m:] for r in h if any(r[m:]) and not any(r[:m])))
            got = lattice_intersect(a, b)
            assert got == want
            a_in_b = all(map(b.member, a.basis))
            assert (got is a) == a_in_b
            seen[a_in_b, all(map(a.member, b.basis))] += 1
        # every kind of pair, the equal ones included
        assert min(seen[k] for k in [(True, True), (True, False), (False, True), (False, False)]) >= 20

    def test_saturation_examples(self):
        assert saturation(lattice_from_rows(2, identity(2))) == lattice_from_rows(2, identity(2))
        assert saturation(lattice_from_rows(2, [(0, 2)])) == lattice_from_rows(2, [(0, 1)])
        zero = lattice_from_rows(2, [])
        assert saturation(zero) == zero

    def test_saturation_brute_force(self):
        lat = lattice_from_rows(3, [(2, 4, 0), (0, 0, 3)])
        sat = saturation(lat)
        assert sat == lattice_from_rows(3, [(1, 2, 0), (0, 0, 1)])


class TestQuotient:
    def test_trivial(self):
        a = lattice_from_rows(2, [(1, 0), (0, 1)])
        q = quotient_structure(a, a)
        assert q == AbelianQuotient(0, ())

    def test_cyclic(self):
        a = lattice_from_rows(1, [(1,)])
        b = lattice_from_rows(1, [(2,)])
        assert quotient_structure(a, b) == AbelianQuotient(0, (2,))

    def test_z2_z3(self):
        # Z^2 / (2Z x 3Z) = Z/6, the factor 1 dropped
        z2 = lattice_from_rows(2, identity(2))
        q = quotient_structure(z2, lattice_from_rows(2, [(2, 0), (0, 3)]))
        assert q == AbelianQuotient(0, (6,))

    def test_not_sublattice(self):
        with pytest.raises(NotSublattice):
            quotient_structure(lattice_from_rows(2, [(2, 0)]), lattice_from_rows(2, [(1, 0)]))

    def test_index_equals_det_ratio(self):
        rng = random.Random(808)
        for _ in range(40):
            a_rows = [[rng.randint(-3, 3) for _ in range(3)] for _ in range(3)]
            a = lattice_from_rows(3, a_rows)
            if a.rank < 3:
                continue
            mult = [[rng.randint(-2, 2) for _ in range(3)] for _ in range(3)]
            if det(mult) == 0:
                continue
            b = lattice_from_rows(3, mat_mul(mat(mult), a.basis))
            q = quotient_structure(a, b)
            assert q.free_rank == 0
            index = 1
            for f in q.invariant_factors:
                index *= f
            assert index == abs(det(mult))

    def test_decomposition_classes(self):
        a = lattice_from_rows(2, identity(2))
        b = lattice_from_rows(2, [(2, 0), (0, 2)])
        d, rows = quotient_decomposition(a, b)
        assert sorted(d) == [2, 2]
        # the d-box enumerates each coset exactly once
        seen = set()
        for c0 in range(d[0]):
            for c1 in range(d[1]):
                x = vec_mat((c0, c1), rows)
                key = tuple(xi % 2 for xi in x)
                seen.add(key)
        assert len(seen) == 4


def sparse_hnf_lattice(rng, m, r):
    """A random rank-r lattice in Z^m whose Hermite basis is zero above
    every pivot, so any positive multiples of its rows are again a Hermite
    basis: the basis of the lattice they span."""
    pivots = sorted(rng.sample(range(m), r))
    rows = []
    for p in pivots:
        row = [0] * m
        row[p] = rng.randint(1, 4)
        for j in range(p + 1, m):
            if j not in pivots:
                row[j] = rng.randint(-3, 3)
        rows.append(tuple(row))
    lat = lattice_from_rows(m, rows)
    assert lat.basis == tuple(rows)
    return lat


def random_chain(rng, r):
    """A shuffled divisibility chain of r factors."""
    chain = [rng.choice((1, 2, 3))]
    while len(chain) < r:
        chain.append(chain[-1] * rng.choice((1, 1, 2, 3)))
    rng.shuffle(chain)
    return tuple(chain)


class TestQuotientDecomposition:
    """quotient_decomposition gives snf's own output, compared by repr with
    the Smith path of oracles.smith_decomposition: on pairs b = diag(c) a,
    where it reads the answer off c, and on every other pair."""

    @staticmethod
    def scaled(a, diag):
        return tuple(tuple(c * x for x in row) for c, row in zip(diag, a.basis))

    def check_diagonal_pair(self, a, diag):
        # compares with the Smith path; True when b's basis is diag(c) a's
        b = lattice_from_rows(a.ambient_dim, self.scaled(a, diag))
        assert repr(quotient_decomposition(a, b)) == repr(smith_decomposition(a, b))
        return b.basis == self.scaled(a, diag)

    def test_named_diagonals(self):
        # (2, 2, 1): snf selects [2, 1, 0], a stable sort [2, 0, 1];
        # (2, 3) and (4, 6) are no chains and take the Smith path
        rng = random.Random(24)
        named = [(2, 2, 1), (3, 1, 1, 3), (1,), (1, 1, 1, 1), (2, 3), (4, 6), (6, 2, 3)]
        for diag in named:
            for _ in range(10):
                a = sparse_hnf_lattice(rng, rng.randint(len(diag), 7), len(diag))
                assert self.check_diagonal_pair(a, diag)
        b = Lattice(3, ((2, 0, 0), (0, 2, 0), (0, 0, 1)))
        got = quotient_decomposition(Lattice(3, identity(3)), b)
        assert got == ((1, 2, 2), ((0, 0, 1), (0, 1, 0), (1, 0, 0)))

    def test_shuffled_chains(self):
        rng = random.Random(25)
        for _ in range(300):
            r = rng.randint(1, 6)
            a = sparse_hnf_lattice(rng, rng.randint(r, 7), r)
            assert self.check_diagonal_pair(a, random_chain(rng, r))

    def test_multiples_of_random_hnf_lattices(self):
        # b's Hermite basis is diag(c) a's for some pairs and not for others
        rng = random.Random(26)
        diagonal = Counter()
        for _ in range(300):
            m = rng.randint(1, 6)
            a = lattice_from_rows(m, random_matrix(rng, rng.randint(1, m), m))
            if a.rank == 0:
                continue
            diag = tuple(rng.choice((1, 2, 3, 4, 6)) for _ in range(a.rank))
            diagonal[self.check_diagonal_pair(a, diag)] += 1
        assert min(diagonal[True], diagonal[False]) >= 50, diagonal

    def test_non_diagonal_pairs(self):
        rng = random.Random(27)
        seen = 0
        while seen < 200:
            m = rng.randint(1, 6)
            a = lattice_from_rows(m, random_matrix(rng, rng.randint(1, m), m))
            mult = random_matrix(rng, a.rank, a.rank, bound=3)
            if a.rank == 0 or det(mult) == 0:
                continue
            b = lattice_from_rows(m, mat_mul(mult, a.basis))
            assert repr(quotient_decomposition(a, b)) == repr(smith_decomposition(a, b))
            seen += 1

    def test_refusals(self):
        z2 = lattice_from_rows(2, identity(2))
        even_x = lattice_from_rows(2, [(2, 0), (0, 1)])
        with pytest.raises(NotSublattice):
            quotient_decomposition(even_x, z2)
        with pytest.raises(NotSublattice):
            quotient_decomposition(z2, Lattice(2, ((2, 0),)))
        with pytest.raises(ValueError):
            quotient_decomposition(z2, lattice_from_rows(3, [(1, 0, 0), (0, 1, 0)]))


def hnf_form_kernel(lat, phi):
    """The kernel of phi on lat the other way: an HNF transform of phi's
    values on the basis, then its zero-value rows."""
    values = [(dot(phi, b),) for b in lat.basis]
    rows = [vec_mat(k, lat.basis) for k in left_kernel(values, lat.rank)]
    return lattice_from_rows(lat.ambient_dim, rows)


class TestFormKernel:
    """form_kernel's xgcd pass against the HNF kernel, on seeded random
    lattices (rank 0 up to full) and forms: the same Lattice, its basis
    already the canonical one, and lat itself when phi vanishes on lat."""

    @staticmethod
    def assert_matches_hnf(lat, phi):
        got = form_kernel(lat, phi)
        assert got == hnf_form_kernel(lat, phi)
        assert lattice_from_rows(lat.ambient_dim, got.basis) == got
        # a basis: one row fewer than lat unless phi vanishes on all of lat
        drop = 1 if any(dot(phi, b) for b in lat.basis) else 0
        assert got.rank == rank(got.basis) == lat.rank - drop
        assert all(dot(phi, k) == 0 for k in got.basis)
        assert (got is lat) == (not drop)

    @staticmethod
    def random_lattice(rng, m, bound):
        r = rng.randint(0, m)
        return lattice_from_rows(m, random_matrix(rng, r, m, bound))

    def test_random_forms(self):
        rng = random.Random(41)
        for _ in range(300):
            m = rng.randint(1, 6)
            lat = self.random_lattice(rng, m, 5)
            self.assert_matches_hnf(lat, tuple(rng.randint(-6, 6) for _ in range(m)))

    def test_rank_zero(self):
        zero = Lattice(3, ())
        assert form_kernel(zero, (1, 2, 3)) is zero
        self.assert_matches_hnf(zero, (1, 2, 3))

    def test_forms_vanishing_on_the_lattice(self):
        rng = random.Random(42)
        for _ in range(100):
            m = rng.randint(2, 6)
            lat = lattice_from_rows(m, random_matrix(rng, rng.randint(1, m - 1), m))
            if lat.rank == m:
                continue
            # a form orthogonal to lat: a row of the left kernel of its transpose
            normals = left_kernel(tuple(zip(*lat.basis)), m)
            phi = vec_mat([rng.randint(-3, 3) for _ in normals], normals)
            assert all(dot(phi, b) == 0 for b in lat.basis)
            self.assert_matches_hnf(lat, phi)
            assert form_kernel(lat, phi) is lat

    def test_handed_over_pivots(self):
        # the kernel carries the pivot columns its pass tracked; they are
        # the ones Lattice finds on the same basis
        rng = random.Random(44)
        cut = 0
        for _ in range(300):
            m = rng.randint(1, 6)
            lat = self.random_lattice(rng, m, 5)
            out = form_kernel(lat, tuple(rng.randint(-6, 6) for _ in range(m)))
            if out is lat:
                continue
            assert "_pivots" in vars(out)
            assert out._pivots == Lattice(out.ambient_dim, out.basis)._pivots
            cut += 1
        assert cut >= 200

    def test_large_entries(self):
        rng = random.Random(43)
        big = 0
        for _ in range(100):
            m = rng.randint(2, 5)
            lat = self.random_lattice(rng, m, 10**7)
            phi = tuple(rng.randint(-(10**9), 10**9) for _ in range(m))
            self.assert_matches_hnf(lat, phi)
            big += any(abs(x) > 10**6 for b in lat.basis for x in b)
        assert big >= 50


class TestKernelRank:
    def test_left_kernel(self):
        m = mat([[1, 2], [2, 4], [0, 1]])
        k = left_kernel(m, 3)
        assert len(k) == 1
        assert vec_mat(k[0], m) == (0, 0)

    def test_rank_and_rank_mod(self):
        m = mat([[2, 4], [1, 2]])
        assert rank(m) == 1
        assert rank_mod(m, 2) == 1
        assert rank_mod(mat([[2, 0], [0, 2]]), 2) == 0
        assert rank_mod(mat([[2, 0], [0, 2]]), 3) == 2

    def test_solve_rational(self):
        rows = mat([[2, 0, 1], [0, 3, 1]])
        sol = solve_rational(rows, (2, 3, 2))
        assert sol == (Fraction(1), Fraction(1))
        assert solve_rational(rows, (0, 0, 1)) is None

    def test_solve_rational_refuses_dependent_rows(self):
        # a typed error, so the check also runs under python -O
        rows = mat([[1, 2, 0], [2, 4, 0]])
        with pytest.raises(DegenerateFace, match="independent rows"):
            solve_rational(rows, (1, 2, 0))


class TestInvariantFactors:
    def test_random_matrices_match_dense_path(self):
        rng = random.Random(1301)
        for _ in range(400):
            rows, cols = rng.randint(0, 7), rng.randint(0, 7)
            m = [[rng.randint(-3, 3) for _ in range(cols)] for _ in range(rows)]
            for i in range(rows):
                if rng.random() < 0.2:
                    m[i] = [0] * cols
            assert_kernel_matches_dense_path(mat(m))

    def test_zero_and_empty_matrices(self):
        for rows, cols in [(0, 0), (0, 3), (3, 0), (1, 1), (3, 4)]:
            m = mat([[0] * cols for _ in range(rows)])
            assert invariant_factors(m) == ()
            assert_kernel_matches_dense_path(m)

    def test_core_without_units(self):
        # no entry is a unit, so everything goes through the core snf
        m = mat([[2, 4], [6, 8]])
        assert invariant_factors(m) == (2, 4)
        assert invariant_factors(mat([[1, 0], [0, 6]])) == (1, 6)
        assert invariant_factors(mat([[2, 3]])) == (1,)
