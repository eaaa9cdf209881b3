"""The shared scan of the generator side against an oracle of three separate
scans, and the counts and caps of the slice walk.

The oracle walks the degree box once each for seminormality, the interior
hypothesis and (S2), and recomputes the group of the face submonoid with
face_group for every point; it shares no scan code with the library."""

import itertools
import json
import math
import random
from fractions import Fraction
from pathlib import Path

import pytest

import monoidring.monoid
from monoidring.cli import parse_input
from monoidring.criteria import m_prime_member, s2_up_to
from monoidring.errors import HypothesisUnverified, TooLarge
from monoidring.exactlin import (
    dot,
    identity,
    lattice_from_rows,
    rank,
    saturation,
    solve_rational,
    vadd,
    vsub,
)
from monoidring.monoid import (
    GapScan,
    default_seminormality_bound,
    face_group,
    gap_scan,
    hilbert_basis,
    is_normal,
    is_seminormal_up_to,
    member,
    monoid_new,
)
from monoidring.polyhedral import dual_description, minimal_face

from conftest import pyramid_monoid, run_python
from oracles import hilbert_basis_by_box, member_by_sums
from test_cli import run_cli


# --- the oracle: separate scans, face_group per point ----------------------


def oracle_box(m, bound, group=None):
    """cn(M) ∩ group up to degree bound, as sorted (deg, x), by a recursive
    walk of the box spanned by the vertices of the degree slice; the group
    is gp(M) unless one of the same rank is given."""
    group = m.group if group is None else group
    vertices = []
    for r in m.cone.extreme_rays:
        scale = Fraction(bound, m.deg(r))
        vertices.append([scale * c for c in solve_rational(group.basis, r)])
    k = group.rank
    lo = [min(0, math.floor(min(v[i] for v in vertices))) for i in range(k)]
    hi = [max(0, math.ceil(max(v[i] for v in vertices))) for i in range(k)]
    out = []

    def walk(i, coords):
        if i == k:
            x = group.from_coords(coords)
            if all(dot(a, x) >= 0 for a in m.cone.support_forms) and m.deg(x) <= bound:
                out.append((m.deg(x), x))
            return
        for c in range(lo[i], hi[i] + 1):
            walk(i + 1, coords + [c])

    walk(0, [])
    return sorted(out)


def oracle_seminormal(m, bound):
    for d, x in oracle_box(m, bound):
        if d and face_group(m, minimal_face(m.face_lattice, x)).member(x) and not member(m, x):
            return x
    return None


def oracle_interior_gap(m, bound):
    forms = m.cone.support_forms
    for d, x in oracle_box(m, bound):
        if d and all(dot(a, x) > 0 for a in forms) and not member(m, x):
            return x
    return None


def oracle_hypothesis(m, bound):
    x = oracle_interior_gap(m, bound)
    if x is not None:
        raise HypothesisUnverified(f"interior point {x} of degree {m.deg(x)} is outside the monoid")


def oracle_m_prime(m, x, hypothesis_bound, verified):
    """M' membership; the hypothesis is checked on the first call only, as
    the verified set records."""
    if hypothesis_bound not in verified:
        oracle_hypothesis(m, hypothesis_bound)
        verified.add(hypothesis_bound)
    if not m.group.member(x) or not m.cone.contains(x):
        return False
    fl = m.face_lattice
    f = minimal_face(fl, x)
    return all(face_group(m, fl.by_zero_set(frozenset({i}))).member(x) for i in f.zero_set)


def oracle_s2(m, bound, hypothesis_bound):
    hb = bound if hypothesis_bound is None else hypothesis_bound
    verified = set()
    for d, x in oracle_box(m, bound):
        if d == 0:
            continue
        in_m = member(m, x)
        in_mp = oracle_m_prime(m, x, hb, verified)
        assert in_mp or not in_m
        if in_mp and not in_m:
            return x
    return None


def outcome(fn, *args):
    """The value, or the text of the HypothesisUnverified raised."""
    try:
        return fn(*args)
    except HypothesisUnverified as exc:
        return f"raised: {exc}"


# --- seeded inputs -----------------------------------------------------------


def seeded_monoids():
    rng = random.Random(81)
    out = []
    while len(out) < 6:
        gens = sorted(rng.sample(range(2, 10), rng.randint(2, 4)))
        if math.gcd(*gens) == 1:
            out.append(monoid_new([(g,) for g in gens]))
    for dim, count, height, max_bound in ((2, 4, 3, 9), (3, 5, 2, 8)):
        k = 0
        while k < 6:
            gens = set()
            while len(gens) < count:
                d = rng.randint(1, height)
                gens.add(tuple(rng.randint(0, d) for _ in range(dim - 1)) + (d,))
            gens = sorted(gens)
            if rank(gens) == dim:
                m = monoid_new(gens)
                if default_seminormality_bound(m) <= max_bound:
                    out.append(m)
                    k += 1
    # the draw above rarely gives a rank-3 set that is not seminormal; this
    # one misses the interior group point (2, 2, 3)
    out.append(monoid_new([(0, 2, 2), (1, 0, 1), (1, 1, 2), (2, 0, 2), (2, 1, 2), (2, 2, 2)]))
    # sets of rank below the ambient dimension and sets whose group is not
    # saturated, where the face table takes A_F by zero_set_kernel on the
    # reference gp(M): four by hand, two of them not seminormal (gaps
    # (0, 1, 0) and (2, 0)), and rank-2 sets mapped into Z^3
    out.append(monoid_new([(2, 0), (0, 2), (1, 1)]))
    out.append(monoid_new([(1, 2, 3), (2, 4, 7), (3, 6, 9), (0, 0, 1)]))
    out.append(monoid_new([(0, 2, 0), (0, 3, 0), (1, 0, 1), (1, 1, 1)]))
    out.append(monoid_new([(4, 0), (6, 0), (0, 2), (2, 2)]))
    k = 0
    while k < 5:
        gens = sorted({(rng.randint(0, 3), rng.randint(1, 3)) for _ in range(rng.randint(2, 4))})
        t = [[rng.randint(-2, 2) for _ in range(3)] for _ in range(2)]
        if rank(gens) == 2 and rank(t) == 2:
            m = monoid_new(sorted({tuple(dot(g, col) for col in zip(*t)) for g in gens}))
            if default_seminormality_bound(m) <= 9:
                out.append(m)
                k += 1
    return out


def drawn_monoids(count=200):
    """count seeded sets of rank 1 to 3, by turns: numerical semigroups, whose
    group is not saturated when their gcd is not 1; sets of rank 2 and 3
    over a dilated simplex; and sets of rank 1 and 2 mapped into one more
    dimension by a random integer matrix, whose group is often not
    saturated.  Sets whose default bound passes 9 are drawn again."""
    rng = random.Random(22)
    out = []
    while len(out) < count:
        kind = len(out) % 4
        k = rng.randint(1, 2) if kind == 3 else kind + 1
        if k == 1:
            gens = {(g,) for g in rng.sample(range(1, 10), rng.randint(1, 3))}
        else:
            gens = set()
            for _ in range(rng.randint(k + 1, k + 2)):
                d = rng.randint(1, 3 if k == 2 else 2)
                gens.add(tuple(rng.randint(0, d) for _ in range(k - 1)) + (d,))
        if kind == 3:
            t = [[rng.randint(-2, 2) for _ in range(k + 1)] for _ in range(k)]
            gens = {tuple(dot(g, col) for col in zip(*t)) for g in gens}
        gens = sorted(gens)
        if rank(gens) == k:
            m = monoid_new(gens)
            if default_seminormality_bound(m) <= 9:
                out.append(m)
    return out


# numerical semigroups: two normal ones, one of them with the group 2Z, and
# two that are not normal
SEMIGROUPS = ([1], [2, 4], [2, 3], [3, 5, 7])


@pytest.fixture(scope="module")
def monoids():
    return seeded_monoids()


@pytest.fixture(scope="module")
def drawn():
    return drawn_monoids()


class TestAgainstSeparateScans:
    def test_verdicts_witnesses_and_hypothesis_text(self, monoids):
        interior = witnesses = 0
        for m in monoids:
            big = default_seminormality_bound(m)
            for bound in range(big + 1):
                assert is_seminormal_up_to(m, bound).witness == oracle_seminormal(m, bound)
                for hb in (None, 0, big - 1, big + 2):
                    got = outcome(lambda: s2_up_to(m, bound, hb).witness)
                    assert got == outcome(oracle_s2, m, bound, hb), (m.generators, bound, hb)
                    interior += isinstance(got, str)
                    witnesses += got is not None and not isinstance(got, str)
        assert interior and witnesses

    def test_m_prime_member(self, monoids):
        # the points of the saturated group, so points off gp(M) are queried
        for m in monoids:
            big = default_seminormality_bound(m)
            for hb in (None, 0, big - 1, big + 2):
                verified = set()
                for _, x in oracle_box(m, big, saturation(m.group)):
                    want = outcome(oracle_m_prime, m, x, big if hb is None else hb, verified)
                    assert outcome(m_prime_member, m, x, hb) == want

    def test_degree_slice_against_the_oracle_box(self, monoids, drawn):
        # the walk gives coordinates in gp(M), in the order of the points
        for m in monoids + drawn:
            for bound in range(default_seminormality_bound(m) + 1):
                got = monoidring.monoid._box_points_of_degree_slice(m, bound)
                assert [(d, m.group.from_coords(c)) for d, c in got] == [
                    t for t in oracle_box(m, bound) if t[0] > 0
                ]

    def test_gap_scan_against_the_three_scans(self, drawn):
        # on sets of rank below 3, M' = sn(M); this one has (0, 0, 1) in M'
        # but not in sn(M): the generators on the ray (0, 0, 1) span 2Z, and
        # those on either facet through it the whole plane
        apart = monoid_new([(0, 0, 2), (1, 0, 1), (1, 0, 2), (0, 1, 1), (0, 1, 2)])
        gaps = [0, 0, 0]
        for m in drawn + [apart]:
            big = default_seminormality_bound(m)
            for bound in (big // 2, big):
                degrees = [d for d, _ in oracle_box(m, bound) if d > 0]
                want = GapScan(
                    degrees[0] if degrees else None,
                    oracle_seminormal(m, bound),
                    oracle_interior_gap(m, bound),
                    oracle_s2(m, bound, 0),
                )
                assert gap_scan(m, bound) == want, (m.generators, bound)
                found = (want.sn_gap, want.interior_gap, want.m_prime_gap)
                gaps = [n + (x is not None) for n, x in zip(gaps, found)]
        assert min(gaps) >= 10
        assert gap_scan(apart, 1).m_prime_gap == (0, 0, 1) and gap_scan(apart, 1).sn_gap is None

    def test_drawn_sets_cover_every_rank_and_group(self, drawn):
        assert {m.rank for m in drawn} == {1, 2, 3}
        lower = [m for m in drawn if m.rank < m.ambient_dim]
        unsaturated = [m for m in drawn if m.group != m.cone.span_lattice]
        assert len(lower) >= 40 and len(unsaturated) >= 40
        assert any(m.group != m.cone.span_lattice for m in lower)

    def test_inputs_cover_lower_rank_and_unsaturated_groups(self, monoids):
        lower = [m for m in monoids if m.rank < m.ambient_dim]
        unsaturated = [m for m in monoids if m.group != m.cone.span_lattice]
        assert len(lower) >= 4 and len(unsaturated) >= 3
        assert any(m.group != m.cone.span_lattice for m in lower)
        assert any(oracle_seminormal(m, default_seminormality_bound(m)) for m in lower + unsaturated)

    def test_inputs_cover_every_outcome(self, monoids):
        big = [default_seminormality_bound(m) for m in monoids]
        assert sum(oracle_seminormal(m, b) is not None for m, b in zip(monoids, big)) >= 6
        assert sum(isinstance(outcome(oracle_hypothesis, m, b), str) for m, b in zip(monoids, big)) >= 6
        assert any(m.rank == 3 and oracle_seminormal(m, b) for m, b in zip(monoids, big))


class TestAgainstSums:
    """member and is_normal against oracles.member_by_sums, which lists the
    sums of generators and shares no search or cone code with either."""

    def test_member_on_the_box_and_next_to_it(self, monoids):
        # each box point and its neighbours x ± e_i, among them points off
        # the cone and points of the cone off gp(M)
        off_cone = off_group = 0
        for m in monoids:
            units = identity(m.ambient_dim)
            for _, x in oracle_box(m, default_seminormality_bound(m)):
                for y in [x] + [f(x, u) for u in units for f in (vadd, vsub)]:
                    assert member(m, y) == member_by_sums(m, y), (m.generators, y)
                    off_cone += not m.cone.contains(y)
                    off_group += m.cone.contains(y) and not m.group.member(y)
        assert off_cone and off_group

    def test_is_normal_is_the_first_hilbert_basis_element_outside(self, monoids):
        semigroups = [monoid_new([(g,) for g in gens]) for gens in SEMIGROUPS]
        verdicts = []
        for m in monoids + semigroups:
            hb = hilbert_basis(m.cone, m.group)
            gap = next((h for h in hb if not member_by_sums(m, h)), None)
            assert is_normal(m) == (gap is None, gap), m.generators
            verdicts.append(gap is None)
        assert True in verdicts and False in verdicts


class TestHilbertBasisByBox:
    """hilbert_basis against oracles.hilbert_basis_by_box, which enumerates
    the zonotope box on its own, in Z^m, with Fraction ray coordinates."""

    def test_seeded_sets_semigroups_and_the_pyramid_monoid(self, monoids, drawn):
        semigroups = [monoid_new([(g,) for g in gens]) for gens in SEMIGROUPS]
        for m in monoids + drawn + semigroups + [pyramid_monoid()]:
            assert hilbert_basis(m.cone, m.group) == hilbert_basis_by_box(m.cone, m.group), m.generators


# the generator files of the one-walk tests; (1, 1) is an interior gap of "gaps"
WALK_TEXTS = {
    "rank3": "monoid 3\n1 0 1\n0 1 1\n0 0 1\n1 1 2\n",
    "gaps": "monoid 2\n1 0\n1 2\n1 3\n",
    "semigroup": "monoid 1\n3\n5\n",
}

# Prints, per file, how many Lattice.member calls gap_scan makes at the
# default bound on points in M and on points outside M.  The model and its
# face table are built first, so the calls counted are the sweep's tests of
# the face-table cut and of lambda_F.
CUT_TESTS = """
import json, sys
from monoidring.cli import parse_input
from monoidring.exactlin import Lattice
from monoidring.monoid import default_seminormality_bound, gap_scan, member

plain, tested, counts = Lattice.member, [], {}

def counted(lat, x):
    tested.append(x)
    return plain(lat, x)

for path in sys.argv[1:]:
    m = parse_input(path)[1]
    m.model.face_table
    tested.clear()
    Lattice.member = counted
    gap_scan(m, default_seminormality_bound(m))
    Lattice.member = plain
    in_m = [member(m, m.group.from_coords(c)) for c in tested]
    counts[path] = [in_m.count(True), in_m.count(False)]
print(json.dumps(counts))
"""


class TestOneWalk:
    def test_members_get_no_cut_test_without_asserts(self, tmp_path):
        paths = []
        for name, text in WALK_TEXTS.items():
            paths.append(str(tmp_path / f"{name}.txt"))
            Path(paths[-1]).write_text(text)

        def counts(*flags):
            run = run_python(*flags, "-c", CUT_TESTS, *paths, check=True)
            return list(json.loads(run.stdout).values())

        optimized, plain = counts("-O"), counts()
        assert [members for members, _ in optimized] == [0, 0, 0]
        # with asserts, the check that M lies in M' tests the cut on members
        assert any(members for members, _ in plain)
        assert [others for _, others in optimized] == [others for _, others in plain]
        assert any(others for _, others in optimized)

    def test_analyze_walks_the_box_once_and_builds_each_face_group_once(
        self, tmp_path, monkeypatch
    ):
        walks, groups = [], []
        box, group = monoidring.monoid._box_points_of_degree_slice, monoidring.monoid.face_group

        def counted_box(*args):
            walks.append(args)
            return box(*args)

        def counted_group(*args):
            groups.append(args)
            return group(*args)

        monkeypatch.setattr(monoidring.monoid, "_box_points_of_degree_slice", counted_box)
        monkeypatch.setattr(monoidring.monoid, "face_group", counted_group)
        for name, text in WALK_TEXTS.items():
            path = tmp_path / f"{name}.txt"
            path.write_text(text)
            n_faces = len(parse_input(str(path))[1].face_lattice.faces)
            walks.clear()
            groups.clear()
            code, _, _ = run_cli(["analyze", str(path)])
            assert code == 0
            assert len(walks) == 1
            assert len(groups) == n_faces


class TestModelByConstruction:
    def test_model_builds_without_the_validation(self, monkeypatch):
        """AffineMonoid.model is valid by construction and does not run
        decorated_cone; test_face_table validates these models in full."""

        def validation(*args):
            raise AssertionError("decorated_cone called")

        monkeypatch.setattr(monoidring.monoid, "decorated_cone", validation)
        for m in seeded_monoids():
            assert len(m.model.lambdas) == len(m.face_lattice.faces)


def no_walk(*args):
    pytest.fail("the box was walked")


class TestBoxCap:
    """The walk enters its box through itertools.product, so patching that to
    fail shows that no point is walked before the refusal.  The first raises
    of each test show that the patch stops a walk under the cap."""

    def test_degree_box_past_the_cap(self, monkeypatch):
        m = monoid_new([(2, 0), (1, 1), (0, 1)])
        monkeypatch.setattr(itertools, "product", no_walk)
        with pytest.raises(pytest.fail.Exception, match="the box was walked"):
            is_seminormal_up_to(m, 10)
        with pytest.raises(TooLarge, match="exceeds the cap"):
            is_seminormal_up_to(m, 100000)

    def test_degree_box_cap_exits_three(self, tmp_path):
        path = tmp_path / "m.txt"
        path.write_text("monoid 2\n2 0\n1 1\n0 1\n")
        code, out, err = run_cli(["analyze", str(path), "--degree-bound", "100000"])
        assert code == 3
        assert out == ""
        assert len(err.splitlines()) == 1 and err.startswith("error: ")

    def test_zonotope_box_past_the_cap(self, monkeypatch):
        cone = dual_description([(1, 0), (1, 10**9)])
        monkeypatch.setattr(itertools, "product", no_walk)
        with pytest.raises(pytest.fail.Exception, match="the box was walked"):
            hilbert_basis(dual_description([(1, 0), (1, 2)]), lattice_from_rows(2, identity(2)))
        with pytest.raises(TooLarge, match="exceeds the cap"):
            hilbert_basis(cone, lattice_from_rows(2, identity(2)))
