import functools
import hashlib
import itertools
import random
from collections import Counter
from fractions import Fraction

import pytest

import monoidring.monoid
import monoidring.polyhedral
from monoidring.cohomology import (
    CohomologyProfile,
    cochain_complex,
    interval_profile,
    profile_of_complex,
)
from monoidring.constructions import RP2_SIX_VERTEX, builtin
from monoidring.errors import NotInCone, NotPointed, OutOfRange, TooLarge
from monoidring.exactlin import (
    dot,
    form_kernel,
    identity,
    lattice_from_rows,
    lattice_intersect,
    mat_mul,
    rank,
    saturation,
    vadd,
    vec_mat,
)
from monoidring.polyhedral import (
    _incidence_signs,
    _verify_diamond,
    dual_description,
    face_lattice,
    grading_form,
    is_simple_face,
    minimal_face,
)

from conftest import (
    ORACLE_COMPLEXES,
    corpus,
    even_degree_lattice,
    oracle_construction,
    resigned_epsilon,
)
from oracles import intersect_by_kernel, left_kernel
from test_gap_scan import drawn_monoids, seeded_monoids

PYRAMID = [
    (0, 0, 1, 1),
    (-1, 1, 0, 1),
    (-1, -1, 0, 1),
    (1, -1, 0, 1),
    (1, 1, 0, 1),
]


def pyramid_cone():
    return dual_description(PYRAMID)


def facet_with_rays(fl, ray_vectors):
    """Locate the facet whose extreme rays are exactly the given vectors."""
    want = frozenset(fl.cone.extreme_rays.index(tuple(v)) for v in ray_vectors)
    for f in fl.faces:
        if f.dim == fl.top.dim - 1 and f.ray_set == want:
            return f
    raise AssertionError("facet not found")


class TestDualDescription:
    def test_orthant(self):
        c = dual_description([(1, 0), (0, 1)])
        assert set(c.support_forms) == {(1, 0), (0, 1)}
        assert set(c.extreme_rays) == {(1, 0), (0, 1)}

    def test_pyramid_facets(self):
        c = pyramid_cone()
        assert len(c.support_forms) == 5
        assert set(c.extreme_rays) == set(PYRAMID)
        fl = face_lattice(c)
        # the five facets of the square pyramid, by their vertex labels
        m0, m1, m2, m3, m4 = PYRAMID
        for rays in [
            (m1, m2, m3, m4),
            (m0, m1, m2),
            (m0, m2, m3),
            (m0, m3, m4),
            (m0, m1, m4),
        ]:
            facet_with_rays(fl, rays)

    def test_one_dimensional_cone(self):
        c = dual_description([(2, 3), (4, 6)])
        assert c.dim == 1
        assert c.extreme_rays == ((2, 3),)
        assert len(c.support_forms) == 1
        assert dot(c.support_forms[0], (2, 3)) > 0
        assert c.contains((4, 6))
        assert not c.contains((2, 2))
        assert not c.contains((-2, -3))

    def test_not_pointed(self):
        with pytest.raises(NotPointed):
            dual_description([(1, 0), (-1, 0)])

    def test_generators_satisfy_forms(self):
        rng = random.Random(11)
        for _ in range(25):
            gens = [
                tuple(rng.randint(-2, 2) for _ in range(3)) + (1,)
                for _ in range(rng.randint(1, 5))
            ]
            c = dual_description(gens)
            for _ in range(10):
                x = (0,) * 4
                for g in gens:
                    k = rng.randint(0, 3)
                    x = vadd(x, tuple(k * gi for gi in g))
                assert all(dot(a, x) >= 0 for a in c.support_forms)

    def test_round_trip(self):
        rng = random.Random(12)
        for _ in range(20):
            gens = [
                tuple(rng.randint(-2, 2) for _ in range(2)) + (1,)
                for _ in range(rng.randint(1, 5))
            ]
            c = dual_description(gens)
            c2 = dual_description(c.extreme_rays)
            assert c2.support_forms == c.support_forms
            assert c2.extreme_rays == c.extreme_rays


def seeded_generator_sets(seed, count):
    """Generator sets of rank 3-6 in Z^rank with last coordinate 1, of
    2 to 6 points more than the rank."""
    rng = random.Random(seed)
    sets = []
    while len(sets) < count:
        r = rng.randint(3, 6)
        n = r + rng.randint(2, 6)
        gens = {tuple(rng.randint(-2, 2) for _ in range(r - 1)) + (1,) for _ in range(n)}
        if rank(sorted(gens)) == r:
            sets.append(sorted(gens))
    return sets


def dual_description_digest(generator_sets) -> str:
    """sha256 of the support forms and extreme rays of each cone."""
    cones = (dual_description(gens, len(gens[0])) for gens in generator_sets)
    text = "".join(f"{c.support_forms} {c.extreme_rays}\n" for c in cones)
    return hashlib.sha256(text.encode()).hexdigest()


# recorded before the rank filter was added
DD_DIGESTS = {
    "cones": "e9307aaf2cee49dd24b3c61e4629439bdc7d68ab44c09cb54163518b593baf98",
    "seeded": "fbe742a4c672b0d9ab0f116c0a7ac8c25a8d271d6bfbcd21d7869f7b68bff771",
}


class TestRankFilter:
    """The double description skips the adjacency scan of a pair with fewer
    common forms than the rank condition asks; the forms and rays stay
    those the full scan gave."""

    def test_oracle_cones_and_rp2(self, oracle_lattices, rp2_result):
        cones = [fl.cone for fl in oracle_lattices] + [rp2_result.model.cone]
        assert len(cones) == 78
        assert dual_description_digest([c.generators for c in cones]) == DD_DIGESTS["cones"]

    def test_seeded_generator_sets(self):
        sets = seeded_generator_sets(seed=1996, count=200)
        assert {len(gens[0]) for gens in sets} == {3, 4, 5, 6}
        assert dual_description_digest(sets) == DD_DIGESTS["seeded"]


def interval_is_boolean(fl, f):
    """The definition of a simple face: the interval [f, C] is the face
    lattice of a simplex, 2^codim faces whose zero sets are the distinct
    subsets of the facets through f."""
    codim = fl.top.dim - f.dim
    over = f.zero_set
    if len(over) != codim:
        return False
    interval = fl.faces_above(f)
    if len(interval) != 2**codim:
        return False
    zero_sets = {g.zero_set for g in interval}
    return len(zero_sets) == 2**codim and all(zs <= over for zs in zero_sets)


class TestFaceLattice:
    def test_two_dim_simplicial(self):
        fl = face_lattice(dual_description([(1, 0), (0, 1)]))
        assert len(fl.faces) == 4
        assert [f.dim for f in fl.faces] == [0, 1, 1, 2]

    def test_pyramid_face_count(self):
        fl = face_lattice(pyramid_cone())
        counts = Counter(f.dim for f in fl.faces)
        assert counts == {0: 1, 1: 5, 2: 8, 3: 5, 4: 1}
        assert len(fl.faces) == 20

    def test_half_line(self):
        fl = face_lattice(dual_description([(3,)]))
        assert len(fl.faces) == 2
        assert fl.apex.dim == 0 and fl.top.dim == 1

    def test_closed_under_intersection(self):
        fl = face_lattice(pyramid_cone())
        ray_sets = {f.ray_set for f in fl.faces}
        for a in ray_sets:
            for b in ray_sets:
                assert a & b in ray_sets

    def test_facet_count_vs_codim(self, rp2_result, hexagon_result):
        # is_simple_face counts facets; the interval [f, C] is the oracle
        lattices = [builtin(name).fl for name in ["pyramid-7.1", "pyramid-7.3"]]
        lattices += [*random_lattices(), rp2_result.model.fl, hexagon_result.model.fl]
        simple = 0
        for fl in lattices:
            for f in fl.faces[:-1]:
                assert len(f.zero_set) >= fl.top.dim - f.dim
                assert is_simple_face(fl, f) == interval_is_boolean(fl, f)
                simple += is_simple_face(fl, f)
        assert 0 < simple < sum(len(fl.faces) - 1 for fl in lattices)


class TestFaceCap:
    """face_lattice counts the faces as the closure finds them and refuses
    past FACE_CAP before any span is computed."""

    @staticmethod
    def orthant(m):
        return dual_description([tuple(int(i == j) for j in range(m)) for i in range(m)])

    def test_cap_is_met_exactly(self, monkeypatch):
        monkeypatch.setattr(monoidring.polyhedral, "FACE_CAP", 16)
        assert len(face_lattice(self.orthant(4)).faces) == 16

    def test_nothing_past_the_closure_runs(self, monkeypatch):
        def no_span(*args):
            raise AssertionError("a span was computed")

        monkeypatch.setattr(monoidring.polyhedral, "FACE_CAP", 15)
        monkeypatch.setattr(monoidring.polyhedral, "form_kernel", no_span)
        with pytest.raises(TooLarge, match="more than 15 faces"):
            face_lattice(self.orthant(4))


class TestMinimalFace:
    def test_apex(self):
        fl = face_lattice(pyramid_cone())
        assert minimal_face(fl, (0, 0, 0, 0)) is fl.apex

    def test_ray_point(self):
        fl = face_lattice(pyramid_cone())
        f = minimal_face(fl, (0, 0, 1, 1))
        assert f.dim == 1
        assert f.ray_set == {fl.cone.extreme_rays.index((0, 0, 1, 1))}

    def test_interior_point(self):
        fl = face_lattice(pyramid_cone())
        x = (0,) * 4
        for r in fl.cone.extreme_rays:
            x = vadd(x, r)
        assert minimal_face(fl, x) is fl.top

    def test_not_in_cone(self):
        fl = face_lattice(pyramid_cone())
        with pytest.raises(NotInCone):
            minimal_face(fl, (0, 0, -1, 0))


class TestSimpleFaces:
    def test_facets_are_simple(self):
        fl = face_lattice(pyramid_cone())
        for f in fl.faces_of_dim(3):
            assert is_simple_face(fl, f)

    def test_apex_ray_not_simple(self):
        fl = face_lattice(pyramid_cone())
        apex_ray = minimal_face(fl, (0, 0, 1, 1))
        assert not is_simple_face(fl, apex_ray)
        for f in fl.faces_of_dim(1):
            if f is not apex_ray:
                assert is_simple_face(fl, f)

    def test_simplicial_cone_all_simple(self):
        fl = face_lattice(dual_description([(1, 0, 0), (0, 1, 0), (0, 0, 1)]))
        for f in fl.faces[:-1]:
            assert is_simple_face(fl, f)

    def test_top_face_is_refused(self):
        # a typed error, so the check also runs under python -O
        fl = face_lattice(pyramid_cone())
        with pytest.raises(OutOfRange, match="proper faces"):
            is_simple_face(fl, fl.top)


class TestIncidence:
    def test_one_dim_convention(self):
        fl = face_lattice(dual_description([(5,)]))
        assert fl.epsilon[(fl.apex.index, fl.top.index)] == 1

    def test_two_dim_diamond(self):
        fl = face_lattice(dual_description([(1, 0), (1, 2)]))
        eps = fl.epsilon
        r1, r2 = fl.faces_of_dim(1)
        a, t = fl.apex.index, fl.top.index
        assert (
            eps[(a, r1.index)] * eps[(r1.index, t)]
            + eps[(a, r2.index)] * eps[(r2.index, t)]
            == 0
        )

    def test_pyramid_verified_at_construction(self):
        # _incidence_signs checks every diamond as it propagates the signs
        # inside face_lattice; reaching here means they held, and the
        # independent verifier agrees
        fl = face_lattice(pyramid_cone())
        assert len(fl.epsilon) > 0
        _verify_diamond(fl, fl.epsilon)

    def test_boundary_matrix_squares_to_zero(self):
        fl = face_lattice(pyramid_cone())
        d = fl.top.dim
        for t in range(d):
            lower = fl.faces_of_dim(t)
            mid = fl.faces_of_dim(t + 1)
            upper = fl.faces_of_dim(t + 2) if t + 2 <= d else []
            if not upper:
                continue
            d1 = [
                [fl.epsilon.get((g.index, f.index), 0) for f in mid] for g in lower
            ]
            d2 = [
                [fl.epsilon.get((f.index, h.index), 0) for h in upper] for f in mid
            ]
            prod = mat_mul(tuple(map(tuple, d1)), tuple(map(tuple, d2)))
            assert all(all(x == 0 for x in row) for row in prod)

    def test_alternative_epsilon_valid(self):
        # one sign per face changes the signs but keeps every diamond
        fl = face_lattice(pyramid_cone())
        eps2 = resigned_epsilon(fl, seed=20)
        assert set(eps2) == set(fl.epsilon)
        assert eps2 != fl.epsilon
        _verify_diamond(fl, eps2)


def cone_over_complex(facets):
    """The down-cover lists of the face poset of the cone over a simplicial
    complex: the apex, then the cones over its faces by increasing size,
    each covering the faces one vertex smaller, then the top above the
    facets."""
    faces = sorted(
        {frozenset(s) for f in facets for k in range(1, len(f) + 1) for s in itertools.combinations(f, k)},
        key=lambda s: (len(s), sorted(s)),
    )
    index = {s: i + 1 for i, s in enumerate(faces)}
    index[frozenset()] = 0
    down = [[]] + [[index[s - {v}] for v in sorted(s)] for s in faces]
    down.append([index[frozenset(f)] for f in facets])
    return down


class TestIncidenceSigns:
    """_incidence_signs checks the diamonds as it propagates, on hand-made
    down-cover lists: each of its three refusals, and none on a sphere."""

    def test_orientable_surface_passes(self):
        # the boundary of the tetrahedron, a 2-sphere
        down = cone_over_complex([(1, 2, 3), (1, 2, 4), (1, 3, 4), (2, 3, 4)])
        eps = _incidence_signs(down)
        assert len(eps) == sum(map(len, down))

    def test_three_middle_faces(self):
        # three rays under one 2-dimensional top share the apex
        down = [[], [0], [0], [0], [1, 2, 3]]
        with pytest.raises(AssertionError, match="diamond property violated"):
            _incidence_signs(down)

    def test_unreached_down_cover(self):
        # two diamonds under the top that share no face below it
        down = [[], [], [0], [0], [1], [1], [2, 3, 4, 5]]
        with pytest.raises(AssertionError, match="misses a cover pair"):
            _incidence_signs(down)

    def test_non_orientable_surface(self):
        # every edge of the six-vertex RP² lies on two triangles, so every
        # diamond of the top has two middle faces, but no sign solves them
        down = cone_over_complex(sorted(tuple(sorted(f)) for f in RP2_SIX_VERTEX.facets))
        with pytest.raises(AssertionError, match="fails the diamond condition"):
            _incidence_signs(down)


def _fraction_coords(basis, targets):
    """Coordinates over Q of each target in the independent rows of basis,
    or None for a target outside their span: one Gauss-Jordan elimination
    of the transposed system with every target as a right-hand side."""
    k, m = len(basis), len(targets[0])
    aug = [[Fraction(b[j]) for b in basis] + [Fraction(t[j]) for t in targets] for j in range(m)]
    for c in range(k):
        piv = next(i for i in range(c, m) if aug[i][c])
        aug[c], aug[piv] = aug[piv], aug[c]
        aug[c] = [x / aug[c][c] for x in aug[c]]
        for i in range(m):
            if i != c and aug[i][c]:
                e = aug[i][c]
                aug[i] = [x - e * y for x, y in zip(aug[i], aug[c])]
    out = []
    for t in range(k, k + len(targets)):
        if any(aug[i][t] for i in range(k, m)):
            out.append(None)
        else:
            out.append([aug[i][t] for i in range(k)])
    return out


def _fraction_sign_det(rows):
    """Sign of a determinant by Gaussian elimination over Q."""
    a = [list(r) for r in rows]
    sign = 1
    for c in range(len(a)):
        piv = next((i for i in range(c, len(a)) if a[i][c]), None)
        if piv is None:
            return 0
        if piv != c:
            a[c], a[piv] = a[piv], a[c]
            sign = -sign
        if a[c][c] < 0:
            sign = -sign
        for i in range(c + 1, len(a)):
            e = a[i][c] / a[c][c]
            a[i] = [x - e * y for x, y in zip(a[i], a[c])]
    return sign


def fraction_epsilon(fl, reverse_rays):
    """The incidence function by definition, over Q: the orientation of
    (basis of G, u) in the basis of F, with each face's basis the first
    independent rays in index order (or reversed) and u the difference of
    the ray sums.  Shares no elimination or determinant with the library."""
    rays = fl.cone.extreme_rays
    basis_of, ray_sum = {}, {}
    for f in fl.faces:
        chosen = []
        for i in sorted(f.ray_set, reverse=reverse_rays):
            if _fraction_coords(chosen, [rays[i]])[0] is None:
                chosen.append(rays[i])
        basis_of[f.index] = chosen
        ray_sum[f.index] = [sum(rays[i][j] for i in f.ray_set) for j in range(len(rays[0]))]
    eps = {}
    for f in fl.faces:
        covers = fl.down_covers[f.index]
        targets = []
        for g in covers:
            u = [a - b for a, b in zip(ray_sum[f.index], ray_sum[g])]
            targets += basis_of[g] + [u]
        coords = iter(_fraction_coords(basis_of[f.index], targets) if covers else [])
        for g in covers:
            rows = [next(coords) for _ in range(len(basis_of[g]) + 1)]
            eps[(g, f.index)] = _fraction_sign_det(rows)
    return eps


def random_full_cones(seed, count):
    rng = random.Random(seed)
    cones = []
    while len(cones) < count:
        r = rng.randint(3, 5)
        gens = sorted(
            {tuple(rng.randint(-2, 2) for _ in range(r - 1)) + (1,) for _ in range(r + 3)}
        )
        cone = dual_description(gens, r)
        if cone.dim == r:
            cones.append(cone)
    return cones


def constructed_lattice(name):
    return oracle_construction(name).model.fl


@functools.cache
def random_lattices():
    return tuple(face_lattice(cone) for cone in random_full_cones(seed=31, count=60))


def lower_dimensional_cones(seed, count, ambient_dim=5):
    """Pointed cones of dimension 2-4 in Z^5 spanned by a random basis: every
    generator has last coordinate 1 in that basis."""
    rng = random.Random(seed)
    cones = []
    while len(cones) < count:
        d = rng.randint(2, 4)
        basis = [tuple(rng.randint(-2, 2) for _ in range(ambient_dim)) for _ in range(d)]
        gens = set()
        for _ in range(d + 2):
            coeffs = [rng.randint(-2, 2) for _ in range(d - 1)] + [1]
            gens.add(tuple(sum(c * b[j] for c, b in zip(coeffs, basis)) for j in range(ambient_dim)))
        gens.discard((0,) * ambient_dim)
        if gens and rank(sorted(gens)) == d:
            cones.append(dual_description(sorted(gens), ambient_dim))
    return cones


@functools.cache
def lower_dimensional_lattices():
    return tuple(face_lattice(cone) for cone in lower_dimensional_cones(seed=5, count=10))


@pytest.fixture(scope="module")
def oracle_lattices():
    """The 67 face lattices of TestIncidenceOracle and 10 lower-dimensional
    ones."""
    return (
        [builtin(name).fl for name in ["pyramid-7.1", "pyramid-7.3"]]
        + [constructed_lattice(name) for name in sorted(ORACLE_COMPLEXES)]
        + list(random_lattices())
        + list(lower_dimensional_lattices())
    )


class TestIncidenceOracle:
    """The library signs, propagated across diamonds, equal the orientation
    computed by definition over Q up to one sign delta per face, for both
    ray orders: eps(G, F) eps_geo(G, F) = delta(G) delta(F) on every cover
    pair.  So the filter complexes of the two are isomorphic through the
    diagonal basis change F -> delta(F) F."""

    @staticmethod
    def assert_matches_oracle(fl):
        for reverse_rays in (False, True):
            geo = fraction_epsilon(fl, reverse_rays)
            assert set(geo) == set(fl.epsilon)
            # delta(apex) = 1; delta(F) is read off F's first down-cover
            delta = {fl.apex.index: 1}
            for f in fl.faces[1:]:
                first = fl.down_covers[f.index][0]
                delta[f.index] = fl.epsilon[(first, f.index)] * geo[(first, f.index)] * delta[first]
                for g in fl.down_covers[f.index]:
                    assert fl.epsilon[(g, f.index)] * geo[(g, f.index)] == delta[g] * delta[f.index]

    @pytest.mark.parametrize("name", ["pyramid-7.1", "pyramid-7.3"])
    def test_pyramids(self, name):
        self.assert_matches_oracle(builtin(name).fl)

    @pytest.mark.parametrize("name", sorted(ORACLE_COMPLEXES))
    def test_constructed_models(self, name):
        self.assert_matches_oracle(constructed_lattice(name))

    def test_random_cones(self):
        lattices = random_lattices()
        assert {fl.cone.dim for fl in lattices} == {3, 4, 5}
        for fl in lattices:
            self.assert_matches_oracle(fl)

    def test_lower_dimensional_cones(self):
        lattices = lower_dimensional_lattices()
        assert {fl.cone.dim for fl in lattices} == {2, 3, 4}
        for fl in lattices:
            self.assert_matches_oracle(fl)


class TestGrading:
    def test_orthant(self):
        c = dual_description([(1, 0), (0, 1)])
        assert grading_form(c) == (1, 1)

    def test_pyramid_positive_on_generators(self):
        c = pyramid_cone()
        deg = grading_form(c)
        for g in PYRAMID:
            assert dot(deg, g) > 0
        assert dot(deg, (0, 0, 0, 0)) == 0

    def test_strictly_positive_on_random_cone_points(self):
        rng = random.Random(13)
        c = pyramid_cone()
        deg = grading_form(c)
        for _ in range(50):
            x = (0,) * 4
            for g in PYRAMID:
                k = rng.randint(0, 2)
                x = vadd(x, tuple(k * gi for gi in g))
            if any(x):
                assert dot(deg, x) > 0


class TestSpanLattices:
    def test_face_span_is_saturated(self, oracle_lattices, rp2_result):
        # the kernel spans against the saturated ray spans, and the zero sets
        # against a scan of the forms
        for fl in [face_lattice(pyramid_cone()), rp2_result.model.fl] + oracle_lattices:
            cone = fl.cone
            for f in fl.faces:
                rays = [cone.extreme_rays[i] for i in f.ray_set]
                assert f.span_lattice == saturation(lattice_from_rows(cone.ambient_dim, rays))
                assert f.span_lattice.rank == f.dim
                assert f.zero_set == {
                    i for i, a in enumerate(cone.support_forms) if all(dot(a, r) == 0 for r in rays)
                }
            keys = [(f.dim, sorted(f.ray_set)) for f in fl.faces]
            assert keys == sorted(keys)
            assert [f.index for f in fl.faces] == list(range(len(fl.faces)))


class TestTopDownSpans:
    """face_lattice takes each span below the top as the kernel of one form
    on the span of a cover: one form_kernel per face, on a basis of rank
    one more than the face's."""

    @staticmethod
    def kernel_ranks(cone, monkeypatch):
        ranks = []

        def counted(lat, phi):
            ranks.append(lat.rank)
            return form_kernel(lat, phi)

        monkeypatch.setattr(monoidring.polyhedral, "form_kernel", counted)
        fl = face_lattice(cone)
        monkeypatch.undo()
        return fl, ranks

    def test_oracle_cones(self, oracle_lattices, monkeypatch):
        for known in oracle_lattices:
            fl, ranks = self.kernel_ranks(known.cone, monkeypatch)
            assert sorted(ranks) == sorted(f.dim + 1 for f in fl.faces[:-1])

    def test_rp2(self, rp2_result, monkeypatch):
        fl, ranks = self.kernel_ranks(rp2_result.model.fl.cone, monkeypatch)
        assert len(ranks) == len(fl.faces) - 1 == 2919
        assert sorted(ranks) == sorted(f.dim + 1 for f in fl.faces[:-1])


def hnf_zero_set_kernel(forms, zero_set, lat):
    """The kernel of the zero-set forms on lat by one HNF transform of their
    values on the basis of lat, then a second HNF for the canonical basis.

    For a face F, its zero set and a lattice lat inside span C, this is
    lat ∩ span F, as span F = span C ∩ {phi_i = 0 : i in zero_set(F)}: the
    forms vanish on F; conversely, for x on the right and p in relint F,
    where every other form is positive, p + t x lies in C and on every
    phi_i = 0 for small t > 0, hence in F, and x = ((p + t x) - p) / t."""
    values = [tuple(dot(forms[i], b) for i in sorted(zero_set)) for b in lat.basis]
    kernel = left_kernel(values, lat.rank)
    return lattice_from_rows(lat.ambient_dim, [vec_mat(k, lat.basis) for k in kernel])


def even_decoration(fl, modulus=2):
    """An even reference in span C, and the facet lattices of the first two
    facets cut to a last coordinate divisible by modulus, an even number."""
    m = fl.cone.ambient_dim
    cut = lattice_from_rows(m, [(0,) * (m - 1) + (modulus,)] + list(identity(m)[:-1]))
    given = {i: lattice_intersect(fl.faces[i].span_lattice, cut) for i in fl.facet_indices()[:2]}
    return lattice_intersect(fl.cone.span_lattice, even_degree_lattice(m)), given


class TestKernelsAgainstHnf:
    """The face spans, the groups A_F and the facet cuts, which take their
    kernels by xgcd steps down the covers, equal the ones an HNF kernel of
    the zero-set forms and intersections by left kernels give."""

    @pytest.fixture(scope="class")
    def corpus_models(self):
        return corpus(seed=501, count=30)

    def test_spans(self, oracle_lattices, corpus_models, rp2_result):
        rp2 = rp2_result.model.fl
        slices = [(fl, fl.faces) for fl in oracle_lattices + [m.fl for m in corpus_models]]
        for fl, faces in slices + [(rp2, rp2.faces[::7])]:
            for f in faces:
                want = hnf_zero_set_kernel(fl.cone.support_forms, f.zero_set, fl.cone.span_lattice)
                assert f.span_lattice == want

    def test_cuts(self, oracle_lattices, corpus_models, rp2_result):
        # the oracle lattices on an even reference, with two facets cut to
        # it and to a last coordinate divisible by 4, and the groups gp(M)
        # that are not saturated, where A_F is not the span of F; then the
        # corpus and RP² on span C ∩ Z^m
        monoids = [m.model for m in seeded_monoids() + drawn_monoids()]
        gp_models = [m for m in monoids if m.reference != m.cone.span_lattice]
        assert len(gp_models) == 104
        decorations = [(fl, *even_decoration(fl, k)) for fl in oracle_lattices for k in (2, 4)]
        assert sum(ref != fl.cone.span_lattice for fl, ref, _ in decorations) >= 120
        decorations += [
            (m.fl, m.reference, dict(enumerate(m.lambdas)))
            for m in gp_models + corpus_models + [rp2_result.model]
        ]
        cut_faces = 0
        for fl, reference, given in decorations:
            table = monoidring.monoid.face_group_cuts(fl, reference, given)
            facets = [fl.faces[i] for i in fl.facet_indices() if i in given]
            faces = fl.faces[::7] if fl is rp2_result.model.fl else fl.faces
            for f in faces:
                group, cut = table[f.index]
                assert group == hnf_zero_set_kernel(fl.cone.support_forms, f.zero_set, reference)
                want = group
                for g in facets:
                    if f.ray_set <= g.ray_set:
                        want = intersect_by_kernel(want, given[g.index])
                assert cut == want
                cut_faces += cut != group
        assert cut_faces > 0


def pairwise_covers(fl):
    """Up-covers by definition: every face of one dimension more that
    contains the face."""
    up = [[] for _ in fl.faces]
    for g in fl.faces:
        for f in fl.faces:
            if f.dim == g.dim + 1 and g.ray_set <= f.ray_set:
                up[g.index].append(f.index)
    return tuple(map(tuple, up))


class TestCovers:
    """The covers from joins equal the pairwise definition."""

    @staticmethod
    def assert_matches_pairwise(fl):
        up = pairwise_covers(fl)
        assert fl.up_covers == up
        down = [[] for _ in fl.faces]
        for g, covers in enumerate(up):
            for f in covers:
                down[f].append(g)
        assert fl.down_covers == tuple(map(tuple, down))

    def test_oracle_cones(self, oracle_lattices):
        for fl in oracle_lattices:
            self.assert_matches_pairwise(fl)

    def test_rp2(self, rp2_result):
        fl = rp2_result.model.fl
        assert len(fl.faces) == 2920
        self.assert_matches_pairwise(fl)


class TestFacesAbove:
    """The up-sets stored from the covers equal a scan of all faces by ray
    sets, in index order."""

    @staticmethod
    def assert_matches_scan(fl):
        for g in fl.faces:
            assert fl.faces_above(g) == [f for f in fl.faces if g.ray_set <= f.ray_set]

    def test_oracle_cones(self, oracle_lattices):
        for fl in oracle_lattices:
            self.assert_matches_scan(fl)

    def test_rp2(self, rp2_result):
        self.assert_matches_scan(rp2_result.model.fl)


class TestIntervalsAreAcyclic:
    """The argument behind cohomology.interval_profile, checked through the
    complexes it skips: the interval [G, F], taken by ray sets, has no
    cohomology for G < F, and {F} has Z in degree dim F alone."""

    @staticmethod
    def assert_intervals(fl, max_dim=None):
        checked = 0
        for f in fl.faces:
            if max_dim is not None and f.dim > max_dim:
                continue
            below = [g for g in fl.faces if g.ray_set <= f.ray_set]
            for g in below:
                ids = frozenset(h.index for h in below if g.ray_set <= h.ray_set)
                profile = profile_of_complex(cochain_complex(fl, ids, f))
                want = tuple(int(g is f and t == f.dim) for t in range(f.dim + 1))
                assert profile == CohomologyProfile(want, {}, frozenset())
                assert interval_profile(f, g.index) == profile
                checked += 1
        return checked

    def test_oracle_cones(self, oracle_lattices):
        assert sum(self.assert_intervals(fl) for fl in oracle_lattices) > 10000

    def test_rp2_faces_up_to_dimension_three(self, rp2_result):
        assert self.assert_intervals(rp2_result.model.fl, max_dim=3) > 1000
