import random

import pytest

import monoidring.constructions
import monoidring.monoid
import monoidring.polyhedral
from monoidring.cohomology import local_cohomology_at
from monoidring.constructions import (
    RP2_SIX_VERTEX,
    SimplicialComplex,
    _check_facet_inventory,
    builtin,
    delta_construct,
    simplicial_homology,
    verify_eq_homology,
)
from monoidring.criteria import s2_lattice_test
from monoidring.errors import VerificationFailed
from monoidring.exactlin import dot, lattice_intersect, mat, primitive, vadd, vscale
from monoidring.monoid import model_point_in_relint
from monoidring.polyhedral import RationalCone, dual_description, face_lattice, minimal_face
from monoidring.typology import depth_report

from conftest import (
    HEXAGON,
    ORACLE_COMPLEXES,
    even_degree_lattice,
    facet_by_label,
    oracle_construction,
    pyramid_model,
)
from oracles import quotient_structure


def two_points():
    return SimplicialComplex.from_facets([(1,), (2,)])


def path_on_four():
    return SimplicialComplex.from_facets([(1, 2), (2, 3), (3, 4)])


def hexagon():
    return SimplicialComplex.from_facets(HEXAGON)


class TestSimplicialComplex:
    def test_from_facets_normalizes(self):
        d = SimplicialComplex.from_facets([(1, 2), (2,), (1, 2)])
        assert d.facets == (frozenset({1, 2}),)
        assert d.vertices == (1, 2)

    def test_faces_and_non_faces(self):
        d = two_points()
        assert d.faces() == {frozenset(), frozenset({1}), frozenset({2})}
        assert d.minimal_non_faces() == [frozenset({1, 2})]

    def test_hexagon_non_faces(self):
        nf = hexagon().minimal_non_faces()
        assert len(nf) == 9  # the diagonals of the hexagon
        assert all(len(s) == 2 for s in nf)

    def test_full_simplex_no_non_faces(self):
        d = SimplicialComplex.from_facets([(1, 2)])
        assert d.minimal_non_faces() == []

    def test_rp2_is_a_closed_surface(self):
        d = RP2_SIX_VERTEX
        assert len(d.facets) == 10
        edges = {f for f in d.faces() if len(f) == 2}
        assert len(edges) == 15
        for e in edges:
            assert sum(1 for f in d.facets if e <= f) == 2
        assert len(d.minimal_non_faces()) == 10
        assert all(len(s) == 3 for s in d.minimal_non_faces())


class TestSimplicialHomology:
    def test_two_disjoint_points(self):
        hom = simplicial_homology(two_points())
        assert hom.reduced_rank(0) == 1
        assert hom.reduced_rank(-1) == 0

    def test_tree_acyclic(self):
        hom = simplicial_homology(path_on_four(), primes=(2, 3))
        assert all(d == 0 for d in hom.dims_q)
        for dims in hom.dims_p.values():
            assert all(d == 0 for d in dims)

    def test_hexagon_circle(self):
        hom = simplicial_homology(hexagon(), primes=(2, 3, 5))
        assert hom.reduced_rank(1) == 1
        assert hom.reduced_rank(0) == 0
        assert hom.torsion_primes == frozenset()
        for p in (2, 3, 5):
            assert hom.reduced_rank(1, p) == 1

    def test_rp2(self):
        hom = simplicial_homology(RP2_SIX_VERTEX, primes=(2, 3))
        assert hom.torsion_primes == frozenset({2})
        assert hom.reduced_rank(0) == 0
        assert hom.reduced_rank(1) == 0
        assert hom.reduced_rank(2) == 0
        assert hom.reduced_rank(1, 2) == 1
        assert hom.reduced_rank(2, 2) == 1
        assert hom.reduced_rank(1, 3) == 0

    def test_oracle_keeps_its_own_dense_path(self, monkeypatch):
        # the homology oracle checks the filter-complex kernel, so it must
        # not run on it
        import monoidring.constructions as constructions
        import monoidring.exactlin as exactlin

        def kernel_called(*args):
            raise AssertionError("simplicial_homology called invariant_factors")

        assert not hasattr(constructions, "invariant_factors")
        monkeypatch.setattr(exactlin, "invariant_factors", kernel_called)
        hom = simplicial_homology(RP2_SIX_VERTEX, primes=(2, 3))
        assert hom.torsion_primes == frozenset({2})

    def test_full_triangle_boundary(self):
        circle = SimplicialComplex.from_facets([(1, 2), (2, 3), (1, 3)])
        hom = simplicial_homology(circle)
        assert hom.reduced_rank(1) == 1


class TestBuiltins:
    def test_builtin_71_matches_fixture_decoration(self, model_71):
        model = builtin("pyramid-7.1")
        assert model.fl.cone.extreme_rays == model_71.fl.cone.extreme_rays
        for f, g in zip(model.fl.faces, model_71.fl.faces):
            assert model.lattice_of(f) == model_71.lattice_of(g)

    def test_builtin_73_f3_full(self):
        model = builtin("pyramid-7.3")
        f3 = facet_by_label(model.fl, "F3")
        assert model.lattice_of(f3) == f3.span_lattice

    def test_builtin_71_facet_index_two(self):
        model = builtin("pyramid-7.1")
        f1 = facet_by_label(model.fl, "F1")
        q = quotient_structure(f1.span_lattice, model.lattice_of(f1))
        assert q.invariant_factors == (2,)

    def test_builtin_71_s2(self):
        ok, _ = s2_lattice_test(builtin("pyramid-7.1"))
        assert ok

    def test_unknown_builtin(self):
        with pytest.raises(ValueError):
            builtin("pyramid-0")


def even_span_decoration(fl, parity_forms):
    """The decoration face by face: span F ∩ even on every face that lies on
    a facet of the parity forms, span F on every other face."""
    even = even_degree_lattice(fl.cone.ambient_dim)
    return tuple(
        lattice_intersect(f.span_lattice, even) if f.zero_set & parity_forms else f.span_lattice
        for f in fl.faces
    )


def vertex_forms(n):
    """The side facets of the first pyramid, one per vertex, lifted to the
    cone: x_i - z >= 0 for i < n - 1 and n - sum x - z >= 0."""
    forms = {
        tuple(1 if j == i else -1 if j == n - 1 else 0 for j in range(n)) + (0, 0)
        for i in range(n - 1)
    }
    return forms | {(-1,) * n + (-n, n)}


class TestDecoration:
    """The models are decorated by their facet cut; face by face that is the
    even sublattice of the span below a parity facet and the span elsewhere."""

    @pytest.mark.parametrize("name, labels", [("pyramid-7.1", ("F1", "F3")), ("pyramid-7.3", ("F1",))])
    def test_pyramids(self, name, labels):
        model = builtin(name)
        forms = frozenset().union(*(facet_by_label(model.fl, label).zero_set for label in labels))
        assert model.lambdas == even_span_decoration(model.fl, forms)

    def test_constructed_models(self, rp2_result):
        results = [oracle_construction(name) for name in sorted(ORACLE_COMPLEXES)] + [rp2_result]
        for result in results:
            cone = result.model.cone
            sides = vertex_forms(result.rank - 2)
            assert len(sides & set(cone.support_forms)) == result.rank - 2
            parity = frozenset(i for i, a in enumerate(cone.support_forms) if a not in sides)
            assert result.model.lambdas == even_span_decoration(result.model.fl, parity)

    def test_models_keep_their_cuts(self, monkeypatch):
        # the decoration hands its facet cuts to the model, so no criterion
        # cuts the faces again
        models = [builtin("pyramid-7.3"), delta_construct(path_on_four()).model]
        calls = []
        monkeypatch.setattr(monoidring.monoid, "face_group_cuts", lambda *a: calls.append(a))
        for model in models:
            depth_report(model, primes=(2, 3))
            s2_lattice_test(model)
        assert calls == []


class TestDeltaConstruct:
    def test_two_points_gives_pyramid_family(self):
        result = delta_construct(two_points())
        assert result.rank == 4
        model = result.model
        assert model.rank == 4
        a = result.distinguished_degree
        assert a[-1] == 1
        assert minimal_face(model.fl, a).dim == 1
        ids = sorted(
            model.fl.faces[i].dim for i in __import__("monoidring.cohomology", fromlist=["filter_at"]).filter_at(model, a)
        )
        assert ids == [3, 3, 4]  # two facets and the cone, as for the pyramid

    def test_full_simplex_no_planing(self):
        d = SimplicialComplex.from_facets([(1, 2)])
        result = delta_construct(d)
        assert result.rank == 4
        assert any("verified" in line for line in result.provenance)
        assert not any("planing" in line for line in result.provenance)

    def test_filter_dual_to_complex(self):
        from monoidring.cohomology import filter_at

        for delta in [two_points(), path_on_four()]:
            result = delta_construct(delta)
            ids = filter_at(result.model, result.distinguished_degree)
            assert len(ids) == len(delta.faces())

    def test_constructed_models_satisfy_s2(self):
        for delta in [two_points(), path_on_four()]:
            ok, _ = s2_lattice_test(delta_construct(delta).model)
            assert ok

    def test_even_apex_degree_acyclic_below_top(self):
        result = delta_construct(two_points())
        model = result.model
        a2 = vscale(2, result.distinguished_degree)
        dims = local_cohomology_at(model, a2).dims_q
        assert all(d == 0 for d in dims[:-1])


# The complexes of the construct workload (perfbench/gen.py SHAPES), on
# vertices 1..n.
CONSTRUCT_SHAPES = [
    [(1, 2), (2, 3), (1, 3)],
    [(1, 2, 3), (2, 3, 4)],
    [(1, 2, 3), (1, 2, 4), (1, 3, 4), (2, 3, 4)],
    [(1, 2), (2, 3), (3, 4), (4, 1)],
    [(1, 2), (2, 3), (3, 4)],
    [(1, 2), (1, 3), (1, 4)],
    [(1, 2, 3), (4,)],
    [(1, 2, 3), (3, 4)],
    [(1, 2), (2, 3), (1, 3), (4,)],
]


class TestKeptCone:
    """delta_construct builds its cone from its own rays and expected forms,
    with no second double description, and checks the facet inventory on
    the face lattice."""

    def test_cone_equals_the_full_dual_description(self, rp2_result, hexagon_result):
        results = [oracle_construction(name) for name in sorted(ORACLE_COMPLEXES)]
        results += [delta_construct(SimplicialComplex.from_facets(f)) for f in CONSTRUCT_SHAPES]
        for result in results + [rp2_result, hexagon_result]:
            cone = result.model.cone
            assert dual_description(cone.generators, cone.ambient_dim) == cone

    def test_no_dual_description_and_one_rank_per_attempt(self, count_calls):
        dd = count_calls(monoidring.constructions, "dual_description")
        dd_lib = count_calls(monoidring.polyhedral, "dual_description")
        ranks = count_calls(monoidring.constructions, "rank")
        result = delta_construct(RP2_SIX_VERTEX)
        attempts = [line for line in result.provenance if line.startswith("attempt ")]
        assert dd == dd_lib == []
        assert len(ranks) == len(attempts) >= 1

    @staticmethod
    def rebuilt_lattice(cone, rays, forms):
        rays, forms = mat(sorted(rays)), mat(sorted(forms))
        return face_lattice(RationalCone(cone.ambient_dim, rays, forms, rays, cone.span_lattice))

    @pytest.mark.parametrize("name", sorted(ORACLE_COMPLEXES))
    def test_redundant_form_fails_the_coatom_test(self, name):
        cone = oracle_construction(name).model.cone
        forms = list(cone.support_forms)
        redundant = next(
            r
            for a in forms
            for b in forms
            if (r := primitive(vadd(a, b))) not in forms and a < b
        )
        assert all(dot(redundant, ray) >= 0 for ray in cone.extreme_rays)
        _check_facet_inventory(self.rebuilt_lattice(cone, cone.extreme_rays, forms))
        fl = self.rebuilt_lattice(cone, cone.extreme_rays, forms + [redundant])
        with pytest.raises(VerificationFailed, match="facet inventory differs from the expected forms"):
            _check_facet_inventory(fl)

    @pytest.mark.parametrize("name", sorted(ORACLE_COMPLEXES))
    def test_non_extreme_ray_fails_the_atom_test(self, name):
        cone = oracle_construction(name).model.cone
        rays = list(cone.extreme_rays)
        inner = primitive(vadd(rays[0], rays[1]))
        fl = self.rebuilt_lattice(cone, rays + [inner], cone.support_forms)
        with pytest.raises(VerificationFailed, match="a ray of the pyramid is not extreme"):
            _check_facet_inventory(fl)


class TestHomologyEquality:
    def test_tree(self):
        delta = path_on_four()
        result = delta_construct(delta)
        for p in (None, 2, 3):
            assert verify_eq_homology(result, delta, p)
        dims = local_cohomology_at(result.model, result.distinguished_degree).dims_q
        assert all(d == 0 for d in dims)

    def test_hexagon(self):
        delta = hexagon()
        result = delta_construct(delta)
        assert result.rank == 8
        for p in (None, 2, 3):
            assert verify_eq_homology(result, delta, p)
        dims = local_cohomology_at(result.model, result.distinguished_degree).dims_q
        assert dims[result.rank - 2] == 1
        assert sum(dims) == 1

    def test_two_points(self):
        delta = two_points()
        result = delta_construct(delta)
        assert verify_eq_homology(result, delta)
        dims = local_cohomology_at(result.model, result.distinguished_degree).dims_q
        assert dims[result.rank - 1] == 1  # reduced H_0 of two points
