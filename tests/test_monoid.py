import itertools
import math
import random
from collections import Counter

import pytest

from monoidring.errors import DegenerateFace, NotPositive, ZeroGenerator
from monoidring.exactlin import (
    dot,
    identity,
    lattice_from_rows,
    lattice_intersect,
    rank,
    vadd,
    vscale,
)
from monoidring.monoid import (
    decorated_cone,
    face_group,
    face_submonoid_generators,
    hilbert_basis,
    is_normal,
    is_seminormal_up_to,
    member,
    model_is_normal,
    model_member,
    model_point_in_relint,
    monoid_new,
    restrict_model,
)
from monoidring.polyhedral import dual_description, minimal_face

from conftest import (
    ORACLE_COMPLEXES,
    corpus,
    facet_by_label,
    oracle_construction,
    random_decorated_model,
)
from oracles import relint_step
from test_face_table import even_reference_models


def numeric(gens):
    return monoid_new([(g,) for g in gens])


class TestMonoidNew:
    def test_numeric_23(self):
        m = numeric([2, 3])
        assert m.rank == 1

    def test_not_positive(self):
        with pytest.raises(NotPositive):
            monoid_new([(1, 0), (-1, 0)])

    def test_zero_generator(self):
        with pytest.raises(ZeroGenerator):
            monoid_new([(1, 0), (0, 0)])

    def test_pyramid_generators(self, monoid_71):
        assert monoid_71.rank == 4


class TestMember:
    def test_numeric(self):
        m = numeric([2, 3])
        assert not member(m, (1,))
        assert member(m, (7,))
        assert member(m, (0,))
        assert not member(m, (-2,))

    def test_long_paths_need_no_recursion(self):
        # the search paths run about 1700 and 2000 steps deep, past the
        # interpreter's recursion limit; the second also backtracks from there
        assert member(numeric([2, 3]), (5001,))
        assert member(numeric([3, 5]), (10001,))
        assert not member(numeric([3, 5]), (7,))

    def test_construct_then_check(self):
        rng = random.Random(21)
        m = monoid_new([(1, 0), (1, 2), (2, 1)])
        for _ in range(100):
            x = (0, 0)
            for g in m.generators:
                k = rng.randint(0, 4)
                x = vadd(x, tuple(k * gi for gi in g))
            assert member(m, x)

    def test_membership_chain(self):
        # member => in sn(M) => point of cn ∩ gp
        rng = random.Random(22)
        m = monoid_new([(2, 0), (0, 3), (1, 1)])
        for x1 in range(-2, 7):
            for x2 in range(-2, 7):
                x = (x1, x2)
                if member(m, x):
                    assert model_member(m.model, x)
                if model_member(m.model, x):
                    assert m.cone.contains(x) and m.group.member(x)


class TestFaceSubmonoid:
    def test_full_and_apex(self):
        m = monoid_new([(1, 0), (1, 2)])
        fl = m.face_lattice
        assert face_submonoid_generators(m, fl.top) == m.generators
        assert face_submonoid_generators(m, fl.apex) == ()

    def test_pyramid_facet_f1_even(self, monoid_71):
        fl = monoid_71.face_lattice
        f1 = facet_by_label(fl, "F1")
        gens = face_submonoid_generators(monoid_71, f1)
        assert gens
        assert all(g[-1] % 2 == 0 for g in gens)


class TestHilbertBasis:
    def test_orthant(self):
        c = dual_description([(1, 0), (0, 1)])
        assert hilbert_basis(c, lattice_from_rows(2, identity(2))) == ((0, 1), (1, 0))

    def test_width_two_cone(self):
        c = dual_description([(1, 0), (1, 2)])
        assert set(hilbert_basis(c, lattice_from_rows(2, identity(2)))) == {(1, 0), (1, 1), (1, 2)}

    def test_half_line(self):
        c = dual_description([(1,)])
        assert hilbert_basis(c, lattice_from_rows(1, identity(1))) == ((1,),)

    def test_primitive_multiple_against_brute_force(self):
        # Lattice.order, which scales the extreme rays of hilbert_basis,
        # against the least multiple found by counting up: an integer vector
        # in the rational span of a lattice L lies in its saturation, and
        # some multiple of it in L, so the count stops.  Lattice
        # coordinates (1/2, 1/3): the multiple is their lcm, 6.
        two_three = lattice_from_rows(3, [(2, 0, 0), (0, 3, 0)])
        assert two_three.order((1, 1, 0)) == 6
        with pytest.raises(ValueError, match="rational span"):
            two_three.order((0, 0, 1))
        rng = random.Random(29)
        checked = off_span = 0
        while checked < 300:
            m = rng.randint(1, 4)
            k = rng.randint(1, m)
            rows = [tuple(rng.randint(-4, 4) for _ in range(m)) for _ in range(k)]
            lat = lattice_from_rows(m, rows)
            if lat.rank < k:
                continue
            other = tuple(rng.randint(-3, 3) for _ in range(m))
            if rank(rows + [other]) > k:
                with pytest.raises(ValueError, match="rational span"):
                    lat.order(other)
                off_span += 1
            coeffs = [rng.randint(-3, 3) for _ in range(k)]
            ray = tuple(sum(c * r[j] for c, r in zip(coeffs, rows)) for j in range(m))
            g = math.gcd(*ray)
            if g == 0:
                continue
            ray = tuple(x // g for x in ray)
            x = vscale(rng.randint(1, 3), ray)
            brute = next(n for n in itertools.count(1) if lat.member(vscale(n, x)))
            assert lat.order(x) == brute
            checked += 1
        assert off_span > 50

    def test_minimality_and_generation(self):
        rng = random.Random(23)
        for _ in range(10):
            gens = sorted(
                {(rng.randint(-2, 2), rng.randint(-2, 2), 1) for _ in range(rng.randint(1, 4))}
            )
            c = dual_description(gens, 3)
            lat = c.span_lattice
            hb = hilbert_basis(c, lat)
            # minimality: differences of basis elements leave the monoid
            for i, hi in enumerate(hb):
                for j, hj in enumerate(hb):
                    if i != j:
                        d = tuple(a - b for a, b in zip(hi, hj))
                        assert not (
                            all(dot(f, d) >= 0 for f in c.support_forms) and lat.member(d)
                        )
            # generation up to degree 6, against brute-force enumeration
            from monoidring.polyhedral import grading_form

            deg = grading_form(c)
            reachable = {(0,) * 3}
            frontier = [(0,) * 3]
            while frontier:
                x = frontier.pop()
                for h in hb:
                    y = vadd(x, h)
                    if dot(deg, y) <= 6 and y not in reachable:
                        reachable.add(y)
                        frontier.append(y)
            for x1 in range(-7, 8):
                for x2 in range(-7, 8):
                    for x3 in range(0, 7):
                        x = (x1, x2, x3)
                        in_monoid = (
                            all(dot(f, x) >= 0 for f in c.support_forms) and lat.member(x)
                        )
                        if in_monoid and dot(deg, x) <= 6:
                            assert x in reachable


class TestNormality:
    def test_numeric_23_not_normal(self):
        ok, witness = is_normal(numeric([2, 3]))
        assert not ok and witness == (1,)

    def test_orthant_normal(self):
        ok, witness = is_normal(monoid_new([(1, 0), (0, 1)]))
        assert ok and witness is None

    def test_hilbert_basis_output_is_normal(self):
        c = dual_description([(1, 0), (1, 3)])
        hb = hilbert_basis(c, lattice_from_rows(2, identity(2)))
        ok, _ = is_normal(monoid_new(hb))
        assert ok


class TestSeminormalization:
    def test_sn_member_numeric(self):
        m = numeric([2, 3])
        assert model_member(m.model, (1,))

    def test_monoid_subset_of_sn(self):
        m = monoid_new([(2, 0), (0, 3), (1, 1)])
        for x1 in range(0, 6):
            for x2 in range(0, 6):
                if member(m, (x1, x2)):
                    assert model_member(m.model, (x1, x2))

    def test_pyramid_odd_facet_point_not_sn(self, monoid_71):
        # odd-degree relative interior point of the even facet F1
        fl = monoid_71.face_lattice
        f1 = facet_by_label(fl, "F1")
        rays = [fl.cone.extreme_rays[i] for i in f1.ray_set]
        x = (0,) * 4
        for r in rays:
            x = vadd(x, r)
        assert x[-1] % 2 == 1
        assert not model_member(monoid_71.model, x)

    def test_is_seminormal_up_to_numeric(self):
        v = is_seminormal_up_to(numeric([2, 3]), 3)
        assert not v.seminormal_up_to_bound
        assert v.witness == (1,)

    def test_is_seminormal_up_to_normal_monoid(self):
        v = is_seminormal_up_to(monoid_new([(1, 0), (0, 1)]), 8)
        assert v.seminormal_up_to_bound

    def test_pyramid_seminormal_up_to_10(self, monoid_71):
        v = is_seminormal_up_to(monoid_71, 10)
        assert v.seminormal_up_to_bound


class TestToModel:
    def test_numeric_23(self):
        model = numeric([2, 3]).model
        assert model.reference == lattice_from_rows(1, identity(1))
        assert model.lambdas[model.fl.apex.index].rank == 0

    def test_pyramid_model_lattices(self, monoid_71, model_71):
        model = monoid_71.model
        assert model.fl.cone.extreme_rays == model_71.fl.cone.extreme_rays
        for f in model.fl.faces:
            assert model.lattice_of(f) == model_71.lattice_of(f)

    def test_normal_monoid_saturated(self):
        m = monoid_new([(1, 0), (0, 1), (1, 1)])
        model = m.model
        assert model_is_normal(model)
        for f in model.fl.faces:
            assert model.lattice_of(f) == lattice_intersect(f.span_lattice, m.group)

    def test_model_member_equals_sn_member(self):
        # the oracle: x in the cone and in gp(M ∩ F) for its minimal face F
        rng = random.Random(24)
        monoids = [
            numeric([2, 3]),
            monoid_new([(2, 0), (0, 3), (1, 1)]),
            monoid_new([(1, 0, 0), (0, 2, 0), (0, 0, 1), (1, 1, 1)]),
        ]
        for m in monoids:
            model = m.model
            deg_bound = 8
            for _ in range(200):
                x = tuple(rng.randint(-4, 8) for _ in range(m.ambient_dim))
                if m.deg(x) > deg_bound:
                    continue
                f = minimal_face(m.face_lattice, x) if m.cone.contains(x) else None
                in_sn = f is not None and face_group(m, f).member(x)
                assert model_member(model, x) == in_sn


class TestDecoratedCone:
    def test_relint_step_is_the_snf_exponent(self, model_71, model_73, rp2_result):
        # the step reads the table's last factor where A_f = span f ∩ Z^m,
        # and walks Lattice.order on the even references, where it is not
        models = corpus(seed=501, count=30) + [model_71, model_73, rp2_result.model]
        models += [oracle_construction(name).model for name in ORACLE_COMPLEXES]
        models += even_reference_models(corpus(seed=501, count=30) + [model_71, model_73])
        saturated = Counter()
        for model in models:
            for f in model.fl.faces:
                assert model_point_in_relint(model, f) == relint_step(model, f)
                if f.dim:
                    saturated[model.face_table[f.index].group == f.span_lattice] += 1
        assert min(saturated[True], saturated[False]) >= 100, saturated

    def test_relint_point(self, model_71):
        fl = model_71.fl
        f1 = facet_by_label(fl, "F1")
        p = model_point_in_relint(model_71, f1)
        assert minimal_face(fl, p) is f1
        assert model_71.lattice_of(f1).member(p)
        assert model_member(model_71, p)

    def test_restrict_model(self, model_71):
        fl = model_71.fl
        f1 = facet_by_label(fl, "F1")
        sub = restrict_model(model_71, f1)
        assert sub.rank == 3
        assert model_is_normal(sub)  # even lattice everywhere under F1
        f2 = facet_by_label(fl, "F2")
        sub2 = restrict_model(model_71, f2)
        assert not model_is_normal(sub2)

    def test_model_member_even_facets(self, model_71):
        fl = model_71.fl
        f1 = facet_by_label(fl, "F1")
        rays = [fl.cone.extreme_rays[i] for i in f1.ray_set]
        odd = (0,) * 4
        for r in rays:
            odd = vadd(odd, r)
        assert odd[-1] % 2 == 1
        assert not model_member(model_71, odd)
        assert model_member(model_71, tuple(2 * c for c in odd))

    def test_one_lattice_per_face(self, model_71):
        # a short or a long tuple is refused as an input, also under python -O
        lambdas = model_71.lambdas
        for wrong in (lambdas[:-1], lambdas + lambdas[-1:]):
            with pytest.raises(DegenerateFace, match="lattices for 20 faces"):
                decorated_cone(model_71.fl, wrong)

    def test_random_models_validate(self):
        rng = random.Random(25)
        for _ in range(10):
            model = random_decorated_model(rng, rng.randint(2, 4))
            assert model.rank == model.fl.top.dim
            # monotonicity was checked at construction; spot-check membership
            for f in model.fl.faces:
                p = model_point_in_relint(model, f)
                assert model_member(model, p)
