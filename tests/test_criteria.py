import random

import pytest

import monoidring.criteria
import monoidring.monoid
from monoidring.cohomology import filter_at
from monoidring.criteria import (
    depth_bounds,
    depth_bounds_multi,
    f_bad_primes,
    gorenstein_check,
    m_prime_member,
    n_value,
    normal_facets_cm,
    s2_lattice_test,
    s2_up_to,
    simple_cone_cm,
)
from monoidring.errors import NotCM
from monoidring.exactlin import identity, lattice_from_rows, vadd
from monoidring.monoid import (
    decorated_cone,
    member,
    model_member,
    monoid_new,
    restrict_model,
)
from monoidring.polyhedral import dual_description, face_lattice
from monoidring.typology import depth_report

from conftest import (
    corpus,
    decorate_by_facets,
    even_degree_lattice,
    facet_by_label,
    random_decorated_model,
)
from oracles import model_face_is_normal


def orthant_model(dim=2, facet_lattices=None):
    gens = [tuple(1 if i == j else 0 for i in range(dim)) for j in range(dim)]
    fl = face_lattice(dual_description(gens))
    return fl, decorate_by_facets(fl, facet_lattices or {}, lattice_from_rows(dim, identity(dim)))


class TestS2:
    def test_pyramid_71_s2_holds(self, model_71):
        ok, failing = s2_lattice_test(model_71)
        assert ok and failing is None

    def test_f3_restriction_fails_s2(self, model_73):
        f3 = facet_by_label(model_73.fl, "F3")
        sub = restrict_model(model_73, f3)
        ok, failing = s2_lattice_test(sub)
        assert not ok
        assert sub.fl.faces[failing].dim == 1  # the even apex ray

    def test_normal_model_s2(self):
        rng = random.Random(51)
        model = random_decorated_model(rng, 3, max_index=1)
        ok, _ = s2_lattice_test(model)
        assert ok

    def test_pyramid_73_s2_holds(self, model_73):
        ok, _ = s2_lattice_test(model_73)
        assert ok


def even_axis_monoid():
    # pairs (a, b) with a even when b = 0; seminormal, so the interior
    # hypothesis holds
    return monoid_new([(2, 0), (1, 1), (0, 1)])


class TestMPrime:
    def test_monoid_inside_m_prime(self):
        m = even_axis_monoid()
        for x1 in range(0, 5):
            for x2 in range(0, 5):
                if member(m, (x1, x2)):
                    assert m_prime_member(m, (x1, x2), hypothesis_bound=10)

    def test_odd_ray_point_not_in_m_prime(self, monoid_71):
        # the even restriction on the shaded facets pulls the apex-ray group
        # down to the even multiples, so the odd ray point is excluded
        x = (0, 0, 1, 1)
        assert not m_prime_member(monoid_71, x, hypothesis_bound=8)

    def test_interior_group_point(self, monoid_71):
        x = (0, 0, 1, 2)
        assert m_prime_member(monoid_71, x, hypothesis_bound=8)

    def test_s2_up_to_pyramid(self, monoid_71):
        v = s2_up_to(monoid_71, 10, hypothesis_bound=10)
        assert v.s2_up_to_bound

    def test_s2_up_to_passes_an_explicit_zero_hypothesis_bound(self):
        from monoidring.errors import HypothesisUnverified

        m = monoid_new([(1, 0), (1, 2), (1, 3)])  # (1,1) is interior, not in M
        s2_up_to(m, 4, hypothesis_bound=0)  # checks the hypothesis up to 0 only
        with pytest.raises(HypothesisUnverified):
            s2_up_to(m, 4, hypothesis_bound=None)

    def test_hypothesis_violation_raises(self):
        from monoidring.errors import HypothesisUnverified

        m = monoid_new([(1, 0), (1, 2), (1, 3)])  # (1,1) is interior, not in M
        with pytest.raises(HypothesisUnverified):
            m_prime_member(m, (2, 2), hypothesis_bound=8)

    def test_s2_up_to_brute_force(self):
        # M' by definition: x in M' iff x + b in M for some b in M cap F_i,
        # for every facet; brute-forced with singly generated facet submonoids
        m = even_axis_monoid()
        bound = 8
        fl = m.face_lattice
        facets = [fl.faces[i] for i in fl.facet_indices()]
        from monoidring.monoid import face_submonoid_generators

        def in_m_i(x, facet):
            (gen,) = face_submonoid_generators(m, facet)
            return any(
                member(m, vadd(x, tuple(k * gi for gi in gen))) for k in range(0, 12)
            )

        for x1 in range(0, bound + 1):
            for x2 in range(0, bound + 1):
                x = (x1, x2)
                expected = all(in_m_i(x, f) for f in facets)
                got = m_prime_member(m, x, hypothesis_bound=bound)
                assert got == expected

    def test_s2_witness_on_restricted_facet_monoid(self, model_73):
        # the facet restriction with one even edge fails (S2); the bounded
        # scan must certify it with an odd apex-ray point
        from conftest import model_points_up_to_height

        f3 = facet_by_label(model_73.fl, "F3")
        sub = restrict_model(model_73, f3)
        gens = model_points_up_to_height(sub, 4)
        m = monoid_new(gens)
        v = s2_up_to(m, 6, hypothesis_bound=6)
        assert not v.s2_up_to_bound
        assert v.witness == (0, 0, 1, 1)


class TestFastPaths:
    def test_normal_facets_cm_on_normal_model(self):
        _, model = orthant_model()
        assert normal_facets_cm(model) is True

    def test_pyramid_71_no_verdict(self, model_71):
        assert normal_facets_cm(model_71) is None

    def test_simple_cone_cm_pyramid_71(self, model_71):
        verdict, flags = simple_cone_cm(model_71)
        assert verdict is None  # the apex ray is not simple
        fl = model_71.fl
        apex_ray = next(
            f
            for f in fl.faces
            if f.dim == 1 and f.ray_set == {fl.cone.extreme_rays.index((0, 0, 1, 1))}
        )
        assert flags[apex_ray.index] is False

    def test_simple_cone_cm_simplicial(self):
        fl, model = orthant_model(3)
        verdict, flags = simple_cone_cm(model)
        assert verdict is True
        assert all(flags.values())

    def test_fast_path_soundness(self):
        rng = random.Random(52)
        for _ in range(8):
            model = random_decorated_model(rng, rng.randint(2, 3))
            rep = depth_report(model, primes=(2, 3))
            for verdict in (normal_facets_cm(model), simple_cone_cm(model)[0]):
                if verdict is True:
                    assert rep.depth_q == rep.rank
                    assert not rep.cm_fail_primes


class TestS2Agreement:
    def test_lattice_vs_bounded_on_pyramid(self, monoid_71, model_71):
        lattice_ok, _ = s2_lattice_test(model_71)
        bounded = s2_up_to(monoid_71, 10, hypothesis_bound=10)
        assert lattice_ok == bounded.s2_up_to_bound

    def test_lattice_vs_bounded_on_small_monoids(self):
        cases = [
            [(1, 0), (0, 1)],
            [(2, 0), (0, 3), (1, 1)],
            [(1, 0), (1, 2)],
        ]
        for gens in cases:
            m = monoid_new(gens)
            v = is_seminormal(m)
            if not v:
                continue
            model = m.model
            lattice_ok, _ = s2_lattice_test(model)
            bounded = s2_up_to(m, 8, hypothesis_bound=8)
            assert lattice_ok == bounded.s2_up_to_bound


def is_seminormal(m):
    from monoidring.monoid import is_seminormal_up_to

    return is_seminormal_up_to(m, 8).seminormal_up_to_bound


class TestDepthBounds:
    def test_normal_model(self):
        _, model = orthant_model(3)
        b = depth_bounds(model)
        assert b.c_k == b.n == b.depth == 3
        assert b.chain_holds

    def test_pyramid_71(self, model_71):
        b = depth_bounds(model_71)
        assert b.n == 1
        assert b.c_k == 3
        assert b.depth == 3
        assert b.chain_holds

    def test_chain_on_corpus(self):
        rng = random.Random(53)
        for _ in range(6):
            model = random_decorated_model(rng, rng.randint(2, 4))
            for p in (None, 2, 3):
                b = depth_bounds(model, p)
                assert b.chain_holds, (model.cone.generators, p, b)

    def test_rank_two_depth_at_least_two(self):
        rng = random.Random(54)
        for _ in range(6):
            model = random_decorated_model(rng, 2)
            rep = depth_report(model, primes=(2, 3))
            assert rep.depth_q >= 2
            assert all(d >= 2 for d in rep.depth_by_prime.values())


class TestFBadPrimes:
    def test_normal_model_empty(self):
        _, model = orthant_model(3)
        assert f_bad_primes(model) == frozenset()

    def test_pyramid_71_prime_two(self, model_71):
        assert f_bad_primes(model_71) == frozenset({2})

    def test_brute_force_cross_check(self):
        rng = random.Random(55)
        for _ in range(8):
            model = random_decorated_model(rng, rng.randint(2, 3))
            bad = f_bad_primes(model)
            for p in (2, 3, 5):
                # brute force: enumerate cosets of the face quotient and look
                # for an order-p element
                found = False
                for f in model.fl.faces:
                    from monoidring.exactlin import lattice_intersect, quotient_decomposition

                    numerator = lattice_intersect(model.reference, f.span_lattice)
                    lam = model.lattice_of(f)
                    d, rows = quotient_decomposition(numerator, lam)
                    import itertools

                    for coords in itertools.product(*(range(x) for x in d)):
                        if all(c == 0 for c in coords):
                            continue
                        from monoidring.exactlin import vec_mat

                        x = vec_mat(coords, rows)
                        px = tuple(p * c for c in x)
                        if lam.member(px) and not lam.member(x):
                            found = True
                            break
                    if found:
                        break
                assert (p in bad) == found

    def test_normality_iff_no_bad_primes(self):
        rng = random.Random(56)
        from monoidring.monoid import model_is_normal

        for _ in range(8):
            model = random_decorated_model(rng, rng.randint(2, 3))
            assert (f_bad_primes(model) == frozenset()) == model_is_normal(model)


class TestGorenstein:
    def test_orthant_polynomial_ring(self):
        _, model = orthant_model(2)
        ok, b = gorenstein_check(model)
        assert ok and b == (1, 1)

    def test_cone_over_unit_square(self):
        gens = [(0, 0, 1), (1, 0, 1), (0, 1, 1), (1, 1, 1)]
        fl = face_lattice(dual_description(gens))
        model = decorate_by_facets(fl, {}, lattice_from_rows(3, identity(3)))
        ok, b = gorenstein_check(model)
        assert ok and b == (1, 1, 2)

    def test_even_axis_hypersurface(self):
        # monoid of pairs (a, b) with a even when b = 0: K[u,v,w]/(w^2 - uv)
        gens = [(1, 0), (0, 1)]
        fl = face_lattice(dual_description(gens))
        rays = fl.cone.extreme_rays
        x_axis = next(
            f for f in fl.faces if f.dim == 1 and rays[next(iter(f.ray_set))] == (1, 0)
        )
        facet_lattices = {next(iter(x_axis.zero_set)): lattice_from_rows(2, [(2, 0)])}
        model = decorate_by_facets(fl, facet_lattices, lattice_from_rows(2, identity(2)))
        ok, b = gorenstein_check(model)
        assert ok and b == (1, 0)
        # support of top cohomology is b + monoid, spot-checked on a box
        for x1 in range(0, 8):
            for x2 in range(0, 8):
                x = (x1, x2)
                shifted = (x1 - b[0], x2 - b[1])
                in_shifted = (
                    all(c >= 0 for c in shifted) and model_member(model, shifted)
                    if min(shifted) >= 0
                    else False
                )
                assert (filter_at(model, x) == {model.fl.top.index}) == in_shifted

    def test_gamma_three_not_gorenstein(self):
        gens = [(1, 0), (0, 1)]
        fl = face_lattice(dual_description(gens))
        rays = fl.cone.extreme_rays
        x_axis = next(
            f for f in fl.faces if f.dim == 1 and rays[next(iter(f.ray_set))] == (1, 0)
        )
        facet_lattices = {next(iter(x_axis.zero_set)): lattice_from_rows(2, [(3, 0)])}
        model = decorate_by_facets(fl, facet_lattices, lattice_from_rows(2, identity(2)))
        ok, b = gorenstein_check(model)
        assert not ok and b is None

    def test_inconsistent_system(self):
        # cone over the unit square, facet x = 0 of index 2: the targets
        # x = 0, y = 1 and z - x = 1 force z - y = 0, but its target is 1
        fl = face_lattice(dual_description([(0, 0, 1), (1, 0, 1), (0, 1, 1), (1, 1, 1)]))
        x_facet = fl.cone.support_forms.index((1, 0, 0))
        model = decorate_by_facets(
            fl,
            {x_facet: lattice_from_rows(3, [(0, 1, 0), (0, 0, 2)])},
            lattice_from_rows(3, identity(3)),
        )
        assert depth_report(model, primes=()).cm_q
        assert gorenstein_check(model) == (False, None)

    def test_non_integral_solution(self):
        # normal cone over (1, 0), (1, 3): y = 1 and 3x - y = 1 give x = 2/3
        fl = face_lattice(dual_description([(1, 0), (1, 3)]))
        model = decorate_by_facets(fl, {}, lattice_from_rows(2, identity(2)))
        assert depth_report(model, primes=()).cm_q
        assert gorenstein_check(model) == (False, None)

    def test_candidate_in_index_two_facet_lattice(self):
        # both axes of index 2: every target is 0, so b = 0, which lies in
        # both facet lattices
        fl = face_lattice(dual_description([(1, 0), (0, 1)]))
        forms = fl.cone.support_forms
        facet_lattices = {
            forms.index((1, 0)): lattice_from_rows(2, [(0, 2)]),
            forms.index((0, 1)): lattice_from_rows(2, [(2, 0)]),
        }
        model = decorate_by_facets(fl, facet_lattices, lattice_from_rows(2, identity(2)))
        assert depth_report(model, primes=()).cm_q
        assert gorenstein_check(model) == (False, None)

    def test_not_cm_raises(self, model_71):
        with pytest.raises(NotCM):
            gorenstein_check(model_71)


class TestNormalFaceDetection:
    def test_pyramid_71_even_faces_normal(self, model_71):
        fl = model_71.fl
        f1 = facet_by_label(fl, "F1")
        assert model_face_is_normal(model_71, f1)
        f2 = facet_by_label(fl, "F2")
        assert not model_face_is_normal(model_71, f2)
        assert n_value(model_71) == 1


def rebuilt_depth_bounds(model, primes):
    """The depth chain from one rebuilt restricted model per face: depth
    reports of restrict_model(model, f), then c_K and the depth over each
    field, with n from the per-face normality test."""
    fl = model.fl
    n = min([model.rank] + [f.dim - 1 for f in fl.faces if not model_face_is_normal(model, f)])
    reports = {f.index: depth_report(restrict_model(model, f), primes=primes) for f in fl.faces}
    out = {}
    for p in (None, *primes):
        c_k = model.rank
        for f in fl.faces:
            if f.dim - 1 < c_k and not reports[f.index].cm(p):
                c_k = f.dim - 1
        depth = reports[fl.top.index].depth(p)
        out[p] = (c_k, n, depth, depth >= c_k >= min(n + 1, model.rank))
    return out


class TestTightCoversByTable:
    """n_value takes no kernel on a cover whose lower face has
    lambda_g = A_g; a cover with only lambda_h = A_h still gets one."""

    def test_rp2_kernels(self, rp2_result, count_calls):
        model = rp2_result.model
        model.face_table
        calls = count_calls(monoidring.criteria, "form_kernel")
        assert n_value(model) == 4
        assert len(calls) <= 3044

    def test_trivial_upper_lattice_sets_n(self):
        # the ray e1 carries 2Z e1 under the top's Z^2: the cover of that
        # ray by the top has lambda_h = A_h != lambda_g and is not tight
        ray_form = 0  # (0, 1), the form of the ray e1
        fl, model = orthant_model(2, {ray_form: lattice_from_rows(2, [(2, 0), (0, 1)])})
        assert fl.cone.support_forms[ray_form] == (0, 1)
        ray = fl.by_zero_set(frozenset({ray_form}))
        assert model.face_table[ray.index].factors == (2,)
        assert model.face_table[fl.top.index].factors == (1, 1)
        assert not model_face_is_normal(model, fl.top)
        assert n_value(model) == 1


class TestDepthChainOnParentLattice:
    """depth_bounds_multi reads every face's verdict off the parent's fibers;
    a rebuild of every restricted model is the oracle."""

    @pytest.fixture(scope="class")
    def models(self, model_71, model_73):
        return corpus(seed=501, count=30) + [model_71, model_73]

    def test_matches_rebuilt_restrictions(self, models):
        below_rank = 0
        for model in models:
            rep = depth_report(model, primes=(2, 3))
            got = depth_bounds_multi(model, rep)
            # the fields are Q and the report's primes
            want = rebuilt_depth_bounds(model, tuple(rep.depth_by_prime))
            assert {p: (b.c_k, b.n, b.depth, b.chain_holds) for p, b in got.items()} == want
            below_rank += any(b.c_k < model.rank for b in got.values())
        assert below_rank > 0  # the corpus reaches non-CM faces

    def test_n_value_is_per_face_minimum(self, models):
        for model in models:
            want = model.rank
            for f in model.fl.faces:
                if not model_face_is_normal(model, f):
                    want = min(want, f.dim - 1)
            assert n_value(model) == want

    def test_normal_facets_cm_is_the_per_facet_test(self, models):
        rng = random.Random(71)
        draws = [random_decorated_model(rng, rng.randint(2, 4)) for _ in range(40)]
        verdicts = []
        for model in models + draws:
            fl = model.fl
            facets_normal = all(model_face_is_normal(model, fl.faces[i]) for i in fl.facet_indices())
            verdicts.append(normal_facets_cm(model))
            assert verdicts[-1] is (True if facets_normal else None)
        assert True in verdicts and None in verdicts

    def test_no_restricted_model_is_built(self, monkeypatch, model_73):
        def rebuild(*args):
            raise AssertionError("restrict_model called")

        monkeypatch.setattr(monoidring.monoid, "restrict_model", rebuild)
        monkeypatch.setattr(monoidring.criteria, "restrict_model", rebuild, raising=False)
        bounds = depth_bounds_multi(model_73, depth_report(model_73, primes=(2, 3)))
        assert bounds[None].c_k == 2
