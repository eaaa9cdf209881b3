import dataclasses
import random

import pytest

import monoidring.cohomology
import monoidring.criteria
import monoidring.typology
from monoidring.cohomology import (
    CochainComplex,
    cochain_complex,
    cohomology_dims,
    filter_at,
    filter_profile,
    local_cohomology_at,
    profile_of_complex,
    torsion_primes,
)
from monoidring.errors import NotUpClosed, OutOfRange
from monoidring.exactlin import mat_mul, vadd, vscale
from monoidring.monoid import model_point_in_relint, restrict_model
from monoidring.polyhedral import dual_description, face_lattice
from monoidring.criteria import depth_bounds_multi
from monoidring.typology import depth_report, fiber_types

from conftest import (
    assert_kernel_matches_dense_path,
    corpus,
    dense_matrices,
    ORACLE_COMPLEXES,
    facet_by_label,
    oracle_construction,
    pyramid_model,
    random_decorated_model,
    resigned_epsilon,
)
from oracles import top_support_member, up_closed_by_rays, up_sets_of_interval


def odd_apex_ray_point(model):
    """An odd-degree point on the apex ray cn(m0) of the pyramid."""
    fl = model.fl
    m0 = fl.cone.extreme_rays.index((0, 0, 1, 1))
    return (0, 0, 1, 1), m0


class TestFilterAt:
    def test_zero_gives_all_faces(self, model_71):
        assert filter_at(model_71, (0, 0, 0, 0)) == frozenset(
            f.index for f in model_71.fl.faces
        )

    def test_odd_ray_point_71(self, model_71):
        a, _ = odd_apex_ray_point(model_71)
        fl = model_71.fl
        got = filter_at(model_71, a)
        expected = {
            facet_by_label(fl, "F2").index,
            facet_by_label(fl, "F4").index,
            fl.top.index,
        }
        assert got == frozenset(expected)

    def test_odd_ray_point_73(self, model_73):
        a, _ = odd_apex_ray_point(model_73)
        fl = model_73.fl
        f2 = facet_by_label(fl, "F2")
        f3 = facet_by_label(fl, "F3")
        f4 = facet_by_label(fl, "F4")
        edges = {
            f.index
            for f in fl.faces
            if f.dim == 2 and (f.ray_set <= f2.ray_set or f.ray_set <= f4.ray_set)
            and f.ray_set <= f3.ray_set
        }
        assert len(edges) == 2  # F2∩F3 and F3∩F4
        expected = edges | {f2.index, f3.index, f4.index, fl.top.index}
        assert filter_at(model_73, a) == frozenset(expected)

    def test_out_of_range(self, model_71):
        with pytest.raises(OutOfRange):
            filter_at(model_71, (0, 0, -1, 0))

    def test_even_multiple_gives_unique_minimum(self, model_71):
        a, _ = odd_apex_ray_point(model_71)
        got = filter_at(model_71, vscale(2, a))
        fl = model_71.fl
        ray = next(f for f in fl.faces if f.dim == 1 and f.ray_set == {fl.cone.extreme_rays.index(a)})
        assert got == frozenset(f.index for f in fl.faces_above(ray))


class TestCochainComplex:
    def test_one_dim_full(self):
        fl = face_lattice(dual_description([(1,)]))
        c = cochain_complex(fl, frozenset(f.index for f in fl.faces))
        assert c.faces_by_deg == ((0,), (1,))
        assert c.matrices[0] == ((1,),)

    def test_odd_filter_71(self, model_71):
        a, _ = odd_apex_ray_point(model_71)
        ids = filter_at(model_71, a)
        c = cochain_complex(model_71.fl, ids)
        assert [len(fs) for fs in c.faces_by_deg] == [0, 0, 0, 2, 1]
        # the only nonzero differential is a 2x1 matrix of signs
        assert sorted(abs(x) for row in c.matrices[3] for x in row) == [1, 1]

    def test_empty_filter(self, model_71):
        c = cochain_complex(model_71.fl, frozenset())
        assert all(len(fs) == 0 for fs in c.faces_by_deg)

    def test_not_up_closed(self, model_71):
        fl = model_71.fl
        with pytest.raises(NotUpClosed):
            cochain_complex(fl, frozenset({fl.apex.index}))

    def test_not_up_closed_in_an_interval(self, model_71):
        fl = model_71.fl
        ray = fl.faces_of_dim(1)[0]
        with pytest.raises(NotUpClosed):
            cochain_complex(fl, frozenset({fl.apex.index}), ray)
        other = fl.faces_of_dim(1)[1]
        with pytest.raises(NotUpClosed):
            cochain_complex(fl, frozenset({ray.index, other.index}), ray)

    @pytest.mark.parametrize("restricted", [("F1", "F3"), ("F1",)])
    def test_interval_complex_matches_restricted_model(self, restricted):
        # every realizable filter of a face-restricted model, moved onto the
        # parent's faces below that face, has the same cohomology there
        model = pyramid_model(restricted)
        fl = model.fl

        def ray_vectors(model, g):
            return frozenset(model.cone.extreme_rays[i] for i in g.ray_set)

        by_rays = {ray_vectors(model, g): g.index for g in fl.faces}
        for f in fl.faces:
            sub = restrict_model(model, f)
            for t in fiber_types(sub, primes=(2, 3)):
                ids = frozenset(by_rays[ray_vectors(sub, sub.fl.faces[i])] for i in t.filter_ids)
                profile = profile_of_complex(cochain_complex(fl, ids, f), primes=(2, 3))
                assert profile == t.profile


class TestCohomologyDims:
    def test_odd_filter_71_h3(self, model_71):
        a, _ = odd_apex_ray_point(model_71)
        profile = local_cohomology_at(model_71, a)
        assert profile.dims_q == (0, 0, 0, 1, 0)
        assert profile.torsion_primes == frozenset()
        assert profile.dims(2) == profile.dims_q
        assert profile.dims(3) == profile.dims_q

    def test_degree_zero_acyclic(self, model_71):
        profile = local_cohomology_at(model_71, (0, 0, 0, 0))
        assert profile.dims_q == (0, 0, 0, 0, 0)

    def test_odd_filter_73_acyclic(self, model_73):
        a, _ = odd_apex_ray_point(model_73)
        profile = local_cohomology_at(model_73, a)
        assert profile.dims_q == (0, 0, 0, 0, 0)

    def test_unique_minimal_element_vanishing_below_top(self, model_71):
        rng = random.Random(31)
        fl = model_71.fl
        for f in fl.faces:
            a = model_point_in_relint(model_71, f)
            ids = filter_at(model_71, a)
            minimal = [
                i
                for i in ids
                if not any(fl.faces[j].ray_set < fl.faces[i].ray_set for j in ids)
            ]
            if len(minimal) == 1:
                dims = local_cohomology_at(model_71, a).dims_q
                assert all(d == 0 for d in dims[:-1])

    def test_scaling_stability(self, model_71):
        a, _ = odd_apex_ray_point(model_71)
        base = filter_at(model_71, vscale(3, a))
        assert base == filter_at(model_71, a)
        p1 = local_cohomology_at(model_71, a)
        p3 = local_cohomology_at(model_71, vscale(3, a))
        assert p1 == p3

    def test_euler_characteristic_consistency(self, model_71):
        rng = random.Random(32)
        fl = model_71.fl
        for f in fl.faces:
            a = model_point_in_relint(model_71, f)
            profile = local_cohomology_at(model_71, a, primes=(2, 3))
            ids = filter_at(model_71, a)
            euler = sum(
                (-1) ** fl.faces[i].dim for i in ids
            )
            assert sum((-1) ** t * d for t, d in enumerate(profile.dims_q)) == euler


class TestTorsionPrimes:
    def test_unimodular_complex(self, model_71):
        a, _ = odd_apex_ray_point(model_71)
        ids = filter_at(model_71, a)
        c = cochain_complex(model_71.fl, ids)
        assert torsion_primes(c) == frozenset()

    def test_hexagon_circle_free(self):
        # a filter complex never sees the hexagon directly; the free-torsion
        # case is covered by the constructions oracle tests
        pass


def in_top_support(model, a):
    """Whether a supports nonzero top cohomology: its filter is {top}.  On
    cn ∩ reference this is the facet test of tests/oracles.py: a in
    lambda_G for a facet G puts G in the filter, and a proper face in the
    filter lies in a facet whose lattice holds its own."""
    by_filter = filter_at(model, a) == {model.fl.top.index}
    assert by_filter == top_support_member(model, a)
    return by_filter


class TestTopSupport:
    def test_zero_not_in_support(self, model_71):
        assert not in_top_support(model_71, (0, 0, 0, 0))

    def test_odd_interior_point_71(self, model_71):
        rays = model_71.fl.cone.extreme_rays
        x = (0,) * 4
        for r in rays:
            x = vadd(x, r)
        assert x[-1] % 2 == 1
        assert in_top_support(model_71, x)
        assert local_cohomology_at(model_71, x).dims_q[-1] == 1

    def test_normal_model_interior_vs_boundary(self):
        rng = random.Random(33)
        model = random_decorated_model(rng, 3, max_index=1)
        fl = model.fl
        interior = model_point_in_relint(model, fl.top)
        assert in_top_support(model, interior)
        for f in fl.faces[:-1]:
            boundary = model_point_in_relint(model, f)
            assert not in_top_support(model, boundary)

    def test_top_dim_matches_support_on_corpus(self):
        rng = random.Random(34)
        for _ in range(6):
            model = random_decorated_model(rng, rng.randint(2, 4))
            for f in model.fl.faces:
                a = model_point_in_relint(model, f)
                profile = local_cohomology_at(model, a)
                expected = 1 if in_top_support(model, a) else 0
                assert profile.dims_q[-1] == expected

    def test_filter_top_is_the_facet_test(self):
        # multiples of every face's ray sum, in the reference group
        checked = 0
        for model in corpus(seed=501, count=10):
            rays = model.fl.cone.extreme_rays
            for f in model.fl.faces:
                total = (0,) * model.fl.cone.ambient_dim
                for i in f.ray_set:
                    total = vadd(total, rays[i])
                for k in range(1, 5):
                    if model.reference.member(vscale(k, total)):
                        in_top_support(model, vscale(k, total))
                        checked += 1
        assert checked > 100


class TestEpsilonIndependence:
    def test_dims_same_under_alternative_incidence(self, model_71):
        fl = model_71.fl
        eps2 = resigned_epsilon(fl, seed=71)
        assert eps2 != fl.epsilon
        a, _ = odd_apex_ray_point(model_71)
        for point in [a, vscale(2, a), (0, 0, 0, 0)]:
            ids = filter_at(model_71, point)
            c1 = cochain_complex(fl, ids)
            # rebuild the complex with the alternative signs
            d = fl.top.dim
            by_deg = c1.faces_by_deg
            mats = []
            for t in range(d):
                rows, cols = by_deg[t], by_deg[t + 1]
                mats.append(
                    tuple(
                        tuple(eps2.get((g, f), 0) for f in cols) for g in rows
                    )
                )
            c2 = CochainComplex(d, by_deg, tuple(mats))
            assert cohomology_dims(c1) == cohomology_dims(c2)
            assert cohomology_dims(c1, 2) == cohomology_dims(c2, 2)


def all_filters(model):
    """Every up-closed filter above every face, realizable or not."""
    fl = model.fl
    return {s for g in fl.faces for s in up_sets_of_interval(fl, g, 10**6)}


class TestInvariantFactorKernel:
    def test_filter_complexes_match_dense_path(self, model_71, model_73):
        # every realizable filter of the seed-501 corpus, every up-closed
        # filter of the two pyramids
        cases = [({t.filter_ids for t in fiber_types(m)}, m) for m in corpus(seed=501, count=30)]
        cases += [(all_filters(m), m) for m in (model_71, model_73)]
        complexes = 0
        for filters, model in cases:
            fl = model.fl
            for ids in filters:
                for m in cochain_complex(fl, ids).matrices:
                    assert_kernel_matches_dense_path(m)
                complexes += 1
        assert complexes > 500


class TestSquareCheck:
    def corrupted(self, fl):
        """The face lattice with one sign flipped on the cover pair (h, top),
        h a facet: every diamond from a ridge below h to the top breaks."""
        top = fl.top.index
        h = fl.down_covers[top][0]
        eps = dict(fl.epsilon)
        eps[(h, top)] = -eps[(h, top)]
        return dataclasses.replace(fl, epsilon=eps)

    def test_flipped_sign_raises_on_full_filter(self, model_71):
        fl = model_71.fl
        full = frozenset(f.index for f in fl.faces)
        cochain_complex(fl, full)
        with pytest.raises(AssertionError, match="squares to zero"):
            cochain_complex(self.corrupted(fl), full)

    def test_sparse_check_fires_exactly_with_dense_product(self, model_71):
        # on every up-closed filter the path sums see what mat_mul sees
        bad = self.corrupted(model_71.fl)
        fired = 0
        for ids in all_filters(model_71):
            mats = dense_matrices(bad, ids)
            dense_nonzero = any(
                any(any(row) for row in mat_mul(a, b))
                for a, b in zip(mats, mats[1:])
                if a and b and a[0] and b[0]
            )
            try:
                cochain_complex(bad, ids)
                sparse_fired = False
            except AssertionError:
                sparse_fired = True
            assert sparse_fired == dense_nonzero
            fired += sparse_fired
        assert fired > 0


def least_by_ray_sets(fl, ids):
    """The minimal members of a face set under ray-set inclusion."""
    return [i for i in ids if not any(fl.faces[j].ray_set < fl.faces[i].ray_set for j in ids)]


def below_by_ray_sets(fl):
    return [frozenset(g.index for g in fl.faces if g.ray_set <= f.ray_set) for f in fl.faces]


def filters_and_sub_filters(model):
    """(filter, top) for every realizable filter of the model, below the
    cone, and for every sub-filter S ∩ [., F] below each F in S."""
    fl = model.fl
    below = below_by_ray_sets(fl)
    out = set()
    for t in fiber_types(model):
        out.add((t.filter_ids, fl.top.index))
        out.update((t.filter_ids & below[i], i) for i in t.filter_ids)
    return out


class TestFilterProfile:
    """filter_profile against the complex it skips, on the filters the depth
    code reads."""

    @pytest.fixture(scope="class")
    def models(self, model_71, model_73):
        constructed = [oracle_construction(name).model for name in sorted(ORACLE_COMPLEXES)]
        return corpus(seed=501, count=30) + [model_71, model_73] + constructed

    def test_same_profile_as_the_built_complex(self, models, model_71, model_73):
        # every up-closed filter of the pyramids as well, realizable or not
        cases = [(model, filters_and_sub_filters(model)) for model in models]
        for m in (model_71, model_73):
            cases.append((m, {(ids, m.fl.top.index) for ids in all_filters(m)}))
        several = 0
        for model, filters in cases:
            fl = model.fl
            for ids, top in filters:
                f = fl.faces[top]
                for primes in ((), (2, 3)):
                    built = profile_of_complex(cochain_complex(fl, ids, f), primes)
                    assert filter_profile(fl, ids, f, primes) == built
                several += len(least_by_ray_sets(fl, ids)) >= 2
        assert several > 50

    def test_complex_refuses_what_the_oracle_refuses(self, models):
        """cochain_complex, the one up-closure test, refuses exactly the
        face sets that are not up-closed below top by ray-set containment."""
        rng = random.Random(11)
        outcomes = []
        # two corpus models, the pyramids and the constructed models
        for model in models[28:]:
            fl = model.fl
            below = below_by_ray_sets(fl)
            for f in fl.faces:
                outside = [i for i in range(len(fl.faces)) if i not in below[f.index]]
                for g in below[f.index]:
                    interval = frozenset(i for i in below[f.index] if g in below[i])
                    cases = [interval, frozenset({g}), interval - {f.index}]
                    cases += [interval - {i} for i in sorted(interval - {g})[:2]]
                    if outside:
                        cases.append(interval | {rng.choice(outside)})
                    cases.append(frozenset(i for i in below[f.index] if rng.random() < 0.5))
                    for ids in cases:
                        try:
                            cochain_complex(fl, ids, f)
                            refused = False
                        except NotUpClosed:
                            refused = True
                        assert refused == (not up_closed_by_rays(fl, ids, f))
                        outcomes.append((refused, len(least_by_ray_sets(fl, ids)) == 1))
        assert {(True, True), (True, False), (False, True), (False, False)} <= set(outcomes)

    def test_every_profiled_filter_is_up_closed(self, models, rp2_result, count_calls):
        """filter_profile does not test its filters, and the interval
        profile of a class-0 filter reads none: every fiber's filter, and
        every sub-filter S ∩ below(F) that depth_bounds_multi profiles, is
        up-closed below its top by the ray-set oracle.  fiber_types calls
        filter_profile once per fiber whose filter misses its base face,
        in fiber order."""
        by_fibers = count_calls(monoidring.typology, "filter_profile")
        by_chain = count_calls(monoidring.criteria, "filter_profile")
        class_0 = subs = 0
        for model in models + [rp2_result.model]:
            by_fibers.clear()
            by_chain.clear()
            report = depth_report(model, primes=(2, 3))
            assert all(up_closed_by_rays(model.fl, t.filter_ids) for t in report.fibers)
            nonzero = [t.filter_ids for t in report.fibers if t.base_face not in t.filter_ids]
            assert [call["face_ids"] for call in by_fibers] == nonzero
            assert all(call["top"] is None for call in by_fibers)
            class_0 += len(report.fibers) - len(nonzero)
            depth_bounds_multi(model, report)
            assert all(up_closed_by_rays(model.fl, c["face_ids"], c["top"]) for c in by_chain)
            subs += len(by_chain)
        assert class_0 > 0 and subs > 0

    def test_one_up_closure_test_per_complex_built(self, count_calls, model_71, model_73):
        checks = count_calls(monoidring.cohomology, "_check_filter")
        built = count_calls(monoidring.cohomology, "cochain_complex")
        for model in (model_71, model_73, oracle_construction("4-cycle").model):
            depth_bounds_multi(model, depth_report(model, primes=(2, 3)))
        assert len(checks) == len(built) > 0

    def test_builds_only_filters_with_two_or_more_least_faces(self, count_calls):
        model = oracle_construction("4-cycle").model
        fl = model.fl
        built = count_calls(monoidring.cohomology, "cochain_complex")
        depth_bounds_multi(model, depth_report(model, primes=(2, 3)))
        several = {
            (ids, top)
            for ids, top in filters_and_sub_filters(model)
            if len(least_by_ray_sets(fl, ids)) >= 2
        }
        assert 0 < len(built) <= len(several)
