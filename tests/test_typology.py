import random
from itertools import product
from math import prod

import pytest

from monoidring import typology
from monoidring.cli import parse_input
from monoidring.cohomology import (
    CohomologyProfile,
    cochain_complex,
    filter_at,
    local_cohomology_at,
    profile_of_complex,
)
from monoidring.constructions import SimplicialComplex, builtin, delta_construct
from monoidring.criteria import gorenstein_check
from monoidring.errors import NotCM, TooLarge
from monoidring.exactlin import (
    Lattice,
    dot,
    identity,
    lattice_from_rows,
    lattice_intersect,
    prime_factors,
    quotient_decomposition,
    rank,
    rank_mod,
    snf,
    vadd,
    vec_mat,
    vscale,
    vsub,
)
from monoidring.monoid import restrict_model
from monoidring.polyhedral import dual_description, face_lattice, minimal_face
from monoidring.typology import CohomologyType, depth_report, fiber_types

from conftest import (
    corpus,
    decorate_by_facets,
    dense_matrices,
    facet_by_label,
    random_decorated_model,
)
from oracles import (
    class_patterns_by_walk,
    realizable_by_intersections,
    relint_step,
    shift_by_steps,
    up_sets_of_interval,
)


def apex_ray_face(fl):
    m0 = fl.cone.extreme_rays.index((0, 0, 1, 1))
    return next(f for f in fl.faces if f.dim == 1 and f.ray_set == {m0})


def fibers_by_pair(model):
    return {(t.base_face, t.filter_ids): t for t in fiber_types(model)}


def up_set_pairs(fl):
    """Every (base face index, up-closed filter above it) pair."""
    return {(g.index, s) for g in fl.faces for s in up_sets_of_interval(fl, g, 10**6)}


class TestRealizable:
    """A filter is realizable above a base face exactly when fiber_types
    lists the pair, with a witness of that minimal face and filter."""

    def test_full_cone_trivial_filter(self, model_71):
        fl = model_71.fl
        t = fibers_by_pair(model_71)[(fl.top.index, frozenset({fl.top.index}))]
        assert minimal_face(fl, t.witness) is fl.top
        assert filter_at(model_71, t.witness) == frozenset({fl.top.index})

    def test_odd_ray_filter_realizable(self, model_71):
        fl = model_71.fl
        ray = apex_ray_face(fl)
        s = frozenset(
            {
                facet_by_label(fl, "F2").index,
                facet_by_label(fl, "F4").index,
                fl.top.index,
            }
        )
        witness = fibers_by_pair(model_71)[(ray.index, s)].witness
        assert witness[-1] % 2 == 1
        assert minimal_face(fl, witness) is ray
        assert filter_at(model_71, witness) == s

    def test_dropping_one_facet_not_realizable(self, model_71):
        # the two full facets restrict identically on the apex ray, so a
        # filter containing one but not the other has no witness
        fl = model_71.fl
        ray = apex_ray_face(fl)
        s = frozenset({facet_by_label(fl, "F2").index, fl.top.index})
        assert s in up_sets_of_interval(fl, ray, 10**6)
        assert realizable_by_intersections(model_71, ray, s) == (False, None)
        assert (ray.index, s) not in fibers_by_pair(model_71)

    def test_same_verdicts_as_intersections(self, model_71, model_73):
        # every (base face, up-closed filter) pair: a fiber of the class walk
        # exactly when the cover of A_S / C' by the excluded-face subgroups
        # leaves a class out
        realized = 0
        for model in [model_71, model_73] + corpus(seed=501, count=10):
            fl = model.fl
            fibers = fibers_by_pair(model)
            pairs = up_set_pairs(fl)
            assert fibers.keys() <= pairs
            for g, s in pairs:
                assert ((g, s) in fibers) == realizable_by_intersections(model, fl.faces[g], s)[0]
            for (g, s), t in fibers.items():
                assert minimal_face(fl, t.witness).index == g
                assert filter_at(model, t.witness) == s
            realized += len(fibers)
        assert realized > 100

    def test_quotient_past_the_cap_starts_no_loop(self, tmp_path, monkeypatch):
        # the ray (0, 1) carries a lattice of index CLASS_CAP + 1, so the
        # quotient of its base face has one class too many
        p = tmp_path / "wide.model"
        p.write_text(f"model 2\ngenerators\n1 0\n0 1\nlattice 0\n0 {typology.CLASS_CAP + 1}\n")
        _, model = parse_input(str(p))

        def no_loop(*ranges):
            if prod(map(len, ranges)) > typology.CLASS_CAP:
                raise AssertionError("the quotient walk started")
            return product(*ranges)

        monkeypatch.setattr(typology, "product", no_loop)
        with pytest.raises(TooLarge, match="classes exceed the cap"):
            fiber_types(model)


class TestFiberTypes:
    def test_one_dim_normal(self):
        fl = face_lattice(dual_description([(1,)]))
        model = decorate_by_facets(fl, {}, lattice_from_rows(1, identity(1)))
        types = fiber_types(model)
        assert len(types) == 2
        for t in types:
            assert all(d == 0 for d in t.profile.dims_q[:-1])

    def test_pyramid_contains_h3_type(self, model_71):
        fl = model_71.fl
        ray = apex_ray_face(fl)
        types = fiber_types(model_71)
        s = frozenset(
            {
                facet_by_label(fl, "F2").index,
                facet_by_label(fl, "F4").index,
                fl.top.index,
            }
        )
        hit = [t for t in types if t.base_face == ray.index and t.filter_ids == s]
        assert len(hit) == 1
        assert hit[0].profile.dims_q == (0, 0, 0, 1, 0)

    def test_simplicial_normal_only_top(self):
        fl = face_lattice(dual_description([(1, 0, 0), (0, 1, 0), (0, 0, 1)]))
        model = decorate_by_facets(fl, {}, lattice_from_rows(3, identity(3)))
        for t in fiber_types(model):
            assert all(d == 0 for d in t.profile.dims_q[:-1])

    def test_witness_soundness(self, model_71):
        fl = model_71.fl
        for t in fiber_types(model_71):
            assert minimal_face(fl, t.witness).index == t.base_face
            assert filter_at(model_71, t.witness) == t.filter_ids

    def test_fiber_partition_random_degrees(self, model_71):
        rng = random.Random(41)
        types = fiber_types(model_71)
        keyed = {(t.base_face, t.filter_ids): t for t in types}
        fl = model_71.fl
        checked = 0
        for _ in range(200):
            x4 = rng.randint(1, 6)
            x3 = rng.randint(0, x4)
            w = x4 - x3
            x = (rng.randint(-w, w), rng.randint(-w, w), x3, x4)
            assert model_71.cone.contains(x)
            g = minimal_face(fl, x)
            s = filter_at(model_71, x)
            t = keyed[(g.index, s)]
            assert t.profile.dims_q == local_cohomology_at(model_71, x).dims_q
            checked += 1
        assert checked > 50


class TestEnumerateTypes:
    """The up-set enumeration of tests/oracles.py against the fibers: every
    fiber is an up-set pair, and the pairs left out are the unrealizable
    ones."""

    def test_includes_unrealizable(self, model_71):
        fl = model_71.fl
        ray = apex_ray_face(fl)
        fibers = fibers_by_pair(model_71)
        s = frozenset({facet_by_label(fl, "F2").index, fl.top.index})
        pairs = up_set_pairs(fl)
        assert fibers.keys() < pairs
        assert (ray.index, s) in pairs - fibers.keys()

    def test_realizable_flags_match_direct_decision(self):
        rng = random.Random(42)
        model = random_decorated_model(rng, 3)
        fl = model.fl
        fibers = fibers_by_pair(model)
        pairs = [(g, s) for g in fl.faces for s in up_sets_of_interval(fl, g, 10**6)]
        sample = [(g, s) for g, s in pairs if (g.index, s) not in fibers][:10]
        sample += [(g, s) for g, s in pairs if (g.index, s) in fibers][:10]
        for g, s in sample:
            ok, _ = realizable_by_intersections(model, g, s)
            assert ok == ((g.index, s) in fibers)


class TestDepthReport:
    def test_pyramid_71(self, model_71):
        rep = depth_report(model_71, primes=(2, 3))
        assert rep.rank == 4
        assert rep.depth_q == 3
        assert not rep.cm_q
        assert rep.depth_by_prime == {2: 3, 3: 3}
        assert rep.torsion_primes == frozenset()
        assert rep.buchsbaum_excluded
        assert 3 in rep.witnesses["q"]

    def test_pyramid_73_cm(self, model_73):
        rep = depth_report(model_73, primes=(2, 3))
        assert rep.depth_q == 4 == rep.rank
        assert rep.cm_q
        assert rep.cm_fail_primes == frozenset()

    def test_pyramid_73_facet_f3_depth_two(self, model_73):
        # restriction to the unshaded facet through the apex ray: its only
        # decorated face is the even apex ray, which forces nonzero second
        # cohomology at the negative odd multiples -m0, -3m0, ... of the ray
        # (the filter at the odd multiple a computes degree -a) and nothing
        # below
        fl = model_73.fl
        f3 = facet_by_label(fl, "F3")
        sub = restrict_model(model_73, f3)
        rep = depth_report(sub, primes=(2, 3))
        assert rep.rank == 3
        assert rep.depth_q == 2
        assert rep.depth_by_prime == {2: 2, 3: 2}

    def test_unrequested_prime_has_the_rational_depth(self):
        # 5 is a torsion prime of neither pyramid, so a report asked for 2
        # alone answers for 5 with the depth over Q
        for name, cm in (("pyramid-7.1", False), ("pyramid-7.3", True)):
            model = builtin(name)
            rep = depth_report(model, primes=(2,))
            assert 5 not in rep.depth_by_prime
            assert rep.depth(5) == depth_report(model, primes=(5,)).depth_by_prime[5]
            assert (rep.depth(5), rep.cm(5)) == (rep.depth_q, cm)
            if cm:
                assert gorenstein_check(model, 5, rep) == gorenstein_check(model, 5)
            else:
                with pytest.raises(NotCM):
                    gorenstein_check(model, 5, rep)

    def test_hochster_normal_models(self):
        rng = random.Random(43)
        for _ in range(5):
            model = random_decorated_model(rng, rng.randint(2, 4), max_index=1)
            rep = depth_report(model)
            assert rep.depth_q == rep.rank
            assert rep.cm_fail_primes == frozenset()
            for t in fiber_types(model):
                assert all(d == 0 for d in t.profile.dims_q[:-1])

    def test_prime_dims_dominate_rational_dims(self):
        # universal coefficients: F_p dimensions are componentwise >= Q ones
        rng = random.Random(44)
        for _ in range(5):
            model = random_decorated_model(rng, rng.randint(2, 4))
            for t in fiber_types(model, primes=(2, 3, 5)):
                for p, dims in t.profile.dims_p.items():
                    assert all(dp >= dq for dp, dq in zip(dims, t.profile.dims_q))

    def test_depth_monotone_under_primes(self):
        rng = random.Random(45)
        for _ in range(5):
            model = random_decorated_model(rng, rng.randint(2, 4))
            rep = depth_report(model, primes=(2, 3))
            for p, dp in rep.depth_by_prime.items():
                assert dp <= rep.depth_q


def intersection_lattice(model, g):
    """A* and D = ∩_{F >= g} (A* ∩ lambda_F), intersected one by one."""
    above = model.fl.faces_above(g)
    a_star = lattice_intersect(g.span_lattice, model.reference)
    b_lat = {f.index: lattice_intersect(a_star, model.lattice_of(f)) for f in above}
    d_lat = a_star
    for f in above:
        d_lat = lattice_intersect(d_lat, b_lat[f.index])
    return above, a_star, b_lat, d_lat


def dense_profile(fl, ids, primes):
    """Filter-complex profile from matrices built entry by entry, with the
    dense rank, rank_mod and snf."""
    d = fl.top.dim
    by_deg = [[i for i in ids if fl.faces[i].dim == t] for t in range(d + 1)]
    mats = dense_matrices(fl, ids)
    tors = set()
    for m in mats:
        if m and m[0]:
            diag, _ = snf(m)
            for x in diag:
                if x > 1:
                    tors |= prime_factors(x)

    def dims(p):
        rk = [(rank(m) if p is None else rank_mod(m, p)) if m and m[0] else 0 for m in mats]
        return tuple(
            len(by_deg[t]) - (rk[t] if t < d else 0) - (rk[t - 1] if t > 0 else 0)
            for t in range(d + 1)
        )

    dims_p = {p: dims(p) for p in sorted(set(primes) | tors)}
    return CohomologyProfile(dims(None), dims_p, frozenset(tors))


def intersection_fiber_types(model, primes):
    """The enumeration by intersections of the face lattices above each base
    face, with witnesses moved into relint(g) by repeated relint steps."""
    fl = model.fl
    forms = fl.cone.support_forms
    out = []
    for g in fl.faces:
        above, a_star, b_lat, d_lat = intersection_lattice(model, g)
        factors, basis = quotient_decomposition(a_star, d_lat)
        seen = {}
        for coords in product(*(range(f) for f in factors)):
            x = vec_mat(coords, basis) if basis else (0,) * fl.cone.ambient_dim
            pattern = frozenset(f.index for f in above if b_lat[f.index].member(x))
            seen.setdefault(pattern, x)
        step = relint_step(model, g)
        outside = [forms[i] for i in range(len(forms)) if i not in g.zero_set]
        for pattern, x in sorted(seen.items(), key=lambda kv: sorted(kv[0])):
            while any(dot(form, x) <= 0 for form in outside):
                x = vadd(x, step)
            out.append(CohomologyType(g.index, pattern, x, dense_profile(fl, pattern, primes)))
    return out


class TestFiberShortcuts:
    def test_intersection_lattice_is_base_lattice(self, model_71, model_73):
        # monotonicity makes D = ∩_{F >= G} (A* ∩ lambda_F) equal lambda_G
        for model in corpus(seed=501, count=30) + [model_71, model_73]:
            for g in model.fl.faces:
                assert intersection_lattice(model, g)[3] == model.lattice_of(g)

    def test_same_types_as_intersection_enumeration(self):
        for model in corpus(seed=501, count=30):
            assert fiber_types(model, primes=(2, 3)) == intersection_fiber_types(model, (2, 3))

    def test_one_enumeration_serves_torsion_primes(self, rp2_result, count_calls):
        # 2 is a torsion prime of RP² but not a requested one: its depth is
        # read from the one enumeration
        calls = count_calls(typology, "fiber_types")
        rep = typology.depth_report(rp2_result.model, primes=())
        assert len(calls) == 1
        assert rep.depth_by_prime == {2: 5}
        assert rep.torsion_primes == frozenset({2})

    def test_one_enumeration_per_analyze(self, tmp_path, count_calls):
        # depth_report hands its fibers to the depth chain; typology keeps
        # no module-level state that could share them
        from monoidring.cli import main, write_model
        from monoidring.constructions import builtin

        model_path = tmp_path / "p73.model"
        write_model(builtin("pyramid-7.3"), str(model_path))
        monoid_path = tmp_path / "rank3.txt"
        monoid_path.write_text("monoid 3\n1 0 1\n0 1 1\n0 0 1\n1 1 2\n")
        calls = count_calls(typology, "fiber_types")
        for path in (model_path, monoid_path):
            calls.clear()
            assert main(["analyze", str(path), "--fields", "q,2,3"]) == 0
            assert len(calls) == 1
        assert not [
            name for name, value in vars(typology).items()
            if not name.startswith("__") and isinstance(value, (dict, list, set))
        ]

    def test_report_carries_its_fibers(self, model_73):
        rep = depth_report(model_73, primes=(2, 3))
        assert rep.fibers == tuple(fiber_types(model_73, primes=(2, 3)))


HEXAGON = SimplicialComplex.from_facets([(1, 2), (2, 3), (3, 4), (4, 5), (5, 6), (6, 1)])


class TestClassWalkSkips:
    """_class_patterns skips the tests whose answers are known: the class 0,
    every class at a face with lambda_F = A_F, and every face with an
    up-cover outside the pattern.  The full walk, every class against every
    face above g, is the oracle."""

    def test_same_patterns_as_the_full_walk(self, rp2_result):
        models = [builtin("pyramid-7.1"), builtin("pyramid-7.3"), *corpus(seed=501, count=10)]
        models += [delta_construct(HEXAGON).model, rp2_result.model]
        for model in models:
            tests = typology._membership_tests(model)
            for g, row in zip(model.fl.faces, model.face_table):
                got = typology._class_patterns(model, g, row, tests)
                # the same patterns, in the same order, with the same first
                # representatives
                assert list(got.items()) == list(class_patterns_by_walk(model, g, row).items())

    def test_rp2_membership_tests(self, rp2_result, count_calls, monkeypatch):
        # at most the 3674 tests the three skips leave of the full walk's
        # 136041 (29133 without the up-cover skip), none of them on the
        # class 0 or at a trivial quotient
        model = rp2_result.model
        table = model.face_table
        trivial = {model.lambdas[i] for i, row in enumerate(table) if prod(row.factors) == 1}
        calls = count_calls(Lattice, "member")
        fibers = fiber_types(model)
        monkeypatch.undo()
        assert 0 < len(calls) <= 3674
        assert all(any(call["x"]) for call in calls)
        assert not any(call["self"] in trivial for call in calls)
        assert len(fibers) == 4412

    def test_rp2_shifts_and_profiles_only_nonzero_classes(self, rp2_result, count_calls):
        # the 2920 class-0 fibers, one per face, take the relint step as
        # their witness and the interval profile; the other 1492 are
        # shifted and profiled once each
        shifts = count_calls(typology, "_shift_into_relint")
        profiles = count_calls(typology, "filter_profile")
        fibers = fiber_types(rp2_result.model)
        nonzero = [t for t in fibers if t.base_face not in t.filter_ids]
        assert len(fibers) - len(nonzero) == len(rp2_result.model.fl.faces) == 2920
        assert len(shifts) == len(profiles) == len(nonzero) == 1492
        assert [call["face_ids"] for call in profiles] == [t.filter_ids for t in nonzero]
        assert [call["g"].index for call in shifts] == [t.base_face for t in nonzero]


def fibers_the_long_way(model, primes):
    """The fibers built without a shortcut: every class tested against every
    face above its base face (class_patterns_by_walk), its witness walked
    into relint(g) one relint step at a time (shift_by_steps), and every
    filter, intervals included, profiled from its complex."""
    fl = model.fl
    out = []
    for g, row in zip(fl.faces, model.face_table):
        step = relint_step(model, g)
        seen = class_patterns_by_walk(model, g, row)
        for pattern, x in sorted(seen.items(), key=lambda kv: sorted(kv[0])):
            witness, _ = shift_by_steps(model, g, x, step)
            profile = profile_of_complex(cochain_complex(fl, pattern), primes)
            out.append(CohomologyType(g.index, pattern, witness, profile))
    return out


class TestFibersTheLongWay:
    def test_every_fiber_equals_the_long_way(self, rp2_result):
        models = [builtin("pyramid-7.1"), builtin("pyramid-7.3"), *corpus(seed=501, count=30)]
        models += [delta_construct(HEXAGON).model, rp2_result.model]
        class_0 = 0
        for model in models:
            got = fiber_types(model, primes=(2, 3))
            assert got == fibers_the_long_way(model, (2, 3))
            class_0 += sum(t.base_face in t.filter_ids for t in got)
        assert class_0 > 3000


def recursive_up_sets(fl, g, cap):
    """The up-set walk as a depth-first recursion: exclude a face, then
    include it when all its covers are in; TooLarge once more than cap
    sets, the empty one included, are out and a further set is due."""
    above = sorted(fl.faces_above(g), key=lambda f: (-f.dim, f.index))
    out = []

    def walk(pos, current):
        if len(out) > cap:
            raise TooLarge("cap")
        if pos == len(above):
            out.append(frozenset(current))
            return
        f = above[pos]
        walk(pos + 1, current)
        if all(u in current for u in fl.up_covers[f.index]):
            walk(pos + 1, current | {f.index})

    walk(0, frozenset())
    return [s for s in out if fl.top.index in s]


class TestUpSetWalk:
    def test_same_sets_and_cap_as_the_recursion(self, model_71, model_73):
        for model in corpus(seed=501, count=10) + [model_71, model_73]:
            fl = model.fl
            for g in fl.faces:
                want = recursive_up_sets(fl, g, 10**6)
                assert up_sets_of_interval(fl, g, 10**6) == want
                n = len(want)
                assert up_sets_of_interval(fl, g, n) == want
                with pytest.raises(TooLarge):
                    recursive_up_sets(fl, g, n - 1)
                with pytest.raises(TooLarge):
                    up_sets_of_interval(fl, g, n - 1)

    def test_large_interval_hits_the_cap(self):
        # the apex of the 11-dimensional orthant has 2048 faces above it,
        # more than the recursion limit; a 2-face has 512
        fl = face_lattice(dual_description(identity(11), 11))
        apex = fl.faces[0]
        two_face = next(f for f in fl.faces if f.dim == 2)
        assert apex.dim == 0 and len(fl.faces_above(apex)) == 2048
        for g in (apex, two_face):
            with pytest.raises(TooLarge, match="more than 5000 filters"):
                up_sets_of_interval(fl, g, 5000)


class TestShiftIntoRelint:
    """_shift_into_relint's closed form against the walk it replaces, one
    step at a time, on every class representative of the seed-501 corpus
    and RP², also moved 1 and 7 steps back out of relint(g)."""

    def test_closed_form_equals_the_step_walk(self, rp2_result):
        steps = []
        for model in [*corpus(seed=501, count=30), rp2_result.model]:
            tests = typology._membership_tests(model)
            for g, row in zip(model.fl.faces, model.face_table):
                step = relint_step(model, g)
                for x in typology._class_patterns(model, g, row, tests).values():
                    for back in (0, 1, 7):
                        y = vsub(x, vscale(back, step))
                        want, n = shift_by_steps(model, g, y, step)
                        assert typology._shift_into_relint(model, g, y, step) == want
                        steps.append(n)
        # no shift, short ones and ones past the 7 steps moved back out
        assert len(steps) > 10000 and min(map(steps.count, (0, 1, 2, 8))) > 100
