"""Acceptance suite: one test per shipped criterion, one pass/fail line each.

Every expected value is exact; the stated runtime budgets are generous on
commodity hardware.  Criterion 2 backs its depth value with the
generator-level Ishida oracle of ``ishida.py``, run outside its time budget.
"""

import itertools
import random
import time
from fractions import Fraction

import pytest

from monoidring.cohomology import (
    cochain_complex,
    filter_at,
    local_cohomology_at,
)
from monoidring.constructions import (
    RP2_SIX_VERTEX,
    SimplicialComplex,
    builtin,
    delta_construct,
    simplicial_homology,
    verify_eq_homology,
)
from monoidring.criteria import depth_bounds_multi, f_bad_primes, s2_lattice_test
from monoidring.exactlin import (
    dot,
    hnf,
    identity,
    lattice_from_rows,
    lattice_intersect,
    mat,
    mat_mul,
    det,
    quotient_decomposition,
    snf,
    solve_rational,
    vadd,
    vec_mat,
    vscale,
)
from monoidring.monoid import hilbert_basis, model_member, restrict_model
from monoidring.polyhedral import dual_description, minimal_face
from monoidring.typology import depth_report, fiber_types

from conftest import (
    PYRAMID_FACETS,
    corpus,
    PYRAMID_VERTICES,
    facet_by_label,
    model_points_up_to_height,
    snf_contract_failures,
)
from ishida import IshidaOracle, in_cone
from oracles import up_sets_of_interval

FIELDS = (None, 2, 3)


def record(number: int, ok: bool, detail: str = "") -> None:
    status = "PASS" if ok else "FAIL"
    suffix = f"  ({detail})" if detail else ""
    print(f"\nACCEPTANCE {number}: {status}{suffix}")


@pytest.fixture(scope="module")
def two_points_result():
    return delta_construct(SimplicialComplex.from_facets([(1,), (2,)]))


def test_acceptance_1_pyramid_model(model_71):
    start = time.time()
    ok = True
    details = []

    s2, _ = s2_lattice_test(model_71)
    ok &= s2

    fl = model_71.fl
    expected_filter = frozenset(
        {
            facet_by_label(fl, "F2").index,
            facet_by_label(fl, "F4").index,
            fl.top.index,
        }
    )
    for k in (1, 3, 5):
        a = vscale(k, (0, 0, 1, 1))
        ok &= filter_at(model_71, a) == expected_filter
        profile = local_cohomology_at(model_71, a, primes=(2, 3))
        for p in FIELDS:
            dims = profile.dims(p)
            ok &= dims[3] == 1 and sum(dims) == 1

    rep = depth_report(model_71, primes=(2, 3))
    ok &= rep.depth_q == 3 and rep.depth_by_prime == {2: 3, 3: 3}
    ok &= not rep.cm_q and rep.cm_fail_primes == frozenset({2, 3})
    elapsed = time.time() - start
    ok &= elapsed < 10
    record(1, ok, f"{elapsed:.1f}s")
    assert ok


def test_acceptance_2_pyramid_variant_and_facet(model_73):
    """pyramid-7.3 is Cohen-Macaulay and (S2); its restriction W to the facet
    F3 fails (S2) and has depth 2 over Q, F_2 and F_3.

    W represents M, the lattice points of the cone over m0, m3, m4 without
    the odd multiples of m0.  With N the normalization and t = x^m0,

        0 -> K[M] -> K[N] -> t K[t^2] -> 0

    is exact.  K[N] is Cohen-Macaulay of dimension 3 (Hochster) and t K[t^2]
    is free over K[t^2], of depth 1.  So H^1_m(K[M]) = H^0_m(t K[t^2]) = 0
    and H^2_m(K[M]) = H^1_m(t K[t^2]) is nonzero, in the degrees -m0, -3m0,
    ...: the depth is 2, as the bound depth >= min(n + 1, rank) = 2 of
    seminormal models requires.  (S2) fails at the height-2 prime of the ray
    m0, where the localization has depth 1, not at the maximal ideal.

    The Ishida oracle computes the same cohomology from the generators of M
    (its points up to height 4, which include its Hilbert basis) on the box
    x1, x2, x3 in [-3, 3] of gp(M) = {x4 = x1 + x3}.  It must find H^0 and
    H^1 zero there, H^2 exactly at -m0 and -3m0, the values of
    local_cohomology_at(W, -a) wherever -a lies in the cone and zero
    elsewhere; and its monoid must hold exactly model_73's points of the box.
    """
    start = time.time()
    s2, _ = s2_lattice_test(model_73)
    rep = depth_report(model_73, primes=(2, 3))
    cm = rep.cm_q and not rep.cm_fail_primes

    f3 = facet_by_label(model_73.fl, "F3")
    sub = restrict_model(model_73, f3)
    sub_s2, _ = s2_lattice_test(sub)
    sub_rep = depth_report(sub, primes=(2, 3))
    elapsed = time.time() - start

    base_ok = cm and s2 and not sub_s2 and elapsed < 30
    depth_ok = sub_rep.depth_q == 2 and sub_rep.depth_by_prime == {2: 2, 3: 2}

    rays = [PYRAMID_VERTICES[v] for v in PYRAMID_FACETS["F3"]]
    gens = [x for x in model_points_up_to_height(model_73, 4) if in_cone(rays, x)]
    oracle = IshidaOracle(rays, gens)
    low, h2 = set(), set()
    compared = mismatches = 0
    for x1, x2, x3 in itertools.product(range(-3, 4), repeat=3):
        a = (x1, x2, x3, x1 + x3)
        if in_cone(rays, a):
            mismatches += oracle.member(a) != model_member(model_73, a)
        minus_a = vscale(-1, a)
        lib = None
        if in_cone(rays, minus_a):
            lib = local_cohomology_at(sub, minus_a, primes=(2, 3))
            compared += 1
        for p in FIELDS:
            dims = oracle.dims(a, p)
            if dims[0] or dims[1]:
                low.add(a)
            if dims[2]:
                h2.add(a)
            mismatches += dims != (lib.dims(p) if lib else (0,) * 4)
    oracle_ok = not low and h2 == {(0, 0, -1, -1), (0, 0, -3, -3)}
    oracle_ok &= compared == 64 and mismatches == 0

    record(
        2,
        base_ok and depth_ok and oracle_ok,
        f"model CM={cm} S2={s2}, restriction S2={sub_s2} depth={sub_rep.depth_q} "
        f"{sub_rep.depth_by_prime}, oracle H2 at {sorted(h2)}, "
        f"{compared} degrees compared, {mismatches} mismatches, {elapsed:.1f}s",
    )
    assert base_ok
    assert depth_ok, f"restriction depth {sub_rep.depth_q} {sub_rep.depth_by_prime}, want 2"
    assert oracle_ok, (
        f"oracle: H0/H1 nonzero at {sorted(low)}, H2 at {sorted(h2)}, "
        f"{compared} compared, {mismatches} mismatches"
    )


def test_acceptance_3_homology_oracle(rp2_result, two_points_result):
    start = time.time()
    ok = True
    cases = [
        (SimplicialComplex.from_facets([(1, 2), (2, 3), (3, 4)]), None),
        (SimplicialComplex.from_facets([(1, 2), (2, 3), (3, 4), (4, 5), (5, 6), (6, 1)]), None),
        (RP2_SIX_VERTEX, rp2_result),
    ]
    for delta, prebuilt in cases:
        result = prebuilt if prebuilt is not None else delta_construct(delta)
        for p in FIELDS:
            ok &= verify_eq_homology(result, delta, p)
    elapsed = time.time() - start
    ok &= elapsed < 300
    record(3, ok, f"{elapsed:.1f}s")
    assert ok


def test_acceptance_4_rp2_field_dependence(rp2_result):
    model = rp2_result.model
    profile = local_cohomology_at(model, rp2_result.distinguished_degree, primes=(2, 3))
    ok = profile.torsion_primes == frozenset({2})
    rep = depth_report(model, primes=(2, 3))
    ok &= rep.cm(None) and rep.cm(3) and not rep.cm(2)
    record(4, ok, f"depths q={rep.depth_q} p2={rep.depth_by_prime[2]} p3={rep.depth_by_prime[3]}")
    assert ok


def test_acceptance_5_depth_bound_chain():
    models = corpus(seed=501, count=30)
    assert len(models) >= 30
    ok = True
    for model in models:
        bounds = depth_bounds_multi(model, depth_report(model, primes=(2, 3)))
        for p in FIELDS:
            ok &= bounds[p].chain_holds
    record(5, ok, f"{len(models)} models x 3 fields")
    assert ok


def test_acceptance_6_simple_cone_consequences():
    models = corpus(seed=601, count=20, ranks=(2, 3))
    ok = True
    for model in models:
        rep = depth_report(model, primes=(2, 3))
        if model.rank <= 3 and s2_lattice_test(model)[0]:
            ok &= rep.depth_q == model.rank
            ok &= all(d == model.rank for d in rep.depth_by_prime.values())
        if model.rank >= 2:
            ok &= rep.depth_q >= 2
            ok &= all(d >= 2 for d in rep.depth_by_prime.values())
    record(6, ok, f"{len(models)} models")
    assert ok


def test_acceptance_7_normal_models():
    models = corpus(seed=701, count=20, max_index=1)
    ok = True
    for model in models:
        rep = depth_report(model, primes=(2, 3))
        ok &= rep.depth_q == model.rank and not rep.cm_fail_primes
        ok &= f_bad_primes(model) == frozenset()
        for t in fiber_types(model, primes=(2, 3)):
            ok &= all(d == 0 for d in t.profile.dims_q[:-1])
            for p in (2, 3):
                ok &= all(d == 0 for d in t.profile.dims(p)[:-1])
    record(7, ok, f"{len(models)} normal models")
    assert ok


def test_acceptance_8_frobenius_primes_cross_check():
    # rank <= 3 models keep every face quotient of rank <= 2, so the
    # brute-force coset enumeration is available on all faces
    models = corpus(seed=801, count=12, ranks=(2, 3))
    ok = True
    for model in models:
        bad = f_bad_primes(model)
        for p in (2, 3, 5):
            witnessed = False
            for f in model.fl.faces:
                numerator = lattice_intersect(model.reference, f.span_lattice)
                lam = model.lattice_of(f)
                assert numerator.rank <= 2 or f.index == model.fl.top.index
                d, rows = quotient_decomposition(numerator, lam)
                for coords in itertools.product(*(range(x) for x in d)):
                    if all(c == 0 for c in coords):
                        continue
                    x = vec_mat(coords, rows)
                    if lam.member(vscale(p, x)) and not lam.member(x):
                        witnessed = True
                        break
                if witnessed:
                    break
            ok &= (p in bad) == witnessed
    record(8, ok, f"{len(models)} models x primes 2,3,5")
    assert ok


def test_acceptance_9_infrastructure():
    rng = random.Random(901)
    ok = True

    # differential squares to zero on every realizable filter complex
    for model in corpus(seed=902, count=4, ranks=(3, 4)):
        for t in fiber_types(model):
            c = cochain_complex(model.fl, t.filter_ids)
            for a, b in zip(c.matrices, c.matrices[1:]):
                if a and b and a[0] and b[0]:
                    prod = mat_mul(a, b)
                    ok &= all(all(x == 0 for x in row) for row in prod)

    # normal form round trips
    for _ in range(200):
        rows = rng.randint(1, 4)
        cols = rng.randint(1, 4)
        m = mat([[rng.randint(-9, 9) for _ in range(cols)] for _ in range(rows)])
        h, u = hnf(m)
        ok &= mat_mul(u, m) == h and abs(det(u)) == 1
        ok &= not snf_contract_failures(m, *snf(m))

    # membership against the independent rational-solve oracle
    for _ in range(1000):
        dim = rng.randint(1, 3)
        lat = lattice_from_rows(
            dim, [[rng.randint(-5, 5) for _ in range(dim)] for _ in range(rng.randint(1, 3))]
        )
        x = tuple(rng.randint(-5, 5) for _ in range(dim))
        sol = solve_rational(lat.basis, x)
        expected = sol is not None and all(c.denominator == 1 for c in sol)
        ok &= lat.member(x) == expected

    # hilbert bases: irreducibility and generation up to degree six
    from monoidring.polyhedral import grading_form

    for gens in [
        [(1, 0), (1, 2)],
        [(1, 0), (2, 3)],
        [(1, 0, 0), (0, 1, 0), (1, 1, 2)],
    ]:
        c = dual_description(gens)
        lat = c.span_lattice
        hb = hilbert_basis(c, lat)
        deg = grading_form(c)
        for i, hi in enumerate(hb):
            for j, hj in enumerate(hb):
                if i != j:
                    diff = tuple(a - b for a, b in zip(hi, hj))
                    ok &= not (
                        all(dot(f, diff) >= 0 for f in c.support_forms)
                        and lat.member(diff)
                    )
        reachable = {(0,) * c.ambient_dim}
        frontier = [(0,) * c.ambient_dim]
        while frontier:
            x = frontier.pop()
            for h in hb:
                y = vadd(x, h)
                if dot(deg, y) <= 6 and y not in reachable:
                    reachable.add(y)
                    frontier.append(y)
        span = 8
        for point in itertools.product(range(-span, span + 1), repeat=c.ambient_dim):
            if (
                all(dot(f, point) >= 0 for f in c.support_forms)
                and lat.member(point)
                and dot(deg, point) <= 6
            ):
                ok &= point in reachable
    record(9, ok)
    assert ok


def test_acceptance_10_fiber_partition(model_71, two_points_result):
    rng = random.Random(1001)
    ok = True
    for model in (model_71, two_points_result.model):
        # the fibers are distinct (base face, up-closed filter) pairs
        fl = model.fl
        pairs = {(g.index, s) for g in fl.faces for s in up_sets_of_interval(fl, g, 10**6)}
        keyed = {}
        for t in fiber_types(model):
            key = (t.base_face, t.filter_ids)
            ok &= key not in keyed and key in pairs
            keyed[key] = t
        # both models live at height one in the last coordinate; their degree
        # is that coordinate, and the degree <= 10 slice spans the integer
        # box of its (rational) vertices
        import math

        dim = model.cone.ambient_dim
        verts = [[Fraction(10 * c, r[-1]) for c in r] for r in model.cone.extreme_rays]
        lo = [min(0, *(math.floor(v[i]) for v in verts)) for i in range(dim)]
        hi = [max(0, *(math.ceil(v[i]) for v in verts)) for i in range(dim)]
        checked = 0
        attempts = 0
        while checked < 200 and attempts < 200000:
            attempts += 1
            x = tuple(rng.randint(lo[i], hi[i]) for i in range(dim))
            if x[-1] > 10 or not model.cone.contains(x):
                continue
            if not model.reference.member(x):
                continue
            g = minimal_face(model.fl, x)
            s = filter_at(model, x)
            t = keyed.get((g.index, s))
            ok &= t is not None
            if t is not None:
                ok &= t.profile.dims_q == local_cohomology_at(model, x).dims_q
            checked += 1
        ok &= checked == 200
    record(10, ok)
    assert ok
