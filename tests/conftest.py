"""Shared fixtures: the square-pyramid models, generator sets for them, a
seeded corpus of random decorated cones, the constructions of a few small
complexes and the six-vertex RP² model."""

import functools
import inspect
import itertools
import os
import random
import subprocess
import sys
from fractions import Fraction
from math import gcd
from pathlib import Path

import pytest

import monoidring
from monoidring.constructions import RP2_SIX_VERTEX, SimplicialComplex, delta_construct
from monoidring.exactlin import (
    dot,
    identity,
    invariant_factors,
    lattice_from_rows,
    lattice_intersect,
    prime_factors,
    rank,
    rank_mod,
    snf,
)
from monoidring.monoid import DecoratedCone, decorated_cone, model_member, monoid_new
from monoidring.polyhedral import dual_description, face_lattice


def run_python(*args, **kwargs) -> subprocess.CompletedProcess:
    """Run this interpreter on args with the package under test importable,
    installed or not, and capture its text output."""
    env = {**os.environ, "PYTHONPATH": str(Path(monoidring.__file__).resolve().parents[1])}
    return subprocess.run([sys.executable, *args], capture_output=True, text=True, env=env, **kwargs)


PYRAMID_VERTICES = {
    "m0": (0, 0, 1, 1),
    "m1": (-1, 1, 0, 1),
    "m2": (-1, -1, 0, 1),
    "m3": (1, -1, 0, 1),
    "m4": (1, 1, 0, 1),
}

PYRAMID_FACETS = {
    "F0": ("m1", "m2", "m3", "m4"),
    "F1": ("m0", "m1", "m2"),
    "F2": ("m0", "m2", "m3"),
    "F3": ("m0", "m3", "m4"),
    "F4": ("m0", "m1", "m4"),
}


ORACLE_COMPLEXES = {
    "tetrahedron boundary": [(1, 2, 3), (1, 2, 4), (1, 3, 4), (2, 3, 4)],
    "4-cycle": [(1, 2), (2, 3), (3, 4), (1, 4)],
    "triangle + point": [(1, 2, 3), (4,)],
    "path P4": [(1, 2), (2, 3), (3, 4)],
    "triangle boundary + point": [(1, 2), (2, 3), (1, 3), (4,)],
}


@functools.cache
def oracle_construction(name):
    """delta_construct of one of the ORACLE_COMPLEXES, built once."""
    return delta_construct(SimplicialComplex.from_facets(ORACLE_COMPLEXES[name]))


def even_degree_lattice(ambient_dim):
    """Integer vectors whose last coordinate is even."""
    rows = [list(r) for r in identity(ambient_dim)]
    rows[-1][-1] = 2
    return lattice_from_rows(ambient_dim, rows)


def facet_by_label(fl, label):
    rays = fl.cone.extreme_rays
    want = frozenset(rays.index(PYRAMID_VERTICES[v]) for v in PYRAMID_FACETS[label])
    for f in fl.faces:
        if f.dim == fl.top.dim - 1 and f.ray_set == want:
            return f
    raise AssertionError(f"facet {label} not found")


def decorate_by_facets(fl, facet_lattices, reference):
    """Decorate every face by span ∩ reference ∩ (facet lattices above it)."""
    lambdas = []
    for f in fl.faces:
        lam = lattice_intersect(f.span_lattice, reference)
        for i in f.zero_set:
            if i in facet_lattices:
                lam = lattice_intersect(lam, facet_lattices[i])
        lambdas.append(lam)
    return decorated_cone(fl, lambdas)


def pyramid_model(restricted=("F1", "F3")) -> DecoratedCone:
    """The square-pyramid model with even-degree lattices on chosen facets."""
    fl = face_lattice(dual_description(sorted(PYRAMID_VERTICES.values())))
    even = even_degree_lattice(4)
    facet_lattices = {}
    for label in restricted:
        f = facet_by_label(fl, label)
        form_idx = next(iter(f.zero_set))
        facet_lattices[form_idx] = even
    return decorate_by_facets(fl, facet_lattices, lattice_from_rows(4, identity(4)))


def model_points_up_to_height(model, height):
    """All model points with last coordinate in [1, height] (plus none at 0)."""
    pts = []
    for h in range(1, height + 1):
        for x1 in range(-h, h + 1):
            for x2 in range(-h, h + 1):
                for x3 in range(0, h + 1):
                    x = (x1, x2, x3, h)
                    if model.cone.contains(x) and model_member(model, x):
                        pts.append(x)
    return pts


def pyramid_monoid(restricted=("F1", "F3"), height=4):
    """A generator presentation of the pyramid monoid: all monoid points up
    to the given height generate everything needed at test scale."""
    return monoid_new(model_points_up_to_height(pyramid_model(restricted), height))


def random_parity_sublattice(rng, span_lat, index):
    """A random-index sublattice of span_lat, cut by a mod-index form."""
    if index == 1 or span_lat.rank == 0:
        return span_lat
    k = span_lat.rank
    while True:
        phi = [rng.randrange(index) for _ in range(k)]
        units = [i for i, c in enumerate(phi) if c % index and _coprime(c, index)]
        if units:
            break
    j0 = units[0]
    inv = pow(phi[j0], -1, index)
    rows = [[index if i == j0 else 0 for i in range(k)]]
    for i in range(k):
        if i == j0:
            continue
        row = [0] * k
        row[i] = 1
        row[j0] = -(phi[i] * inv) % index
        rows.append(row)
    coord_lat = lattice_from_rows(k, rows)
    ambient_rows = [span_lat.from_coords(c) for c in coord_lat.basis]
    return lattice_from_rows(span_lat.ambient_dim, ambient_rows)


def _coprime(a, b):
    import math

    return math.gcd(a, b) == 1


def random_decorated_model(rng, rank, max_index=3, n_extra=3):
    """A random decorated cone of the given rank with facet restrictions of
    index <= max_index, decorated by the facet-intersection rule."""
    while True:
        pts = {tuple(rng.randint(-2, 2) for _ in range(rank - 1)) + (1,) for _ in range(n_extra)}
        pts |= {
            tuple(1 if i == j else 0 for i in range(rank - 1)) + (1,) for j in range(rank - 1)
        }
        pts.add((0,) * (rank - 1) + (1,))
        gens = sorted(pts)
        cone = dual_description(gens, rank)
        if cone.dim == rank:
            break
    fl = face_lattice(cone)
    facet_lattices = {}
    for f in fl.faces:
        if f.dim != rank - 1:
            continue
        idx = rng.randint(1, max_index)
        form_idx = next(iter(f.zero_set))
        facet_lattices[form_idx] = random_parity_sublattice(rng, f.span_lattice, idx)
    return decorate_by_facets(fl, facet_lattices, lattice_from_rows(rank, identity(rank)))


def corpus(seed: int, count: int, ranks=(2, 3, 4), max_index=3):
    """A seeded list of random decorated cones of the given ranks."""
    rng = random.Random(seed)
    return [
        random_decorated_model(rng, rng.choice(ranks), max_index=max_index)
        for _ in range(count)
    ]


def dense_matrices(fl, ids):
    """The differentials of a filter complex, built entry by entry."""
    by_deg = [sorted(i for i in ids if fl.faces[i].dim == t) for t in range(fl.top.dim + 1)]
    return [
        tuple(tuple(fl.epsilon.get((g, f), 0) for f in by_deg[t + 1]) for g in by_deg[t])
        for t in range(fl.top.dim)
    ]


def resigned_epsilon(fl, seed):
    """A second incidence function on fl: epsilon times delta(G) delta(F) on
    each cover pair (G, F), for a seeded random sign delta per face."""
    rng = random.Random(seed)
    delta = [rng.choice((1, -1)) for _ in fl.faces]
    return {(g, f): s * delta[g] * delta[f] for (g, f), s in fl.epsilon.items()}


def assert_kernel_matches_dense_path(m):
    """The invariant-factor kernel against the dense rank, rank_mod and snf:
    Q rank, F_p ranks for p in 2, 3, 5, and the torsion primes."""
    factors = invariant_factors(m)
    assert len(factors) == rank(m)
    for p in (2, 3, 5):
        assert sum(1 for x in factors if x % p) == rank_mod(m, p)
    diag, _ = snf(m)
    dense_primes = set().union(*(prime_factors(x) for x in diag if x > 1))
    assert set().union(*(prime_factors(x) for x in factors if x > 1)) == dense_primes
    assert factors == tuple(x for x in diag if x)


def fraction_det(rows):
    """Determinant over Q by Gaussian elimination on Fractions."""
    a = [[Fraction(x) for x in r] for r in rows]
    n, d = len(a), Fraction(1)
    for k in range(n):
        piv = next((i for i in range(k, n) if a[i][k]), None)
        if piv is None:
            return Fraction(0)
        if piv != k:
            a[k], a[piv], d = a[piv], a[k], -d
        d *= a[k][k]
        for i in range(k + 1, n):
            f = a[i][k] / a[k][k]
            a[i] = [x - f * y for x, y in zip(a[i], a[k])]
    return d


def fraction_inverse(rows):
    """Inverse over Q of an invertible square matrix, by Gauss-Jordan
    elimination on Fractions."""
    n = len(rows)
    a = [[Fraction(x) for x in r] + [Fraction(0)] * n for r in rows]
    for i in range(n):
        a[i][n + i] = Fraction(1)
    for k in range(n):
        piv = next(i for i in range(k, n) if a[i][k])
        a[k], a[piv] = a[piv], a[k]
        a[k] = [x / a[k][k] for x in a[k]]
        for i in range(n):
            if i != k and a[i][k]:
                f = a[i][k]
                a[i] = [x - f * y for x, y in zip(a[i], a[k])]
    return [r[n:] for r in a]


def snf_contract_failures(matrix, d, w) -> list[str]:
    """The parts of the contract of exactlin.snf, u @ matrix == D @ w for
    some unimodular u and D diagonal with diagonal d, that (d, w) breaks,
    checked in Fraction arithmetic alone.  With X = matrix @ w^-1 = u^-1 @ D
    the contract holds exactly when: w is unimodular; X is integral; column
    j of X is d[j] times an integer column for d[j] != 0 and zero otherwise
    (also for j >= len(d)); those integer columns have maximal minors of
    gcd 1, so they extend to the unimodular u^-1; and d, of length
    min(rows, cols), is a divisibility chain of nonnegative entries with
    its zeros last."""
    cols = len(matrix[0]) if matrix else 0
    if len(w) != cols or any(len(r) != cols for r in w):
        return ["w is not cols x cols"]
    failures = []
    if len(d) != min(len(matrix), cols):
        failures.append("d has the wrong length")
    if any(a < 0 for a in d) or any(b % a if a else b for a, b in zip(d, d[1:])):
        failures.append("d is not a divisibility chain with its zeros last")
    if abs(fraction_det(w)) != 1:
        return failures + ["w is not unimodular"]
    w_inv = fraction_inverse(w)
    x = [[sum(a * b for a, b in zip(row, col)) for col in zip(*w_inv)] for row in matrix]
    if any(v.denominator != 1 for row in x for v in row):
        return failures + ["matrix @ w^-1 is not integral"]
    scaled = []
    for j, column in enumerate(zip(*x)):
        dj = d[j] if j < len(d) else 0
        if not dj:
            if any(column):
                failures.append(f"column {j} is not zero")
        elif any(v % dj for v in column):
            failures.append(f"column {j} is not divisible by {dj}")
        else:
            scaled.append([v / dj for v in column])
    minors = 0
    for pick in itertools.combinations(range(len(matrix)), len(scaled)):
        minors = gcd(minors, fraction_det([[c[i] for c in scaled] for i in pick]).numerator)
    if minors != 1:
        failures.append("the scaled columns do not extend to a unimodular matrix")
    return failures


def random_normal_model(rng, rank, n_extra=3):
    """Random cone with fully saturated lattices everywhere."""
    model = random_decorated_model(rng, rank, max_index=1, n_extra=n_extra)
    return model


@pytest.fixture(scope="session")
def model_71():
    return pyramid_model(("F1", "F3"))


@pytest.fixture(scope="session")
def model_73():
    return pyramid_model(("F1",))


@pytest.fixture(scope="session")
def monoid_71():
    return pyramid_monoid(("F1", "F3"))


@pytest.fixture(scope="session")
def rp2_result():
    return delta_construct(RP2_SIX_VERTEX)


@pytest.fixture
def count_calls(monkeypatch):
    """count_calls(owner, name) replaces the function or method owner.name
    by a wrapper that records each call and returns the list of records,
    which grows as calls come in.  A record maps every parameter name of
    the original to its value, defaults included (self for a method).  The
    test's monkeypatch undoes the wrapper."""

    def wrap(owner, name):
        calls = []
        original = getattr(owner, name)
        signature = inspect.signature(original)

        def counted(*args, **kwargs):
            bound = signature.bind(*args, **kwargs)
            bound.apply_defaults()
            calls.append(bound.arguments)
            return original(*args, **kwargs)

        monkeypatch.setattr(owner, name, counted)
        return calls

    return wrap
