"""Seeded input generators for the benchmark.

Everything here is derived from a ``random.Random`` that the caller seeds
from the workload seed and the round index, so the same seed always gives
the same inputs.  The generators are the benchmark's own: they do not
import from the repository's test suite.

Inputs come in three kinds:

* simplicial complexes (facet lists with seeded vertex labels);
* decorated cones, written as model-file text;
* generator sets, written as monoid-file text.
"""

import itertools
import math

import monoidring as mr

# Shapes of small complexes on vertex positions 0..n-1.  A seeded
# relabelling gives each round fresh inputs of the same combinatorial type.
SHAPES = {
    "triangle-boundary": [(0, 1), (1, 2), (0, 2)],
    "two-triangles": [(0, 1, 2), (1, 2, 3)],
    "tetrahedron-boundary": [(0, 1, 2), (0, 1, 3), (0, 2, 3), (1, 2, 3)],
    "cycle4": [(0, 1), (1, 2), (2, 3), (3, 0)],
    "path4": [(0, 1), (1, 2), (2, 3)],
    "star3": [(0, 1), (0, 2), (0, 3)],
    "triangle+point": [(0, 1, 2), (3,)],
    "triangle+tail": [(0, 1, 2), (2, 3)],
    "triangle-boundary+point": [(0, 1), (1, 2), (0, 2), (3,)],
}


def relabel(rng, facets):
    """The complex with its vertices renamed by distinct random labels in
    1..99; the label order decides the construction's vertex positions."""
    verts = sorted({v for f in facets for v in f})
    labels = rng.sample(range(1, 100), len(verts))
    name = dict(zip(verts, labels))
    return [tuple(sorted(name[v] for v in f)) for f in facets]


def random_complex(rng, n=4):
    """A random complex on n vertices: each edge with probability 1/2, each
    triangle whose edges are present with probability 1/2, and every vertex
    that lies on no chosen face as an isolated point."""
    edges = [e for e in itertools.combinations(range(n), 2) if rng.random() < 0.5]
    edge_set = set(edges)
    triangles = [
        t for t in itertools.combinations(range(n), 3)
        if all(e in edge_set for e in itertools.combinations(t, 2)) and rng.random() < 0.5
    ]
    facets = list(triangles) + edges
    used = {v for f in facets for v in f}
    facets += [(v,) for v in range(n) if v not in used]
    return facets


# --- integer matrices -------------------------------------------------------

def random_unimodular(rng, m, steps=None):
    """A random matrix in GL_m(Z): a signed permutation followed by
    ``steps`` (default 2m) elementary row operations with multipliers +-1."""
    perm = list(range(m))
    rng.shuffle(perm)
    u = [[0] * m for _ in range(m)]
    for i, j in enumerate(perm):
        u[i][j] = rng.choice((-1, 1))
    for _ in range(steps if steps is not None else 2 * m):
        i, j = rng.sample(range(m), 2)
        c = rng.choice((-1, 1))
        u[i] = [a + c * b for a, b in zip(u[i], u[j])]
    return u


def apply(u, x):
    return tuple(sum(a * b for a, b in zip(row, x)) for row in u)


# --- model files ------------------------------------------------------------

def model_text(rays, reference, facet_blocks, comment=None):
    """Model-file text.  ``facet_blocks`` maps a facet's ray set (indices
    into ``rays``, which must already be in sorted order) to basis rows."""
    out = [f"# {comment}"] if comment else []
    out.append(f"model {len(rays[0])}")
    out.append("generators")
    out += [" ".join(map(str, r)) for r in rays]
    if reference is not None:
        out.append("lattice *")
        out += [" ".join(map(str, r)) for r in reference]
    for key in sorted(facet_blocks):
        out.append("lattice " + " ".join(map(str, key)))
        out += [" ".join(map(str, r)) for r in facet_blocks[key]]
    return "\n".join(out) + "\n"


def describe_model(model):
    """(rays, reference rows, {facet ray set: rows}) of a decorated cone,
    read from the same public attributes the model-file writer uses."""
    fl = model.fl
    rays = [tuple(r) for r in model.cone.extreme_rays]
    reference = [tuple(r) for r in model.reference.basis]
    blocks = {}
    for i in fl.facet_indices():
        f = fl.faces[i]
        blocks[tuple(sorted(f.ray_set))] = [tuple(r) for r in model.lattice_of(f).basis]
    return rays, reference, blocks


def transformed_model_text(rng, description, comment=None, steps=None):
    """The model moved by a random unimodular change of coordinates (see
    ``random_unimodular`` for ``steps``).  Every lattice-side invariant
    (depth, Cohen-Macaulayness, torsion, F-bad primes, normality, S2) is
    unchanged; only the coordinates differ."""
    rays, reference, blocks = description
    u = random_unimodular(rng, len(rays[0]), steps)
    moved = [apply(u, r) for r in rays]
    order = sorted(range(len(moved)), key=lambda i: moved[i])
    new_index = {old: new for new, old in enumerate(order)}
    new_blocks = {
        tuple(sorted(new_index[i] for i in key)): [apply(u, r) for r in rows]
        for key, rows in blocks.items()
    }
    return model_text(
        [moved[i] for i in order], [apply(u, r) for r in reference], new_blocks, comment
    )


def random_cone_points(rng, rank, n_extra=3):
    """Points of height one spanning a full-dimensional cone: the standard
    simplex plus ``n_extra`` random points in the box [-2, 2]^(rank-1)."""
    pts = {tuple(rng.randint(-2, 2) for _ in range(rank - 1)) + (1,) for _ in range(n_extra)}
    pts |= {tuple(int(i == j) for i in range(rank - 1)) + (1,) for j in range(rank - 1)}
    pts.add((0,) * (rank - 1) + (1,))
    return sorted(pts)


def random_model_text(rng, rank, faces, candidates=4):
    """A random decorated cone of the given rank: of ``candidates`` random
    cones, the first whose face count is nearest to ``faces`` (a fixed
    number of draws keeps set-up time steady, and the target face count
    keeps the cost of equal-rank models close).  Every facet keeps a random
    sublattice of index 1..3 of its saturated span (one basis row
    of a randomly mixed span basis is scaled), and lower faces take the
    file format's default (the intersection of the facets above them)."""
    lattices = [mr.face_lattice(mr.dual_description(random_cone_points(rng, rank), rank))
                for _ in range(candidates)]
    fl = min(lattices, key=lambda lat: abs(len(lat.faces) - faces))
    cone = fl.cone
    blocks = {}
    for i in fl.facet_indices():
        f = fl.faces[i]
        basis = [tuple(r) for r in f.span_lattice.basis]
        k = len(basis)
        u = random_unimodular(rng, k)
        rows = [
            tuple(sum(u[a][b] * basis[b][c] for b in range(k)) for c in range(rank))
            for a in range(k)
        ]
        index = rng.randint(1, 3)
        j = rng.randrange(k)
        rows[j] = tuple(index * c for c in rows[j])
        blocks[tuple(sorted(f.ray_set))] = rows
    return model_text([tuple(r) for r in cone.extreme_rays], None, blocks)


# --- generator sets ---------------------------------------------------------

def monoid_text(gens):
    return f"monoid {len(gens[0])}\n" + "".join(" ".join(map(str, g)) + "\n" for g in gens)


def numerical_semigroup(rng, lo=5, hi=25):
    """3 to 5 generators in [lo, hi] with gcd 1."""
    while True:
        gens = sorted(rng.sample(range(lo, hi + 1), rng.randint(3, 5)))
        if math.gcd(*gens) == 1:
            return [(g,) for g in gens]


def random_generators(rng, rank, count, height):
    """``count`` distinct points (x, d) with d in 1..height and the first
    coordinates in [0, d]: the cone lies over a dilated simplex, so the
    last coordinate is a positive grading.  Redrawn until full rank."""
    while True:
        gens = set()
        while len(gens) < count:
            d = rng.randint(1, height)
            gens.add(tuple(rng.randint(0, d) for _ in range(rank - 1)) + (d,))
        gens = sorted(gens)
        if mr.exactlin.rank(gens) == rank:
            return gens
