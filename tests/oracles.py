"""Reference algorithms that the library's shortcuts are checked against.

Each oracle computes its answer the long way, from the lattice kernels of
exactlin alone: it imports no path of the library that it checks (the guard
is tests/test_oracles.py).
"""

from dataclasses import dataclass
from functools import cache
from itertools import product
from math import lcm

from monoidring.errors import NotSublattice, TooLarge
from monoidring.exactlin import (
    Lattice,
    Mat,
    dot,
    hnf,
    lattice_from_rows,
    lattice_intersect,
    mat,
    mat_mul,
    quotient_decomposition,
    snf,
    solve_rational,
    vadd,
    vec_mat,
    vscale,
    vsub,
)


@dataclass(frozen=True)
class AbelianQuotient:
    """Structure of a quotient A/B: free rank plus invariant factor chain."""

    free_rank: int
    invariant_factors: tuple[int, ...]


def left_kernel(matrix, nrows: int) -> Mat:
    """Basis (rows) of {x : x @ matrix == 0} for a matrix with nrows rows:
    the rows of the HNF transform u whose row of u @ matrix is zero."""
    if nrows == 0:
        return ()
    h, u = hnf(matrix)
    return tuple(u[i] for i in range(nrows) if not any(h[i]))


def intersect_by_kernel(a: Lattice, b: Lattice) -> Lattice:
    """a ∩ b by the left kernel of the stacked bases: a kernel row (x, y)
    has x @ a.basis = -y @ b.basis, so x @ a.basis spans a ∩ b, which a
    second elimination brings to its canonical basis."""
    if a.rank == 0 or b.rank == 0:
        return Lattice(a.ambient_dim, ())
    stacked = a.basis + b.basis
    kernel = left_kernel(stacked, len(stacked))
    return lattice_from_rows(a.ambient_dim, [vec_mat(z[: a.rank], a.basis) for z in kernel])


def quotient_structure(a: Lattice, b: Lattice) -> AbelianQuotient:
    """Structure of a/b for b a sublattice of a, by one Smith form of the
    coordinates of b's basis in a's; factors of 1 dropped."""
    coords = [a.coords(row) for row in b.basis]
    if None in coords:
        raise NotSublattice("second lattice is not contained in the first")
    d, _ = snf(mat(coords))
    factors = tuple(x for x in d if x > 1)
    return AbelianQuotient(a.rank - b.rank, factors)


def smith_decomposition(a: Lattice, b: Lattice) -> tuple[tuple[int, ...], Mat]:
    """The aligned decomposition of a/b by the Smith form alone: snf of the
    coordinates of b's basis in a's, and its w times a's basis."""
    if a.rank == 0:
        return (), ()
    coords = [a.coords(row) for row in b.basis]
    if None in coords:
        raise NotSublattice("second lattice is not contained in the first")
    d, w = snf(coords)
    return d, mat_mul(w, a.basis)


def relint_step(model, f):
    """The ray sum of f times the exponent of (span f ∩ Z^m) / lambda_f,
    read off the last invariant factor of a Smith form."""
    rays = model.fl.cone.extreme_rays
    total = (0,) * model.fl.cone.ambient_dim
    for i in f.ray_set:
        total = vadd(total, rays[i])
    q = quotient_structure(f.span_lattice, model.lattice_of(f))
    return vscale(q.invariant_factors[-1] if q.invariant_factors else 1, total)


def shift_by_steps(model, g, x, step):
    """Add step to x until x lies in relint(g): every support form off the
    zero set of g positive."""
    forms = model.cone.support_forms
    outside = [forms[i] for i in range(len(forms)) if i not in g.zero_set]
    steps = 0
    while any(dot(form, x) <= 0 for form in outside):
        x = vadd(x, step)
        steps += 1
    return x, steps


def model_face_is_normal(model, f) -> bool:
    """Whether the face-restricted model is normal: every subface lattice is
    the face lattice cut to the subface span."""
    lam_f = model.lattice_of(f)
    for g in model.fl.faces:
        if g.ray_set <= f.ray_set:
            if model.lattice_of(g) != lattice_intersect(lam_f, g.span_lattice):
                return False
    return True


def realizable_by_intersections(model, g, filter_ids):
    """Realizability of an up-closed filter above g by intersections: the
    classes of A_S / C', for A_S = span g ∩ ⋂_{F in S} lambda_F and C' its
    cut by every excluded face lattice, are covered by the excluded-face
    subgroups exactly when no degree in relint(g) has the filter.  Returns
    the verdict and a witness moved into relint(g) by relint steps."""
    fl = model.fl
    above = fl.faces_above(g)
    a_s = g.span_lattice
    for i in filter_ids:
        a_s = lattice_intersect(a_s, model.lambdas[i])
    excluded = [f.index for f in above if f.index not in filter_ids]
    b_lat = {i: lattice_intersect(a_s, model.lambdas[i]) for i in excluded}
    c_prime = a_s
    for i in excluded:
        c_prime = lattice_intersect(c_prime, b_lat[i])
    factors, basis = quotient_decomposition(a_s, c_prime)
    forms = fl.cone.support_forms
    outside = [forms[i] for i in range(len(forms)) if i not in g.zero_set]
    for coords in product(*(range(f) for f in factors)):
        x = vec_mat(coords, basis) if basis else (0,) * fl.cone.ambient_dim
        if not any(b_lat[i].member(x) for i in excluded):
            step = relint_step(model, g)
            while any(dot(form, x) <= 0 for form in outside):
                x = vadd(x, step)
            return True, x
    return False, None


def class_patterns_by_walk(model, g, row):
    """The membership pattern of every class of A_g / lambda_g, each with its
    first representative, for row g's face table row: every class, the
    class 0 included, tested by Lattice.member against the lattice of every
    face above g."""
    fl = model.fl
    members = [(f.index, model.lambdas[f.index].member) for f in fl.faces_above(g)]
    seen = {}
    for coords in product(*(range(c) for c in row.factors)):
        x = vec_mat(coords, row.basis) if row.basis else (0,) * fl.cone.ambient_dim
        seen.setdefault(frozenset(i for i, member in members if member(x)), x)
    return seen


def up_sets_of_interval(fl, g, cap):
    """All up-closed subsets of the interval above g that contain the top.

    The sets grow top-down along a linear extension of the interval, in a
    loop: each set is kept, followed by itself with the next face when all
    of that face's covers are in it.  Every cover of a face above g is
    above g, and the top has no covers.  No set is ever dropped, so the
    walk stops as soon as the count passes the cap.  The only up-closed set
    without the top is the empty one; it stays first and is not counted.
    """
    above = sorted(fl.faces_above(g), key=lambda f: (-f.dim, f.index))
    out = [frozenset()]
    for f in above:
        covers = fl.up_covers[f.index]
        out = [t for s in out for t in ((s, s | {f.index}) if s.issuperset(covers) else (s,))]
        if len(out) - 1 > cap:
            raise TooLarge(f"face {sorted(g.ray_set)}: more than {cap} filters; raise the cap")
    return out[1:]


@cache
def faces_above_by_rays(fl) -> tuple[frozenset[int], ...]:
    """For each face, by index, the faces whose ray set contains its ray
    set: the faces containing every ray of it, all faces for the apex."""
    with_ray: dict[int, set[int]] = {}
    for f in fl.faces:
        for r in f.ray_set:
            with_ray.setdefault(r, set()).add(f.index)
    everything = frozenset(range(len(fl.faces)))
    return tuple(everything.intersection(*(with_ray[r] for r in f.ray_set)) for f in fl.faces)


def up_closed_by_rays(fl, face_ids, top=None) -> bool:
    """Whether a face set is an up-closed set of the interval of faces below
    top (default: the whole cone), by ray-set containment alone: every
    member lies below top, and every face between a member and top is a
    member.  A face above a member but not in the set must leave the
    interval."""
    top_rays = (fl.top if top is None else top).ray_set
    above = faces_above_by_rays(fl)
    return all(
        fl.faces[i].ray_set <= top_rays
        and not any(fl.faces[j].ray_set <= top_rays for j in above[i] - face_ids)
        for i in face_ids
    )


def top_support_member(model, a) -> bool:
    """Whether a supports nonzero top cohomology: a in cn ∩ reference but in
    no facet lattice."""
    a = tuple(a)
    if not model.cone.contains(a) or not model.reference.member(a):
        return False
    return not any(model.lambdas[i].member(a) for i in model.fl.facet_indices())


def member_by_sums(m, x) -> bool:
    """Whether x is a sum of generators of the monoid m, by listing the sums
    level by level up to deg x: the sums of degree d are the sums g + s over
    the generators g of degree e <= d and the sums s of degree d - e.  The
    grading is positive on every generator, so each level is finite."""
    x = tuple(x)
    level = [{(0,) * len(x)}]
    gens = [(g, dot(m.grading, g)) for g in m.generators]
    for d in range(1, dot(m.grading, x) + 1):
        level.append({vadd(g, s) for g, e in gens if e <= d for s in level[d - e]})
    return x in level[-1]  # for deg x < 0 the last level is {0}, without x


def hilbert_basis_by_box(cone, lat) -> Mat:
    """The Hilbert basis of cone ∩ lat, for lat of full rank in the span of
    the cone, as the irreducible points of the bounding box of the zonotope
    spanned by the least multiples of the extreme rays in lat.

    The coordinates of each ray in lat are Fractions (solve_rational), and
    its least multiple in lat is the lcm of their denominators times the
    ray.  Every point is tested in Z^m against the support forms, whose sum
    is a grading positive on the cone outside the apex.  The Hilbert basis
    lies in the zonotope (Bruns–Gubeladze, Polytopes, Rings, and K-Theory,
    ch. 2), so a point x of the box is reducible exactly when x - y lies in
    the cone for a point y of the box of smaller degree: for x = h + z with
    h in the Hilbert basis and z nonzero, y = h is one.
    """
    forms = cone.support_forms
    multiples = []
    for ray in cone.extreme_rays:
        coords = solve_rational(lat.basis, ray)
        multiples.append([lcm(*(c.denominator for c in coords)) * c for c in coords])
    box = [
        range(int(sum(min(0, v[i]) for v in multiples)), int(sum(max(0, v[i]) for v in multiples)) + 1)
        for i in range(lat.rank)
    ]
    points = []
    for coords in product(*box):
        x = vec_mat(coords, lat.basis)
        values = [dot(a, x) for a in forms]
        if all(v >= 0 for v in values) and sum(values) > 0:
            points.append((sum(values), x))
    points.sort()
    return mat(
        sorted(
            x
            for d, x in points
            if not any(e < d and all(dot(a, vsub(x, y)) >= 0 for a in forms) for e, y in points)
        )
    )
