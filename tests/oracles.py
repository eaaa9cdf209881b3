"""Reference algorithms that the library's shortcuts are checked against.

Each oracle computes its answer the long way, from the lattice kernels of
exactlin alone: it imports no path of the library that it checks (the guard
is tests/test_oracles.py).
"""

from dataclasses import dataclass
from itertools import product

from monoidring.errors import NotSublattice, TooLarge
from monoidring.exactlin import (
    Lattice,
    dot,
    lattice_intersect,
    mat,
    quotient_decomposition,
    snf,
    vadd,
    vec_mat,
    vscale,
)


@dataclass(frozen=True)
class AbelianQuotient:
    """Structure of a quotient A/B: free rank plus invariant factor chain."""

    free_rank: int
    invariant_factors: tuple[int, ...]


def quotient_structure(a: Lattice, b: Lattice) -> AbelianQuotient:
    """Structure of a/b for b a sublattice of a, by one Smith form of the
    coordinates of b's basis in a's; factors of 1 dropped."""
    coords = [a.coords(row) for row in b.basis]
    if None in coords:
        raise NotSublattice("second lattice is not contained in the first")
    s, _, _ = snf(mat(coords))
    factors = tuple(s[i][i] for i in range(min(len(s), len(s[0]) if s else 0)) if s[i][i] > 1)
    return AbelianQuotient(a.rank - b.rank, factors)


def relint_step(model, f):
    """The ray sum of f times the exponent of (span f ∩ Z^m) / lambda_f,
    read off the last invariant factor of a Smith form."""
    rays = model.fl.cone.extreme_rays
    total = (0,) * model.fl.cone.ambient_dim
    for i in f.ray_set:
        total = vadd(total, rays[i])
    q = quotient_structure(f.span_lattice, model.lattice_of(f))
    return vscale(q.invariant_factors[-1] if q.invariant_factors else 1, total)


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


def top_support_member(model, a) -> bool:
    """Whether a supports nonzero top cohomology: a in cn ∩ reference but in
    no facet lattice."""
    a = tuple(a)
    if not model.cone.contains(a) or not model.reference.member(a):
        return False
    return not any(model.lambdas[i].member(a) for i in model.fl.facet_indices())
