"""Degree-free depth analysis: the finitely many filter types of a model.

Every admissible degree vector a determines the pair (G, S) of its minimal
face and its filter; there are finitely many such fibers.  For a base face
G the membership pattern of a point depends only on its class in the finite
quotient A*/lambda_G, where A* collects the reference-group points of the
span of G: the decoration is monotone, so lambda_G lies in every face
lattice above G and is the intersection of their traces on A*.  The
realizable fibers, one witness per fiber, and the cohomology profile of
every realizable filter together determine the depth over any field.  Only
a filter with two or more least faces needs a complex for its profile (see
cohomology.filter_profile).  fiber_types is the one class walk: a filter is
realizable above a base face exactly when it is one of its fibers, and
depth_report, the depth chain and analyze all read that enumeration.  The
walk tests a class against a face lattice only where the answer is not
known beforehand: the class 0 lies in every face lattice, and every class
lies in a lambda_F equal to its group A_F (see _class_patterns).
"""

from dataclasses import dataclass
from itertools import product
from math import prod

from .cohomology import CohomologyProfile, filter_profile
from .errors import TooLarge
from .exactlin import Vec, dot, vadd, vec_mat
from .monoid import DecoratedCone, FaceGroups, model_point_in_relint
from .polyhedral import Face


@dataclass(frozen=True)
class CohomologyType:
    """One fiber of the degree-to-filter map.

    base_face is the minimal face of the degrees in the fiber, filter_ids
    the common filter, witness one degree in the fiber and profile the
    cohomology of the filter.  Only fiber_types builds them, so every one is
    realizable.
    """

    base_face: int
    filter_ids: frozenset[int]
    witness: Vec
    profile: CohomologyProfile


def _shift_into_relint(model: DecoratedCone, g: Face, x: Vec, step: Vec) -> Vec:
    """Add step, a point of lambda_g in relint(g), to x until x lies in
    relint(g); the class modulo every face lattice above g is unchanged."""
    forms = model.cone.support_forms
    outside = [forms[i] for i in range(len(forms)) if i not in g.zero_set]
    y = x
    while any(dot(form, y) <= 0 for form in outside):
        y = vadd(y, step)
    return y


# Largest quotient A_g / lambda_g, in classes, that the class walk of a base
# face g takes (fiber_types); depth_report and analyze refuse a model with a
# larger one.
CLASS_CAP = 100000


def _class_patterns(model: DecoratedCone, g: Face, row: FaceGroups) -> dict[frozenset[int], Vec]:
    """The membership patterns of the classes of A_g / lambda_g, each with
    its first class representative, a point of A_g; row is g's face table
    row.  TooLarge past CLASS_CAP classes, before the walk starts.

    Only the memberships not known beforehand are tested:
    - the class 0 lies in every lambda_F, so its pattern is every face above
      g; its representative is the zero vector, the walk's first point;
    - a face F with lambda_F = A_F (a trivial quotient in the face table)
      holds every class: the representatives lie in A_g ⊆ A_F.  So F is in
      every pattern.
    """
    fl = model.fl
    n_classes = prod(row.factors)
    if n_classes > CLASS_CAP:
        raise TooLarge(f"face {sorted(g.ray_set)}: {n_classes} classes exceed the cap")
    above = fl.faces_above(g)
    table = model.face_table
    # None where lambda_F = A_F: every class lies in it
    members = [
        (f.index, None if prod(table[f.index].factors) == 1 else model.lattice_of(f).member)
        for f in above
    ]
    seen = {frozenset(f.index for f in above): (0,) * fl.cone.ambient_dim}
    classes = product(*(range(f) for f in row.factors))
    next(classes)  # the class 0
    for coords in classes:
        x = vec_mat(coords, row.basis)
        pattern = frozenset([i for i, member in members if member is None or member(x)])
        if pattern not in seen:
            seen[pattern] = x
    return seen


def fiber_types(model: DecoratedCone, primes=()) -> list[CohomologyType]:
    """All realizable fibers, with witnesses and profiles.

    For each base face g the finite quotient A*/lambda_g is enumerated
    through the aligned basis of the model's face table (A* is the table's
    group A_g); every class has a constant membership pattern, and a
    relative-interior representative of the class is a witness for it.
    These are all the fibers over g: a degree in relint(g) lies in span g
    and, as the full cone is in its filter, in the reference, so in A_g,
    and its filter is the pattern of its class.  So a filter is realizable
    above g exactly when it is one of g's fibers here.

    lambda_g is the lattice D = ∩_{F >= g} (A* ∩ lambda_F) of the classes:
    the family includes F = g, lambda_g lies in A* (it spans g and lies in
    the reference group by monotonicity), and lambda_g ⊆ lambda_F for every
    F >= g by monotonicity, so the intersection is lambda_g itself.  For x
    in A*, x lies in A* ∩ lambda_F exactly when lambda_F.member(x), so the
    pattern of x is read off the face lattices directly.  That test is
    skipped for the class 0 and for a face F with lambda_F = A_F, whose
    answers are known (_class_patterns).  Each pattern is
    profiled by cohomology.filter_profile, which builds a complex only for
    a filter with two or more least faces; those hardly ever repeat, so
    nothing is memoized.

    Nothing is cached: depth_report keeps the fibers it was computed from,
    and depth_bounds_multi reads them from that report.
    """
    out: list[CohomologyType] = []
    fl = model.fl
    for g, row in zip(fl.faces, model.face_table):
        seen = _class_patterns(model, g, row)
        step = model_point_in_relint(model, g)
        for pattern, x in sorted(seen.items(), key=lambda kv: sorted(kv[0])):
            assert fl.top.index in pattern
            witness = _shift_into_relint(model, g, x, step)
            profile = filter_profile(fl, pattern, primes=primes)
            out.append(CohomologyType(g.index, pattern, witness, profile))
    return out


@dataclass(frozen=True, eq=False)
class DepthReport:
    """Depth and Cohen-Macaulayness over Q and the requested primes, with
    the realizable fibers they were read from."""

    rank: int
    depth_q: int
    depth_by_prime: dict[int, int]
    witnesses: dict[str, dict[int, Vec]]
    torsion_primes: frozenset[int]
    fibers: tuple[CohomologyType, ...]

    @property
    def cm_q(self) -> bool:
        return self.depth_q == self.rank

    @property
    def cm_fail_primes(self) -> frozenset[int]:
        return frozenset(p for p, d in self.depth_by_prime.items() if d < self.rank)

    def depth(self, p: int | None) -> int:
        """The depth over Q (p=None) or F_p.  Every torsion prime of the
        fibers is in depth_by_prime, so any other prime has the depth over Q."""
        return self.depth_by_prime.get(p, self.depth_q)

    def cm(self, p: int | None) -> bool:
        return self.depth(p) == self.rank

    @property
    def buchsbaum_excluded(self) -> bool:
        """A nonvanishing intermediate cohomology is infinite-dimensional, so
        a non-Cohen-Macaulay model can not be Buchsbaum either."""
        return self.depth_q < self.rank or bool(self.cm_fail_primes)


def depth_report(model: DecoratedCone, primes=(2, 3)) -> DepthReport:
    """Exact depth per field from the realizable fibers.

    The fiber at the full cone with the one-element filter always realizes
    nonzero top cohomology, so the minimum is well defined and the depth
    equals the rank exactly when all lower cohomology vanishes.

    One enumeration serves every field, the torsion primes outside `primes`
    included: each profile holds its dims for its own torsion primes, and
    for any other prime p its F_p dims equal its Q dims, which is what
    `CohomologyProfile.dims(p)` returns.
    """
    d = model.rank
    fibers = tuple(fiber_types(model, primes))
    tors = frozenset().union(*(t.profile.torsion_primes for t in fibers)) if fibers else frozenset()
    all_primes = sorted(set(primes) | tors)

    def field_depth(p: int | None) -> tuple[int, dict[int, Vec]]:
        best = d
        witnesses: dict[int, Vec] = {}
        for t in fibers:
            dims = t.profile.dims(p)
            for i, dim in enumerate(dims):
                if dim > 0 and i not in witnesses:
                    witnesses[i] = t.witness
                if dim > 0 and i < best:
                    best = i
        return best, witnesses

    depth_q, wit_q = field_depth(None)
    depth_by_prime = {}
    witnesses = {"q": wit_q}
    for p in all_primes:
        dp, wp = field_depth(p)
        depth_by_prime[p] = dp
        witnesses[str(p)] = wp
    return DepthReport(d, depth_q, depth_by_prime, witnesses, tors, fibers)
