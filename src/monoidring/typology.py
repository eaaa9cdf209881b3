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
cohomology.filter_profile).  One class walk per base face serves both the
fiber enumeration and the realizability of a single filter.
"""

from dataclasses import dataclass
from itertools import product
from math import prod

from .cohomology import CohomologyProfile, filter_profile, is_up_closed
from .errors import BadFilter, TooLarge
from .exactlin import Vec, dot, vadd, vec_mat
from .monoid import DecoratedCone, FaceGroups, model_point_in_relint
from .polyhedral import Face


@dataclass(frozen=True)
class CohomologyType:
    """One fiber of the degree-to-filter map.

    base_face is the minimal face of the degrees in the fiber, filter_ids
    the common filter.  Unrealizable combinations carry no witness and, by
    default, no profile.
    """

    base_face: int
    filter_ids: frozenset[int]
    realizable: bool
    witness: Vec | None
    profile: CohomologyProfile | None


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
# face g takes (fiber_types, realizable); depth_report and analyze refuse a
# model with a larger one.
CLASS_CAP = 100000


def _class_patterns(model: DecoratedCone, g: Face, row: FaceGroups) -> dict[frozenset[int], Vec]:
    """The membership patterns of the classes of A_g / lambda_g, each with
    its first class representative, a point of A_g; row is g's face table
    row.  TooLarge past CLASS_CAP classes, before the walk starts."""
    fl = model.fl
    n_classes = prod(row.factors)
    if n_classes > CLASS_CAP:
        raise TooLarge(f"face {sorted(g.ray_set)}: {n_classes} classes exceed the cap")
    members = [(f.index, model.lattice_of(f).member) for f in fl.faces_above(g)]
    seen: dict[frozenset[int], Vec] = {}
    for coords in product(*(range(f) for f in row.factors)):
        x = vec_mat(coords, row.basis) if row.basis else (0,) * fl.cone.ambient_dim
        pattern = frozenset(i for i, member in members if member(x))
        if pattern not in seen:
            seen[pattern] = x
    return seen


def fiber_types(model: DecoratedCone, primes=()) -> list[CohomologyType]:
    """All realizable fibers, with witnesses and profiles.

    For each base face g the finite quotient A*/lambda_g is enumerated
    through the aligned basis of the model's face table (A* is the table's
    group A_g); every class has a constant membership pattern, and a
    relative-interior representative of the class is a witness for it.

    lambda_g is the lattice D = ∩_{F >= g} (A* ∩ lambda_F) of the classes:
    the family includes F = g, lambda_g lies in A* (it spans g and lies in
    the reference group by monotonicity), and lambda_g ⊆ lambda_F for every
    F >= g by monotonicity, so the intersection is lambda_g itself.  For x
    in A*, x lies in A* ∩ lambda_F exactly when lambda_F.member(x), so the
    pattern of x is read off the face lattices directly.  Each pattern is
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
            out.append(CohomologyType(g.index, pattern, True, witness, profile))
    return out


def realizable(
    model: DecoratedCone, g: Face, filter_ids: frozenset[int]
) -> tuple[bool, Vec | None]:
    """Decide whether some degree in relint(g) has exactly this filter, and
    give one such degree.

    The filter must be an up-closed subset of the interval above g
    containing the full cone.  It is realizable exactly when it is the
    pattern of a class of A_g / lambda_g: a degree in relint(g) with that
    filter lies in span g and, as the full cone is in the filter, in the
    reference, so in A_g; and the shift into relint(g) adds a point of
    lambda_g, which keeps the class.  So the decision reads the class walk
    of fiber_types and shifts the representative it finds.  The cap is the
    walk's, |A_g / lambda_g| <= CLASS_CAP, the one depth_report and analyze
    already apply to every face of the model.  Only g's row of the face
    table is built, so a first call on a fresh model decomposes one
    quotient, not one per face.
    """
    fl = model.fl
    above_ids = {f.index for f in fl.faces_above(g)}
    if not filter_ids <= above_ids or fl.top.index not in filter_ids:
        raise BadFilter("filter must live above the base face and contain the cone")
    if not is_up_closed(fl, filter_ids):
        raise BadFilter("filter is not up-closed")
    x = _class_patterns(model, g, model.face_row(g)).get(filter_ids)
    if x is None:
        return False, None
    return True, _shift_into_relint(model, g, x, model_point_in_relint(model, g))


def _up_sets_of_interval(fl, g: Face, cap: int) -> list[frozenset[int]]:
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
            raise TooLarge(
                f"face {sorted(g.ray_set)}: more than {cap} filters; raise the cap"
            )
    return out[1:]


def enumerate_types(
    model: DecoratedCone, max_filters_per_face: int = 5000
) -> list[CohomologyType]:
    """Every (base face, up-closed filter) combination, flagged realizable or
    not.  Realizability, witnesses and profiles come from the fiber
    enumeration, so no per-filter group computation is repeated; the
    unrealizable combinations carry neither witness nor profile."""
    fibers = fiber_types(model)
    fiber_map = {(t.base_face, t.filter_ids): t for t in fibers}
    fl = model.fl
    out: list[CohomologyType] = []
    for g in fl.faces:
        for s in _up_sets_of_interval(fl, g, max_filters_per_face):
            hit = fiber_map.get((g.index, s))
            out.append(hit if hit is not None else CohomologyType(g.index, s, False, None, None))
    out.sort(key=lambda t: (fl.faces[t.base_face].dim, t.base_face, sorted(t.filter_ids)))
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
        return self.depth_q if p is None else self.depth_by_prime[p]

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
