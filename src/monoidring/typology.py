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
depth_report, the depth chain and analyze all read that enumeration.

The walk works only where the face table and monotonicity leave the answer
open (see _class_patterns and fiber_types):
- the class 0 is the one class whose pattern holds its base face g.  Its
  filter is the up-set of g, with the interval profile, and its witness is
  the relint step; a quotient with one class has that fiber alone;
- a face F with lambda_F = A_F holds every class, and a face with an
  up-cover outside a class's pattern is outside it too, as lambda_F lies
  in the lattice of every face above F.  Only the other faces are tested;
- the classes run over the factors of the face table other than 1.
"""

from dataclasses import dataclass
from itertools import product
from math import prod

from .cohomology import CohomologyProfile, filter_profile, interval_profile
from .errors import TooLarge
from .exactlin import Vec, dot, vadd, vec_mat, vscale
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
    """x + k step for the least k >= 0 that puts it in relint(g), step a
    point of lambda_g in relint(g), so the class of x modulo every face
    lattice above g is unchanged.

    x + k step lies in relint(g) exactly when v + k s > 0 for every support
    form off the zero set of g, v the form at x and s the form at step:
    the forms of the zero set vanish on span g, which holds x and step.
    Every such s is positive, as step lies in relint(g).  So a form with
    v > 0 holds for every k >= 0, and one with v <= 0 exactly for
    k > -v / s, that is k >= floor(-v / s) + 1; k is the largest of these
    bounds, or 0.
    """
    k = 0
    for i, form in enumerate(model.cone.support_forms):
        if i not in g.zero_set:
            v = dot(form, x)
            if v <= 0:
                k = max(k, -v // dot(form, step) + 1)
    return vadd(x, vscale(k, step))


# Largest quotient A_g / lambda_g, in classes, that the class walk of a base
# face g takes (fiber_types); depth_report and analyze refuse a model with a
# larger one.
CLASS_CAP = 100000


def _membership_tests(model: DecoratedCone) -> list:
    """lambda_F.member by face index, None where lambda_F = A_F (a trivial
    quotient in the face table), for _class_patterns; built once per
    model."""
    return [
        None if prod(row.factors) == 1 else lam.member
        for row, lam in zip(model.face_table, model.lambdas)
    ]


def _class_patterns(
    model: DecoratedCone, g: Face, row: FaceGroups, tests: list
) -> dict[frozenset[int], Vec]:
    """The membership patterns of the classes of A_g / lambda_g, each with
    its first class representative, a point of A_g; row is g's face table
    row and tests the model's _membership_tests.  TooLarge past CLASS_CAP
    classes, before the walk starts.

    Only the memberships not known beforehand are tested:
    - the class 0 lies in every lambda_F, so its pattern is every face above
      g; its representative is the zero vector, the walk's first point.  A
      quotient with one class has that pattern alone, and returns it before
      anything else is built;
    - a face F with lambda_F = A_F (a trivial quotient in the face table,
      test None) holds every class: the representatives lie in A_g ⊆ A_F.
      So F is in every pattern;
    - a face F with an up-cover H outside the pattern is outside it too:
      lambda_F ⊆ lambda_H by monotonicity.  The faces above g are visited by
      decreasing index, and faces are indexed by dimension first, so the
      up-covers of a face, all above g, are decided before it.

    The classes are the sums of the rows of row.basis whose factor is not 1,
    with coefficients below their factors: a factor 1 admits the
    coefficient 0 alone, so dropping it keeps every class, the order of the
    product and the first representatives.
    """
    fl = model.fl
    factors, rows = [], []
    for f, b in zip(row.factors, row.basis):
        if f > 1:
            factors.append(f)
            rows.append(b)
    n_classes = prod(factors)
    if n_classes > CLASS_CAP:
        raise TooLarge(f"face {sorted(g.ray_set)}: {n_classes} classes exceed the cap")
    above = fl.faces_above(g)
    seen = {frozenset(f.index for f in above): (0,) * fl.cone.ambient_dim}
    if n_classes == 1:
        return seen
    walk = [(f.index, tests[f.index], fl.up_covers[f.index]) for f in reversed(above)]
    classes = product(*map(range, factors))
    next(classes)  # the class 0
    for coords in classes:
        x = vec_mat(coords, rows)
        pattern: set[int] = set()
        for i, member, ups in walk:
            if pattern.issuperset(ups) and (member is None or member(x)):
                pattern.add(i)
        # filled in index order, as the class 0's: a frozenset iterates, and
        # prints, in the order it was filled in
        seen.setdefault(frozenset(sorted(pattern)), x)
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
    pattern of x is read off the face lattices directly, with the tests
    whose answers are known skipped (_class_patterns).

    A pattern holds g exactly for the class 0: a nonzero class is not in
    lambda_g.  Its filter is the interval [g, top], with the interval
    profile (cohomology.interval_profile), and its witness the relint step
    itself, as _shift_into_relint(model, g, 0, step) is step for every g:
    every form off the zero set of g is 0 at 0, so k = 1, and the apex has
    no such form and the step 0.  Every other pattern is profiled by
    cohomology.filter_profile, which builds a complex only for a filter
    with two or more least faces; those hardly ever repeat, so nothing is
    memoized.

    Nothing is cached: depth_report keeps the fibers it was computed from,
    and depth_bounds_multi reads them from that report.
    """
    out: list[CohomologyType] = []
    fl = model.fl
    top = fl.top
    tests = _membership_tests(model)
    for g, row in zip(fl.faces, model.face_table):
        seen = _class_patterns(model, g, row, tests)
        step = model_point_in_relint(model, g)
        for pattern, x in sorted(seen.items(), key=lambda kv: sorted(kv[0])):
            assert top.index in pattern
            if g.index in pattern:
                witness, profile = step, interval_profile(top, g.index, primes)
            else:
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
