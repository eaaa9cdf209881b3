"""Generator-presented affine monoids and their decorated-cone models.

An affine monoid is given by finitely many nonzero integer generators whose
cone is pointed.  The decorated-cone model attaches to every face F of the
cone the group generated by the monoid elements on F; this extensional form
represents the seminormalization of the monoid exactly and is the input for
all cohomological analyses.
"""

import itertools
import math
from dataclasses import dataclass, field
from fractions import Fraction
from functools import cached_property

from .errors import DegenerateFace, NotPointed, NotPositive, TooLarge, ZeroGenerator
from .exactlin import (
    Lattice,
    Mat,
    Vec,
    dot,
    is_zero_vec,
    lattice_from_rows,
    lattice_intersect,
    mat,
    quotient_decomposition,
    saturation,
    solve_rational,
    vadd,
    vscale,
    vsub,
)
from .polyhedral import (
    Face,
    FaceLattice,
    RationalCone,
    dual_description,
    face_lattice,
    grading_form,
    minimal_face,
    zero_set_kernel,
)


# Largest box of integer points an enumeration walks (the degree box of the
# seminormality and (S2) scans, the zonotope box of a Hilbert basis).  The
# test suite walks boxes of at most 5929 points, the benchmark's generator
# files at most 4913.
BOX_CAP = 10**7


@dataclass(eq=False)
class AffineMonoid:
    """A positive affine monoid in Z^m with cached polyhedral data."""

    ambient_dim: int
    generators: Mat
    _member_cache: dict[Vec, bool] = field(default_factory=dict, repr=False)
    _scans: dict[int, "GapScan"] = field(default_factory=dict, repr=False)

    @cached_property
    def cone(self) -> RationalCone:
        return dual_description(self.generators, self.ambient_dim)

    @cached_property
    def face_lattice(self) -> FaceLattice:
        return face_lattice(self.cone)

    @cached_property
    def face_groups(self) -> tuple[Lattice, ...]:
        """gp(M ∩ F) for every face F, by face index, computed once per
        monoid: the model, sn(M) and M' all read them here."""
        return tuple(face_group(self, f) for f in self.face_lattice.faces)

    @cached_property
    def group(self) -> Lattice:
        return lattice_from_rows(self.ambient_dim, self.generators)

    @cached_property
    def grading(self) -> Vec:
        return grading_form(self.cone)

    @property
    def rank(self) -> int:
        return self.group.rank

    def deg(self, x) -> int:
        return dot(self.grading, x)

    @cached_property
    def _gens_by_degree(self) -> tuple[tuple[Vec, int], ...]:
        pairs = [(g, self.deg(g)) for g in self.generators]
        pairs.sort(key=lambda t: (-t[1], t[0]))
        return tuple(pairs)


def monoid_new(generators, ambient_dim: int | None = None) -> AffineMonoid:
    gens = mat(generators)
    if ambient_dim is None:
        if not gens:
            raise ValueError("ambient_dim required for an empty generator list")
        ambient_dim = len(gens[0])
    for g in gens:
        if is_zero_vec(g):
            raise ZeroGenerator("generators must be nonzero")
        if len(g) != ambient_dim:
            raise ValueError("generator length does not match ambient dimension")
    monoid = AffineMonoid(ambient_dim, gens)
    try:
        cone = monoid.cone
    except NotPointed as exc:
        raise NotPositive(str(exc)) from exc
    if cone.dim != monoid.group.rank:
        raise AssertionError("cone span and group span must agree")
    for g in gens:
        if monoid.deg(g) <= 0:
            raise NotPositive("grading is not positive on a generator")
    return monoid


def member(monoid: AffineMonoid, x) -> bool:
    """Exact membership: x is a nonnegative integer combination of generators.

    Depth-first search over residuals ordered by decreasing generator degree;
    results are memoized on the monoid, so repeated queries share work.  The
    strictly positive grading makes every path finite; the search keeps its
    path on an explicit stack, so long paths need no recursion.
    """
    x = tuple(x)
    if not monoid.cone.contains(x) or not monoid.group.member(x):
        return False
    if is_zero_vec(x):
        return True
    cache = monoid._member_cache
    hit = cache.get(x)
    if hit is not None:
        return hit
    pairs = monoid._gens_by_degree
    forms = monoid.cone.support_forms

    def residuals(y: Vec):
        dy = monoid.deg(y)
        for g, dg in pairs:
            if dg > dy:
                continue
            z = vsub(y, g)
            if all(dot(a, z) >= 0 for a in forms):
                yield z

    # found is the answer for the frame popped last; a frame is popped once
    # a residual of it is found or all of its residuals have failed
    stack = [(x, residuals(x))]
    found = False
    while stack:
        y, rest = stack[-1]
        if not found:
            z = next(rest, None)
            if z is None:
                cache[y] = False
                stack.pop()
                continue
            if not is_zero_vec(z):
                hit = cache.get(z)
                if hit is None:
                    stack.append((z, residuals(z)))
                    continue
                if not hit:
                    continue
            found = True
        cache[y] = True
        stack.pop()
    return found


def face_submonoid_generators(monoid: AffineMonoid, f: Face) -> Mat:
    """The generators lying on the face; they present the face submonoid,
    because a sum of monoid generators lies on a face only if each summand does."""
    forms = monoid.cone.support_forms
    return mat([g for g in monoid.generators if all(dot(forms[i], g) == 0 for i in f.zero_set)])


def face_group(monoid: AffineMonoid, f: Face) -> Lattice:
    """gp of the face submonoid."""
    return lattice_from_rows(monoid.ambient_dim, face_submonoid_generators(monoid, f))


def _box_points(lat: Lattice, lo, hi, forms) -> list[Vec]:
    """The points of lat whose coordinates lie in the box lo <= c <= hi and
    that satisfy every form a . x >= 0, in lexicographic coordinate order.

    The box is counted before it is walked: past BOX_CAP points it raises
    TooLarge instead of starting the loop.
    """
    size = math.prod(h - l + 1 for l, h in zip(lo, hi))
    if size > BOX_CAP:
        raise TooLarge(f"an enumeration box of {size} points exceeds the cap of {BOX_CAP}")
    points = map(lat.from_coords, itertools.product(*map(range, lo, [h + 1 for h in hi])))
    return [x for x in points if all(dot(a, x) >= 0 for a in forms)]


def hilbert_basis(cone: RationalCone, lat: Lattice) -> Mat:
    """Unique minimal generating set of the normal monoid cone ∩ lat.

    Requires lat full rank in the span of the cone.  Candidates are the
    lattice points of the bounding box of the zonotope spanned by the
    primitive lattice multiples of the extreme rays; every irreducible
    element lies in that zonotope.  Kept points are re-verified irreducible
    against the previously kept ones, in increasing degree.
    """
    if saturation(lat) != cone.span_lattice:
        raise ValueError("lattice must be full rank in the span of the cone")
    if cone.dim == 0:
        return ()
    deg_form = grading_form(cone)
    ray_mults = [vscale(lat.order(r), r) for r in cone.extreme_rays]
    rho = [lat.coords(r) for r in ray_mults]
    k = lat.rank
    lo = [sum(min(0, rv[i]) for rv in rho) for i in range(k)]
    hi = [sum(max(0, rv[i]) for rv in rho) for i in range(k)]
    b_stop = sum(dot(deg_form, r) for r in ray_mults)
    # the grading is positive on the cone outside the apex, so 0 < d drops it
    graded = ((dot(deg_form, x), x) for x in _box_points(lat, lo, hi, cone.support_forms))
    candidates = sorted(t for t in graded if 0 < t[0] <= b_stop)

    kept: list[Vec] = []
    for _, x in candidates:
        reducible = False
        for h in kept:
            y = vsub(x, h)
            if is_zero_vec(y):
                reducible = True  # duplicate candidate
                break
            if all(dot(a, y) >= 0 for a in cone.support_forms) and lat.member(y):
                reducible = True
                break
        if not reducible:
            kept.append(x)
    return mat(sorted(kept))


def is_normal(monoid: AffineMonoid) -> tuple[bool, Vec | None]:
    """Exact normality test: every Hilbert basis element of the normalization
    must already be a monoid member.  Returns a witness on failure."""
    hb = hilbert_basis(monoid.cone, monoid.group)
    for h in hb:
        if not member(monoid, h):
            return False, h
    return True, None


def sn_member(monoid: AffineMonoid, x) -> bool:
    """Membership in the seminormalization: x in the cone and in the group
    of the face submonoid of its minimal face."""
    x = tuple(x)
    if not monoid.cone.contains(x):
        return False
    return monoid.face_groups[minimal_face(monoid.face_lattice, x).index].member(x)


def in_facet_groups(monoid: AffineMonoid, f: Face, x: Vec) -> bool:
    """The facet test of M': x lies in gp(M ∩ G) for every facet G ⊇ f."""
    facet = monoid.face_lattice.by_zero_set
    return all(monoid.face_groups[facet(frozenset({i})).index].member(x) for i in f.zero_set)


@dataclass(frozen=True)
class SeminormalityVerdict:
    """Bounded seminormality verdict.

    ``witness`` is None when no failure was found up to ``bound``; otherwise
    it is a vector in the seminormalization but not in the monoid.  The
    verdict never claims unconditional seminormality: no effective degree
    bound is available, so a clean run only certifies SeminormalUpTo(bound).
    """

    bound: int
    witness: Vec | None

    @property
    def seminormal_up_to_bound(self) -> bool:
        return self.witness is None


def _box_points_of_degree_slice(monoid: AffineMonoid, bound: int):
    """All x in cn(M) ∩ gp(M) with deg(x) <= bound, as (deg, x) sorted by
    (deg, coords).

    The vertices of the degree-``bound`` slice are (bound/deg r) · r over the
    extreme rays, so group coordinates of candidates live in the integer box
    spanned by those rational vertices.
    """
    group = monoid.group
    vertices = [
        [Fraction(bound, monoid.deg(r)) * c for c in solve_rational(group.basis, r)]
        for r in monoid.cone.extreme_rays
    ]
    lo = [min(0, math.floor(min(v[i] for v in vertices))) for i in range(group.rank)]
    hi = [max(0, math.ceil(max(v[i] for v in vertices))) for i in range(group.rank)]
    graded = ((monoid.deg(x), x) for x in _box_points(group, lo, hi, monoid.cone.support_forms))
    return sorted(t for t in graded if t[0] <= bound)


def default_seminormality_bound(monoid: AffineMonoid) -> int:
    return (monoid.rank + 1) * max((monoid.deg(g) for g in monoid.generators), default=0)


@dataclass(frozen=True)
class GapScan:
    """The first gaps of M among the points of cn(M) ∩ gp(M) of positive
    degree up to the bound of the scan, first by (degree, coordinates); each
    is None when there is none.  ``least_degree`` is the degree of the first
    such point at all, in M or not."""

    least_degree: int | None
    sn_gap: Vec | None  # the first point of sn(M) outside M
    interior_gap: Vec | None  # the first point of gp(M) ∩ relint C outside M
    m_prime_gap: Vec | None  # the first point of M' outside M


def gap_scan(monoid: AffineMonoid, bound: int) -> GapScan:
    """The scan up to bound (a negative bound scans nothing), walked once per
    monoid and bound: it tests membership in M once per point.

    M ⊆ sn(M) ⊆ M': a point x of sn(M) lies in gp(M ∩ F) for its minimal
    face F, and gp(M ∩ F) lies in gp(M ∩ G) for every facet G ⊇ F, which is
    the facet test of M' (the scan's points lie in cn(M) ∩ gp(M)).  So a
    member of M needs no other test, except the check that it lies in M'.
    A point of gp(M) ∩ relint C has the whole cone as its minimal face and
    gp(M ∩ C) = gp(M), so every interior gap is a seminormality gap, and
    every seminormality gap is a gap of M'.  Hence the first M' gap comes no
    later than the first sn gap, and that no later than the first interior
    gap: the scan stops there, with all three found.  The points are walked
    in (degree, coordinates) order, so for B <= bound the first gap up to
    degree B is this scan's first gap when its degree is <= B, and none
    otherwise.
    """
    bound = max(bound, 0)
    if bound in monoid._scans:
        return monoid._scans[bound]
    fl = monoid.face_lattice
    points = [(d, x) for d, x in _box_points_of_degree_slice(monoid, bound) if d > 0]
    sn_gap = interior_gap = m_prime_gap = None
    for _, x in points:
        f = minimal_face(fl, x)
        in_m = member(monoid, x)
        in_mp = in_facet_groups(monoid, f, x)
        assert not (in_m and not in_mp), "the monoid always sits inside M'"
        if in_m:
            continue
        if m_prime_gap is None and in_mp:
            m_prime_gap = x
        if sn_gap is None and monoid.face_groups[f.index].member(x):
            sn_gap = x
        if f is fl.top:
            interior_gap = x
            break
    scan = GapScan(points[0][0] if points else None, sn_gap, interior_gap, m_prime_gap)
    monoid._scans[bound] = scan
    return scan


def is_seminormal_up_to(monoid: AffineMonoid, bound: int) -> SeminormalityVerdict:
    """Scan all cone-and-group points of degree <= bound for a point of the
    seminormalization missing from the monoid; the first one (by degree,
    then lexicographically) is returned as a certificate.  It is read from
    the shared scan of the monoid up to bound (gap_scan)."""
    if bound < 0:
        raise ValueError("bound must be nonnegative")
    return SeminormalityVerdict(bound, gap_scan(monoid, bound).sn_gap)


@dataclass(frozen=True, eq=False)
class DecoratedCone:
    """A pointed cone with one full-rank lattice per face.

    This is the extensional form of a seminormal monoid: the represented
    monoid is the union over faces F of (lambda_F ∩ relint F).  The lattice
    of the full cone is the reference group.
    """

    fl: FaceLattice
    lambdas: tuple[Lattice, ...]

    @property
    def cone(self) -> RationalCone:
        return self.fl.cone

    @property
    def reference(self) -> Lattice:
        return self.lambdas[self.fl.top.index]

    @property
    def rank(self) -> int:
        return self.fl.top.dim

    def lattice_of(self, f: Face) -> Lattice:
        return self.lambdas[f.index]

    @cached_property
    def _cuts(self) -> tuple[tuple[Lattice, Lattice], ...]:
        return face_group_cuts(self.fl, self.reference, dict(enumerate(self.lambdas)))

    @cached_property
    def face_table(self) -> tuple["FaceGroups", ...]:
        """The groups of every face, by face index, computed once per model:
        the (S2) test, normality, the fibers, the F-bad primes and the
        Gorenstein indices all read them here.  Where lambda_F = A_F the
        quotient is trivial, and its decomposition is read off without a
        Smith form: factors 1 on the basis of A_F, whose only class is 0."""
        rows = []
        for (group, cut), lam in zip(self._cuts, self.lambdas):
            if lam == group:
                rows.append(FaceGroups(group, cut, (1,) * group.rank, group.basis))
            else:
                rows.append(FaceGroups(group, cut, *quotient_decomposition(group, lam)))
        return tuple(rows)


@dataclass(frozen=True)
class FaceGroups:
    """The groups of one face F of a decorated cone.

    group is A_F = reference ∩ span F and cut is its facet cut
    A_F ∩ ⋂_{facets G ⊇ F} lambda_G.  (factors, basis) is the aligned
    decomposition of the finite quotient A_F / lambda_F: its classes are the
    sums sum c_i basis[i] with 0 <= c_i < factors[i].
    """

    group: Lattice
    cut: Lattice
    factors: tuple[int, ...]
    basis: Mat


def face_group_cuts(
    fl: FaceLattice, reference: Lattice, lattices: dict[int, Lattice]
) -> tuple[tuple[Lattice, Lattice], ...]:
    """(A_F, facet cut of A_F) for every face F, by face index.

    lattices maps face indices to their lattices; only the facets are read,
    and a facet missing from it carries its whole group.

    A_F is the integer kernel on the reference of the support forms that
    vanish on F, which is exact for a reference inside span C (argument in
    polyhedral.zero_set_kernel).  On the reference span C ∩ Z^m that kernel
    is the saturated span of F, which the face lattice already holds.

    The cut of F is A_F ∩ ⋂ lambda_G over the cutting facets G ⊇ F, the
    facets whose lattice differs from A_G: any other facet contains A_F.  A
    cutting facet's cut is A_G ∩ lambda_G, which is lambda_G in a valid
    decoration; so the cuts are A_F ∩ ⋂ lambda_G also on an input that
    validation then refuses.  A face on no cutting facet keeps A_F.

    Every other cut is read from the faces covering F, walked top-down.
    For a cover H of F, A_F ⊆ A_H, and one form phi that vanishes on F but
    not on H cuts span H down to span F, as F is a facet of H.  So the
    kernel of phi on the cut of H is A_H ∩ span F ∩ ⋂_{G ⊇ H} lambda_G =
    A_F ∩ ⋂_{G ⊇ H} lambda_G.  The cuts of further covers are met with it
    until the facets above the covers used include every cutting facet
    through F.  That happens: the lattice is graded, so every facet G ⊋ F
    contains a face covering F.
    """
    forms = fl.cone.support_forms
    groups = [f.span_lattice for f in fl.faces]
    if reference != fl.cone.span_lattice:
        groups = [zero_set_kernel(forms, f.zero_set, reference) for f in fl.faces]
    cuts = list(groups)
    cutting: set[int] = set()  # the forms of the cutting facets
    for i in fl.facet_indices():
        if lattices.get(i, groups[i]) != groups[i]:
            cuts[i] = lattice_intersect(groups[i], lattices[i])
            cutting |= fl.faces[i].zero_set
    for f in reversed(fl.faces):
        need, covered = f.zero_set & cutting, set()
        # the covers on the most cutting facets first, so few cuts are met
        covers = sorted(fl.up_covers[f.index], key=lambda h: -len(fl.faces[h].zero_set & need))
        for h in covers:
            above = fl.faces[h].zero_set & need
            if above - covered:
                if covered:
                    cuts[f.index] = lattice_intersect(cuts[f.index], cuts[h])
                else:
                    phi = min(f.zero_set - fl.faces[h].zero_set)
                    cuts[f.index] = zero_set_kernel(forms, (phi,), cuts[h])
                covered |= above
    return tuple(zip(groups, cuts))


def decorated_cone(fl: FaceLattice, lambdas) -> DecoratedCone:
    """Validate and freeze a face-lattice decoration."""
    lambdas = tuple(lambdas)
    if len(lambdas) != len(fl.faces):
        raise DegenerateFace(f"{len(lambdas)} lattices for {len(fl.faces)} faces")
    for f in fl.faces:
        lam = lambdas[f.index]
        if lam.rank != f.dim:
            raise DegenerateFace(f"face {sorted(f.ray_set)}: lattice rank {lam.rank} != dim {f.dim}")
        for row in lam.basis:
            if not f.span_lattice.member(row):
                raise DegenerateFace(f"face {sorted(f.ray_set)}: lattice leaves the face span")
    for f in fl.faces:
        for up in fl.up_covers[f.index]:
            for row in lambdas[f.index].basis:
                if not lambdas[up].member(row):
                    raise DegenerateFace("face lattices are not monotone along covers")
    return DecoratedCone(fl, lambdas)


def decorate_by_facet_cuts(fl: FaceLattice, given: dict[int, Lattice]) -> DecoratedCone:
    """The decoration that keeps the given lattices (by face index) and
    gives every other face its facet cut; the reference defaults to the
    saturated span of the cone.  The model keeps the cuts: its reference and
    facet lattices are the ones cut here, so its face table computes no A_F
    again.

    Only the given lattices are validated, the reference among them when it
    is given: each must have full rank in the span of its face, which is
    checked before any cut is taken, and the lattices must be monotone on
    every cover pair with a given lattice at one end.  The cuts need no
    check.  The cut of F is A_F ∩ ⋂ lambda_G over the facets G ⊇ F
    (face_group_cuts).  It lies in A_F ⊆ span F, and it has full rank
    there, as the intersection with span F of lattices of full rank in
    span C and in the spans G ⊇ F.  On a cover pair F ⋖ H of two cut
    faces, A_F ⊆ A_H and every facet through H passes through F, so
    cut F ⊆ A_H ∩ ⋂_{G ⊇ H} lambda_G = cut H.  decorated_cone, which
    `check` runs, validates every face.
    """
    reference = given.get(fl.top.index, fl.cone.span_lattice)
    if not all(map(fl.cone.span_lattice.member, reference.basis)):
        raise DegenerateFace("the reference lattice leaves the span of the cone")
    for i in sorted(given):
        f, lam = fl.faces[i], given[i]
        if lam.rank != f.dim:
            raise DegenerateFace(f"face {sorted(f.ray_set)}: lattice rank {lam.rank} != dim {f.dim}")
        if not all(map(f.span_lattice.member, lam.basis)):
            raise DegenerateFace(f"face {sorted(f.ray_set)}: lattice leaves the face span")
    cuts = face_group_cuts(fl, reference, given)
    lambdas = tuple(given.get(i, cut) for i, (_, cut) in enumerate(cuts))
    for i in sorted(given):
        pairs = [(j, i) for j in fl.down_covers[i]] + [(i, j) for j in fl.up_covers[i]]
        for low, high in pairs:
            if not all(map(lambdas[high].member, lambdas[low].basis)):
                raise DegenerateFace("face lattices are not monotone along covers")
    model = DecoratedCone(fl, lambdas)
    model.__dict__["_cuts"] = cuts  # the slot of the cached DecoratedCone._cuts
    return model


def to_model(monoid: AffineMonoid) -> DecoratedCone:
    """The decorated-cone model of the seminormalization of the monoid."""
    return decorated_cone(monoid.face_lattice, monoid.face_groups)


def model_member(model: DecoratedCone, x) -> bool:
    x = tuple(x)
    if not model.cone.contains(x):
        return False
    f = minimal_face(model.fl, x)
    return model.lattice_of(f).member(x)


def model_point_in_relint(model: DecoratedCone, f: Face) -> Vec:
    """A point of lambda_f in the relative interior of f (zero for the apex).

    The ray sum lies in relint f and in span f ∩ Z^m; its multiple by the
    exponent of the finite group (span f ∩ Z^m) / lambda_f lies in lambda_f.
    That exponent is the lcm of the orders of the group's generators, the
    basis of span f ∩ Z^m, each taken modulo lambda_f (Lattice.order).
    """
    fl = model.fl
    rays = fl.cone.extreme_rays
    total = (0,) * fl.cone.ambient_dim
    for i in f.ray_set:
        total = vadd(total, rays[i])
    if is_zero_vec(total):
        return total
    lam = model.lattice_of(f)
    return vscale(math.lcm(*map(lam.order, f.span_lattice.basis)), total)


def restrict_model(model: DecoratedCone, f: Face) -> DecoratedCone:
    """The face-restricted model: the cone of f decorated with the same
    lattices on the faces below f."""
    fl = model.fl
    rays = [fl.cone.extreme_rays[i] for i in sorted(f.ray_set)]
    sub_cone = dual_description(rays, fl.cone.ambient_dim)
    sub_fl = face_lattice(sub_cone)
    by_rays = {
        frozenset(fl.cone.extreme_rays[i] for i in g.ray_set): model.lattice_of(g)
        for g in fl.faces
        if g.ray_set <= f.ray_set
    }
    lambdas = []
    for g in sub_fl.faces:
        key = frozenset(sub_cone.extreme_rays[i] for i in g.ray_set)
        lambdas.append(by_rays[key])
    return decorated_cone(sub_fl, lambdas)


def model_is_normal(model: DecoratedCone) -> bool:
    """True when every face lattice is its whole group A_F = reference ∩ span F."""
    return all(row.group == lam for row, lam in zip(model.face_table, model.lambdas))
