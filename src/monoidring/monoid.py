"""Generator-presented affine monoids and their decorated-cone models.

An affine monoid is given by finitely many nonzero integer generators whose
cone is pointed.  The decorated-cone model attaches to every face F of the
cone the group generated by the monoid elements on F; this extensional form
represents the seminormalization of the monoid exactly and is the input for
all cohomological analyses.
"""

import itertools
import math
from bisect import bisect_right
from dataclasses import dataclass, field
from functools import cached_property

from .errors import DegenerateFace, NotPointed, NotPositive, TooLarge, ZeroGenerator
from .exactlin import (
    Lattice,
    Mat,
    Vec,
    dot,
    form_kernel,
    is_zero_vec,
    lattice_from_rows,
    lattice_intersect,
    mat,
    quotient_decomposition,
    saturation,
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
)


# Largest box of integer points an enumeration may span (the box around the
# degree slice of the seminormality and (S2) scans, the zonotope box of a
# Hilbert basis).  The whole box is counted, though the walk enters only the
# box of its first r - 1 coordinates and solves the last one's interval
# (_graded_points).  The test suite spans boxes of at most 35301 points, the
# benchmark's generator files at most 4913.
BOX_CAP = 10**7


@dataclass(eq=False)
class AffineMonoid:
    """A positive affine monoid in Z^m with cached polyhedral data."""

    ambient_dim: int
    generators: Mat
    _scans: dict[int, "GapScan"] = field(default_factory=dict, repr=False)

    @cached_property
    def cone(self) -> RationalCone:
        return dual_description(self.generators, self.ambient_dim)

    @cached_property
    def face_lattice(self) -> FaceLattice:
        return face_lattice(self.cone)

    @cached_property
    def model(self) -> "DecoratedCone":
        """The decorated-cone model of sn(M): gp(M ∩ F) on every face F,
        built once per monoid.  sn(M) is its represented monoid, the union
        of gp(M ∩ F) ∩ relint F, and its face table holds the facet cut
        that decides M' (gap_scan).

        The decoration is valid by construction, so it is not validated.
        Each face F of cone(generators) is the cone of the generators on F,
        so gp(M ∩ F) lies in span F ∩ Z^m and has rank dim F; and it is
        monotone, as M ∩ F ⊆ M ∩ F' for F <= F'."""
        fl = self.face_lattice
        return DecoratedCone(fl, tuple(face_group(self, f) for f in fl.faces))

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

    After the cone and group pre-test, a search over the residuals
    y = x - sum n_g g that lie in the cone, x itself included: x is a
    member exactly when one of them is 0, that is when x is 0 or some y is
    a generator.  Every residual lies in the cone with degree at most
    deg x, and the grading is positive on the cone outside the apex, so the
    residuals are lattice points of a bounded slice of the cone, a finite
    set.  Each is visited once (seen), from a work stack, so long paths
    need no recursion.
    """
    x = tuple(x)
    if not monoid.cone.contains(x) or not monoid.group.member(x):
        return False
    generators, forms = set(monoid.generators), monoid.cone.support_forms
    seen, stack = {x}, [x]
    while stack:
        y = stack.pop()
        if y in generators or is_zero_vec(y):
            return True
        for g in monoid.generators:
            z = vsub(y, g)
            if z not in seen and all(dot(a, z) >= 0 for a in forms):
                seen.add(z)
                stack.append(z)
    return False


def face_submonoid_generators(monoid: AffineMonoid, f: Face) -> Mat:
    """The generators lying on the face; they present the face submonoid,
    because a sum of monoid generators lies on a face only if each summand does."""
    forms = monoid.cone.support_forms
    return mat([g for g in monoid.generators if all(dot(forms[i], g) == 0 for i in f.zero_set)])


def face_group(monoid: AffineMonoid, f: Face) -> Lattice:
    """gp of the face submonoid."""
    return lattice_from_rows(monoid.ambient_dim, face_submonoid_generators(monoid, f))


def _ray_multiples(lat: Lattice, cone: RationalCone) -> list[tuple[Vec, int]]:
    """(coordinates of m in lat, deg m) for m = k r the least multiple of
    each extreme ray r of the cone in lat, k = lat.order(r); deg is the
    grading of the cone."""
    deg_form = grading_form(cone)
    multiples = [vscale(lat.order(r), r) for r in cone.extreme_rays]
    return [(lat.coords(m), dot(deg_form, m)) for m in multiples]


def _pull_back(lat: Lattice, forms) -> Mat:
    """Each linear form a as (a . b_j)_j over the basis b of lat, so that
    a . x = sum_j c_j (a . b_j) for the coordinates c of a point x of lat."""
    return tuple(tuple(dot(a, b) for b in lat.basis) for a in forms)


def _in_coordinates(group: Lattice, lat: Lattice) -> Lattice:
    """A sublattice lat of group as the lattice of the coordinates of its
    points in the basis of group."""
    return lattice_from_rows(group.rank, [group.coords(b) for b in lat.basis])


def _graded_points(lat: Lattice, cone: RationalCone, lo, hi, cap: int) -> list[tuple[int, Vec]]:
    """The points x of cone ∩ lat with coordinates c in the box lo <= c <= hi
    and 0 < deg x <= cap, as (deg x, c) sorted, deg the grading of the cone.
    The grading is positive on the cone outside the apex, so 0 < deg drops
    the apex alone.

    The box is counted before it is walked: past BOX_CAP points it raises
    TooLarge instead of starting the loop.  Each support form and the
    grading are pulled back once to lattice coordinates (_pull_back), and
    every condition on x is a condition a . c >= b on c: a . c >= 0 for
    each form, deg >= 1 and -deg >= -cap.  The walk enters the box of the
    first r - 1 coordinates only.  For a prefix h of c, a condition reads
    t c_r >= b - a_head . h with t the last entry of a: for t > 0 it bounds
    c_r below by the ceiling of the quotient, for t < 0 above by its floor,
    and for t = 0 it holds for every c_r or for none.  So the points kept
    with prefix h are exactly the integers of one interval, clipped to the
    box, and no other point of the box is kept.

    The basis of lat is in Hermite normal form with positive pivots: each
    row is zero before its pivot, and the later rows are zero up to it.  At
    the first coordinate j where two points differ, their difference is
    (c_j - c'_j) times row j plus later rows, so it is zero before the pivot
    of row j and has the sign of c_j - c'_j there.  So lexicographic order
    on the coordinates is lexicographic order on Z^m, and the sort by
    (deg, c) is the sort by (deg x, x).
    """
    size = math.prod(h - l + 1 for l, h in zip(lo, hi))
    if size > BOX_CAP:
        raise TooLarge(f"an enumeration box of {size} points exceeds the cap of {BOX_CAP}")
    (grading,) = _pull_back(lat, [grading_form(cone)])
    conditions = [(a, 0) for a in _pull_back(lat, cone.support_forms)]
    conditions += [(grading, 1), (vscale(-1, grading), -cap)]
    conditions = [(a[:-1], a[-1], b) for a, b in conditions]
    last = grading[-1]
    points = []
    for head in itertools.product(*map(range, lo[:-1], [h + 1 for h in hi[:-1]])):
        low, high = lo[-1], hi[-1]
        for a, t, b in conditions:
            rest = b - dot(a, head)  # t * c_r >= rest
            if t > 0:
                low = max(low, -(-rest // t))
            elif t < 0:
                high = min(high, rest // t)
            elif rest > 0:
                break
        else:
            d = dot(grading, head)
            points += ((d + last * c, head + (c,)) for c in range(low, high + 1))
    return sorted(points)


def hilbert_basis(cone: RationalCone, lat: Lattice) -> Mat:
    """Unique minimal generating set of the normal monoid cone ∩ lat.

    Requires lat full rank in the span of the cone.  Candidates are the
    lattice points of the bounding box of the zonotope spanned by the
    primitive lattice multiples of the extreme rays; every irreducible
    element lies in that zonotope.  Kept points are re-verified irreducible
    against the previously kept ones, in increasing degree.  The test runs
    on lattice coordinates, with the support forms pulled back to them
    (_pull_back): x - h lies in the cone exactly when every pulled-back
    form is nonnegative on the coordinates of x - h.  Only the elements
    kept are mapped to Z^m.
    """
    if saturation(lat) != cone.span_lattice:
        raise ValueError("lattice must be full rank in the span of the cone")
    if cone.dim == 0:
        return ()
    rays = _ray_multiples(lat, cone)
    lo = [sum(min(0, c[i]) for c, _ in rays) for i in range(lat.rank)]
    hi = [sum(max(0, c[i]) for c, _ in rays) for i in range(lat.rank)]
    candidates = _graded_points(lat, cone, lo, hi, sum(d for _, d in rays))
    forms = _pull_back(lat, cone.support_forms)

    # the candidates are distinct points of lat, so x - h is a nonzero point
    # of lat, and x is reducible by h exactly when x - h lies in the cone
    kept: list[Vec] = []
    for _, x in candidates:
        if not any(all(dot(a, vsub(x, h)) >= 0 for a in forms) for h in kept):
            kept.append(x)
    return mat(sorted(map(lat.from_coords, kept)))


def is_normal(monoid: AffineMonoid) -> tuple[bool, Vec | None]:
    """Exact normality test, with the first Hilbert basis element of the
    normalization cn(M) ∩ gp(M) outside M as the witness on failure.

    The Hilbert basis is the set of irreducible elements of the
    normalization, and such an element h lies in M exactly when it is a
    generator: a sum h = sum n_g g with sum n_g >= 2 splits as
    h = g + (h - g) into two nonzero elements of the normalization, so h
    would be reducible.  M is normal exactly when the Hilbert basis, which
    generates the normalization, lies in M.
    """
    generators = set(monoid.generators)
    for h in hilbert_basis(monoid.cone, monoid.group):
        if h not in generators:
            return False, h
    return True, None


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
    """All x in cn(M) ∩ gp(M) with 0 < deg(x) <= bound, as (deg, c) sorted
    by (deg, c), c the coordinates of x in the basis of gp(M): the order of
    (deg, x) (_graded_points).

    The vertices of the degree-``bound`` slice are (bound / deg m) · m over
    the least multiples m of the extreme rays in gp(M), so group coordinates
    of candidates live in the integer box spanned by the vertex coordinates
    bound · c / deg m, c the coordinates of m, each floored or ceiled by
    integer division.
    """
    group = monoid.group
    rays = _ray_multiples(group, monoid.cone)
    lo = [min([0] + [bound * c[i] // d for c, d in rays]) for i in range(group.rank)]
    hi = [max([0] + [-(-bound * c[i] // d) for c, d in rays]) for i in range(group.rank)]
    return _graded_points(group, monoid.cone, lo, hi, bound)


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
    monoid and bound.

    M is decided by a sweep in degree order, with found the members of M
    met so far.  A nonzero point x lies in M exactly when x - g lies in M
    for some generator g.  That x - g is 0, or a point of cn(M) ∩ gp(M) of
    degree 0 < deg(x - g) < deg x <= bound, which the walk, sorted by
    degree, met before x.  So x - g lies in M exactly when it is in found.
    A generator of degree > deg x leaves x - g of negative degree, never in
    M, so the generators are sorted by degree once and x is tried only
    against those up to its degree.

    sn(M) and M' are read off the model of sn(M) (AffineMonoid.model).  A
    point x of cn(M) ∩ gp(M) with minimal face F is in sn(M) when it lies
    in lambda_F = gp(M ∩ F).  It is in M' when it lies in gp(M ∩ G) for
    every facet G ⊇ F.  That is the face table's cut of F,
    A_F ∩ ⋂_{facets G ⊇ F} lambda_G with A_F = gp(M) ∩ span F, as x lies
    in gp(M) and in span F, so in A_F.

    The sweep runs on the coordinates c of x in the basis of gp(M), as the
    walk gives them; only the gaps reported are mapped to Z^m.  found and
    the generators are coordinate tuples.  The support forms are pulled
    back to the coordinates (_pull_back), so the forms that vanish at x are
    read off c, and F is the face with that zero set.  lambda_F and the cut
    of F lie in gp(M), and are pulled back once per face to the lattices of
    the coordinates of their points.  The coordinate map of gp(M) is linear
    and one-to-one, so a point x of gp(M) lies in such a lattice exactly
    when c lies in its pull-back.

    M ⊆ sn(M) ⊆ M': a point x of sn(M) lies in gp(M ∩ F) for its minimal
    face F, and gp(M ∩ F) lies in gp(M ∩ G) for every facet G ⊇ F.  So a
    member of M needs no other test; the cut is tested on it only in the
    assertion that it lies in M'.  A point of gp(M) ∩ relint C has the
    whole cone as its minimal face and gp(M ∩ C) = gp(M), so every interior
    gap is a seminormality gap, and every seminormality gap is a gap of M'.
    Hence the first M' gap comes no later than the first sn gap, and that
    no later than the first interior gap: the scan stops there, with all
    three found.  The points are walked in (degree, coordinates) order, so
    for B <= bound the first gap up to degree B is this scan's first gap
    when its degree is <= B, and none otherwise.
    """
    bound = max(bound, 0)
    if bound in monoid._scans:
        return monoid._scans[bound]
    model = monoid.model
    fl, group = model.fl, monoid.group
    points = _box_points_of_degree_slice(monoid, bound)
    forms = _pull_back(group, monoid.cone.support_forms)
    by_degree = sorted((monoid.deg(g), group.coords(g)) for g in monoid.generators)
    degrees = [d for d, _ in by_degree]
    generators = [g for _, g in by_degree]
    cuts = [_in_coordinates(group, row.cut) for row in model.face_table]
    lambdas = [_in_coordinates(group, lam) for lam in model.lambdas]
    found = {(0,) * group.rank}
    sn_gap = interior_gap = m_prime_gap = None
    for d, c in points:
        f = fl.by_zero_set(frozenset(i for i, a in enumerate(forms) if dot(a, c) == 0))
        assert f is not None, "the zero set of a cone point names a face"
        up_to_d = itertools.islice(generators, bisect_right(degrees, d))
        if any(vsub(c, g) in found for g in up_to_d):
            assert cuts[f.index].member(c), "the monoid always sits inside M'"
            found.add(c)
            continue
        if m_prime_gap is None and cuts[f.index].member(c):
            m_prime_gap = c
        if sn_gap is None and lambdas[f.index].member(c):
            sn_gap = c
        if f is fl.top:
            interior_gap = c
            break
    gaps = (None if c is None else group.from_coords(c) for c in (sn_gap, interior_gap, m_prime_gap))
    scan = GapScan(points[0][0] if points else None, *gaps)
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

    The constructor does not validate: the decorations that enter from a
    caller are built by decorated_cone, which validates every face, or by
    decorate_by_facet_cuts, which validates the given lattices, and
    AffineMonoid.model builds one valid by construction.
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
        Gorenstein indices all read them here.  quotient_decomposition
        reads the trivial quotients (lambda_F = A_F) and the diagonal ones
        (lambda_F's basis rows multiples of A_F's) without a Smith form."""
        return tuple(
            FaceGroups(group, cut, *quotient_decomposition(group, lam))
            for (group, cut), lam in zip(self._cuts, self.lambdas)
        )


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
    """(A_F, facet cut of A_F) for every face F, by face index, in one pass
    over the faces from the top down.

    lattices maps face indices to their lattices; only the facets are read,
    and a facet missing from it carries its whole group.

    The faces are indexed by dimension, so the pass reaches a face after
    every face above it, and every facet before any lower face.  The top
    keeps the reference, which lies in span C.  Every other face F is a
    facet of its first cover H, and a form phi in zs(F) ∖ zs(H) cuts span H
    down to span F (face_lattice).  So A_F = reference ∩ span F is the
    kernel of phi on A_H (exactlin.form_kernel, canonical, so groups compare
    by ==), and where A_H is span H, A_F is span F, which the face lattice
    already holds.  Below the top that costs at most one form kernel a face.

    The cut of F is A_F ∩ ⋂ lambda_G over the cutting facets G ⊇ F, the
    facets whose lattice differs from A_G: any other facet contains A_F.  A
    cutting facet's cut is lambda_G ∩ A_G, which is lambda_G in a valid
    decoration, so lattice_intersect gets lambda_G first and returns it
    after one membership test per basis row; the cuts are
    A_F ∩ ⋂ lambda_G also on an input that validation then refuses.  A face
    on no cutting facet keeps A_F.

    Every other cut is read from the faces covering F, whose cuts are done,
    as are all the cutting facets.  For a cover H of F, the kernel of a
    form phi as above on the cut of H is
    A_H ∩ span F ∩ ⋂_{G ⊇ H} lambda_G = A_F ∩ ⋂_{G ⊇ H} lambda_G.  The cuts
    of further covers are met with it until the facets above the covers
    used include every cutting facet through F.  That happens: the lattice
    is graded, so every facet G ⊋ F contains a face covering F.  The cut
    found so far goes first into lattice_intersect, as it often lies in the
    next cover's cut already.
    """
    forms = fl.cone.support_forms
    groups = [reference] * len(fl.faces)
    cuts = list(groups)
    cutting: set[int] = set()  # the forms of the cutting facets
    for f in reversed(fl.faces):
        i = f.index
        if fl.up_covers[i]:
            h = fl.faces[fl.up_covers[i][0]]
            if groups[h.index] == h.span_lattice:
                groups[i] = f.span_lattice
            else:
                groups[i] = form_kernel(groups[h.index], forms[min(f.zero_set - h.zero_set)])
        cuts[i] = groups[i]
        if f.dim == fl.top.dim - 1 and lattices.get(i, groups[i]) != groups[i]:
            cuts[i] = lattice_intersect(lattices[i], groups[i])
            cutting |= f.zero_set
        need, covered = f.zero_set & cutting, set()
        # the covers on the most cutting facets first, so few cuts are met
        covers = sorted(fl.up_covers[i], key=lambda h: -len(fl.faces[h].zero_set & need))
        for h in covers:
            above = fl.faces[h].zero_set & need
            if above - covered:
                if covered:
                    cuts[i] = lattice_intersect(cuts[i], cuts[h])
                else:
                    phi = min(f.zero_set - fl.faces[h].zero_set)
                    cuts[i] = form_kernel(cuts[h], forms[phi])
                covered |= above
    return tuple(zip(groups, cuts))


def _check_full_rank(fl: FaceLattice, lattices) -> None:
    """Refuse the first (face index, lattice) pair of lattices whose lattice
    is not of full rank in the span of its face."""
    for i, lam in lattices:
        f = fl.faces[i]
        if lam.rank != f.dim:
            raise DegenerateFace(f"face {sorted(f.ray_set)}: lattice rank {lam.rank} != dim {f.dim}")
        if not all(map(f.span_lattice.member, lam.basis)):
            raise DegenerateFace(f"face {sorted(f.ray_set)}: lattice leaves the face span")


def _check_monotone(lambdas, pairs) -> None:
    """Refuse a decoration with lambdas[low] outside lambdas[high] for some
    cover pair (low, high) of pairs."""
    for low, high in pairs:
        if not all(map(lambdas[high].member, lambdas[low].basis)):
            raise DegenerateFace("face lattices are not monotone along covers")


def decorated_cone(fl: FaceLattice, lambdas) -> DecoratedCone:
    """Validate and freeze a face-lattice decoration."""
    lambdas = tuple(lambdas)
    if len(lambdas) != len(fl.faces):
        raise DegenerateFace(f"{len(lambdas)} lattices for {len(fl.faces)} faces")
    _check_full_rank(fl, enumerate(lambdas))
    _check_monotone(lambdas, ((i, j) for i, ups in enumerate(fl.up_covers) for j in ups))
    return DecoratedCone(fl, lambdas)


def decorate_by_facet_cuts(fl: FaceLattice, given: dict[int, Lattice]) -> DecoratedCone:
    """The decoration that keeps the given lattices (by face index) and
    gives every other face its facet cut; the reference defaults to the
    saturated span of the cone.  The model keeps the cuts: its reference and
    facet lattices are the ones cut here, so its face table computes no A_F
    again.

    Only the given lattices are validated, the reference among them when it
    is given: each must have full rank in the span of its face, which is
    checked before any cut is taken.  The cuts need no check.  The cut of F
    is A_F ∩ ⋂ lambda_G over the facets G ⊇ F (face_group_cuts).  It lies
    in A_F ⊆ span F, and it has full rank there, as the intersection with
    span F of lattices of full rank in span C and in the spans G ⊇ F.  On a
    cover pair F ⋖ H of two cut faces, A_F ⊆ A_H and every facet through H
    passes through F, so cut F ⊆ A_H ∩ ⋂_{G ⊇ H} lambda_G = cut H.

    Monotonicity is tested on the cover pairs the cuts do not guarantee: the
    up-covers of every given face, and the down-covers of a given face
    below a facet.  A pair of a cut face F below a given facet G or the
    given reference needs no test: cut F lies in A_F ⊆ reference, and in
    lambda_G, also on an input that validation refuses.  For G with lambda_G
    other than A_G the cut of F is met with A_G ∩ lambda_G, and for any
    other G, cut F ⊆ A_F ⊆ A_G = lambda_G.  decorated_cone, which `check`
    runs, validates every face.
    """
    reference = given.get(fl.top.index, fl.cone.span_lattice)
    if not all(map(fl.cone.span_lattice.member, reference.basis)):
        raise DegenerateFace("the reference lattice leaves the span of the cone")
    _check_full_rank(fl, sorted(given.items()))
    cuts = face_group_cuts(fl, reference, given)
    lambdas = tuple(given.get(i, cut) for i, (_, cut) in enumerate(cuts))
    below_facets = [i for i in given if fl.faces[i].dim < fl.top.dim - 1]
    pairs = {(j, i) for i in below_facets for j in fl.down_covers[i]}
    _check_monotone(lambdas, pairs | {(i, j) for i in given for j in fl.up_covers[i]})
    model = DecoratedCone(fl, lambdas)
    model.__dict__["_cuts"] = cuts  # the slot of the cached DecoratedCone._cuts
    return model


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
    Where the face table's A_f is span f ∩ Z^m, as on every model whose
    reference is span C ∩ Z^m, that exponent is the last factor of the
    table's divisibility chain for A_f / lambda_f.  Otherwise it is the lcm
    of the orders of the group's generators, the basis of span f ∩ Z^m,
    each taken modulo lambda_f (Lattice.order).
    """
    fl = model.fl
    if not f.ray_set:
        return (0,) * fl.cone.ambient_dim
    rays = fl.cone.extreme_rays
    total = tuple(map(sum, zip(*(rays[i] for i in f.ray_set))))
    row = model.face_table[f.index]
    if row.group == f.span_lattice:
        return vscale(row.factors[-1], total)
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
