"""Rational cone geometry with exact arithmetic.

A cone is stored by generators together with an irredundant dual
description (primitive support forms) and its primitive extreme rays.  The
double description method runs inside the saturated span of the generators,
so lower-dimensional cones are handled uniformly: every cone is
full-dimensional in its own span and support forms are pulled back to
integer forms on the ambient Z^m.

The face lattice enumerates every face exactly once, keyed by the set of
extreme rays it contains (cones here are always pointed), and works from
the ray-facet incidences: a face's zero set (the support forms vanishing on
it) is the intersection of its rays' zero sets, and the faces covering G
are the joins of G with one more ray that every ray of the join off G
reaches, so covers and dimensions need no span.  The saturated spans are
then built top-down, each the kernel of one support form on the span of a
cover (exactlin.form_kernel, one xgcd pass that leaves the canonical basis
with no Hermite elimination).  The lattice carries an incidence function
epsilon on cover pairs.  epsilon is propagated across the diamonds of the
lattice, faces by increasing dimension, from +1 on each face's first
down-cover; it is the geometric orientation up to one sign per face, so it
gives isomorphic complexes.  The same pass checks every diamond: each has
two middle faces, and their signs solve the diamond condition.
"""

from collections import Counter
from dataclasses import dataclass, field
from functools import cached_property

from .errors import NotInCone, NotPointed, OutOfRange, TooLarge, ZeroGenerator
from .exactlin import (
    Lattice,
    Mat,
    Vec,
    dot,
    form_kernel,
    hnf,
    is_zero_vec,
    lattice_from_rows,
    mat,
    primitive,
    rank,
    saturation,
    snf,
    vadd,
    vec,
    vec_mat,
    vneg,
    vscale,
    vsub,
)


def _dd_extreme_rays(forms: list[Vec], dim: int) -> tuple[list[Vec], list[Vec]]:
    """Double description core: lineality basis and extreme rays of
    {x in R^dim : f(x) >= 0 for all f in forms}.

    Incremental over the forms; rays carry bitmasks of the processed forms
    vanishing on them, used for the standard combinatorial adjacency test.

    Before that scan, a pair of rays must pass the rank condition (Fukuda
    and Prodon, "Double description method revisited", LNCS 1120, 1996).
    The processed forms cut a cone in R^dim whose lineality space has
    dimension l = len(lineality).  Two of its extreme rays are adjacent
    exactly when the smallest face holding both has dimension l + 2.  That
    face is cut out by the forms vanishing on both, the set common, so
    these forms have rank dim - l - 2, and there are at least that many.
    A pair with fewer common forms is not adjacent.  The combinatorial test
    is exact, so it would refuse that pair too, and skipping the scan
    changes no ray.
    """
    lineality: list[Vec] = [tuple(1 if i == j else 0 for j in range(dim)) for i in range(dim)]
    rays: list[tuple[Vec, int]] = []
    for k, f in enumerate(forms):
        lin_vals = [dot(f, w) for w in lineality]
        if any(lin_vals):
            # f cuts the lineality space: pivot one lineality vector into a ray
            j = next(i for i, val in enumerate(lin_vals) if val)
            w = lineality[j]
            fw = lin_vals[j]
            if fw < 0:
                w, fw = vneg(w), -fw
            lineality = [
                primitive(vsub(vscale(fw, u), vscale(lin_vals[i], w)))
                for i, u in enumerate(lineality)
                if i != j
            ]
            new_rays = []
            for r, mask in rays:
                fr = dot(f, r)
                new_rays.append((primitive(vsub(vscale(fw, r), vscale(fr, w))), mask | (1 << k)))
            # w vanishes on every processed form but is positive on f
            new_rays.append((w, (1 << k) - 1))
            rays = new_rays
            continue
        pos, zer, neg = [], [], []
        for idx, (r, mask) in enumerate(rays):
            fr = dot(f, r)
            if fr > 0:
                pos.append((idx, r, mask, fr))
            elif fr == 0:
                zer.append((r, mask | (1 << k)))
            else:
                neg.append((idx, r, mask, fr))
        if not neg:
            rays = [(r, m) for _, r, m, _ in pos] + zer
            continue

        def adjacent(ip, inn, common):
            for idx, (_, m) in enumerate(rays):
                if idx != ip and idx != inn and m & common == common:
                    return False
            return True

        min_common = dim - len(lineality) - 2
        combos = []
        for ip, rp, mp, fp in pos:
            for inn, rn, mn, fn in neg:
                common = mp & mn
                if common.bit_count() >= min_common and adjacent(ip, inn, common):
                    combos.append(
                        (primitive(vsub(vscale(fp, rn), vscale(fn, rp))), common | (1 << k))
                    )
        rays = [(r, m) for _, r, m, _ in pos] + zer + combos
    return lineality, [r for r, _ in rays]


@dataclass(frozen=True)
class RationalCone:
    """A pointed rational cone with generators, support forms, extreme rays.

    support_forms are primitive integer linear forms, nonnegative on the
    cone, each defining a facet; within the span of the cone,
    cone = {x : all forms >= 0}.  extreme_rays are primitive and sorted.
    """

    ambient_dim: int
    generators: Mat
    support_forms: Mat
    extreme_rays: Mat
    span_lattice: Lattice

    @property
    def dim(self) -> int:
        return self.span_lattice.rank

    def contains(self, x) -> bool:
        """Exact membership for integer vectors."""
        if not self.span_lattice.member(x):
            return False
        return all(dot(a, x) >= 0 for a in self.support_forms)


def dual_description(generators, ambient_dim: int | None = None) -> RationalCone:
    """Build the full dual description of cone(generators).

    Raises ZeroGenerator on a zero generator and NotPointed when the cone
    contains a line.
    """
    gens = mat(generators)
    if ambient_dim is None:
        if not gens:
            raise ValueError("ambient_dim required for an empty generator list")
        ambient_dim = len(gens[0])
    for g in gens:
        if is_zero_vec(g):
            raise ZeroGenerator("generators must be nonzero")
    span = saturation(lattice_from_rows(ambient_dim, gens))
    d = span.rank
    if d == 0:
        return RationalCone(ambient_dim, gens, (), (), span)
    gcoords = [span.coords(g) for g in gens]
    lin, dual_rays = _dd_extreme_rays(gcoords, d)
    assert not lin, "dual cone of a full-dimensional cone has no lineality"
    if rank(dual_rays) < d:
        raise NotPointed("the cone contains a line")
    forms_local = sorted(set(dual_rays))
    ext_local = set()
    for gc in gcoords:
        zero_forms = [phi for phi in forms_local if dot(phi, gc) == 0]
        if rank(zero_forms) == d - 1:
            ext_local.add(primitive(gc))
    # Pull back to Z^m through a unimodular completion of the span basis.
    # span is saturated, so snf(span.basis) has d ones on its diagonal and
    # u @ span.basis == w[:d]: the rows of w past d complete span.basis to
    # the unimodular matrix diag(u^-1, I) @ w, whose HNF is I, so its
    # Hermite transform is its inverse.
    _, w = snf(span.basis)
    _, basis_inv = hnf(span.basis + w[d:])
    m = ambient_dim

    def pull_back(phi):
        return tuple(sum(phi[i] * basis_inv[j][i] for i in range(d)) for j in range(m))

    support = mat(sorted(pull_back(phi) for phi in forms_local))
    ext = mat(sorted(vec_mat(e, span.basis) for e in ext_local))
    return RationalCone(ambient_dim, gens, support, ext, span)


@dataclass(frozen=True)
class Face:
    """A face of a pointed cone, identified by the extreme rays on it."""

    index: int
    dim: int
    ray_set: frozenset[int]
    zero_set: frozenset[int]
    span_lattice: Lattice


@dataclass(frozen=True, eq=False)
class FaceLattice:
    cone: RationalCone
    faces: tuple[Face, ...]
    up_covers: tuple[tuple[int, ...], ...]
    down_covers: tuple[tuple[int, ...], ...]
    epsilon: dict[tuple[int, int], int]
    _by_zero_set: dict[frozenset[int], int] = field(repr=False)

    @property
    def top(self) -> Face:
        return self.faces[-1]

    @property
    def apex(self) -> Face:
        return self.faces[0]

    def faces_of_dim(self, d: int) -> list[Face]:
        return [f for f in self.faces if f.dim == d]

    def faces_above(self, g: Face) -> list[Face]:
        """The faces containing g, in index order."""
        return [self.faces[i] for i in self._up_sets[g.index]]

    @cached_property
    def _up_sets(self) -> tuple[tuple[int, ...], ...]:
        """The sorted indices of the faces above each face, filled top-down:
        a face and the faces above its covers, as every face above F
        contains a cover of F (the lattice is graded)."""
        ups: list[tuple[int, ...]] = [()] * len(self.faces)
        for f in reversed(self.faces):
            above = {f.index}.union(*(ups[h] for h in self.up_covers[f.index]))
            ups[f.index] = tuple(sorted(above))
        return tuple(ups)

    def facet_indices(self) -> list[int]:
        return [f.index for f in self.faces if f.dim == self.top.dim - 1]

    def by_zero_set(self, zs: frozenset[int]) -> Face | None:
        idx = self._by_zero_set.get(zs)
        return None if idx is None else self.faces[idx]


# Past this many faces face_lattice raises TooLarge, before it computes any
# span.  The largest lattices it is met with: 2920 faces in the tests (the
# six-vertex RP² model), 184 in the benchmark workloads.  The orthant of m
# unit vectors has 2^m faces, so m = 14 is refused.
FACE_CAP = 10_000


def face_lattice(cone: RationalCone) -> FaceLattice:
    """Enumerate all faces, the Hasse diagram, and the incidence function.

    The faces are the intersections of facets, as sets of extreme rays,
    counted as the closure finds them: past FACE_CAP it raises TooLarge,
    before any span is computed.  A face's zero set is the intersection of
    the zero sets of its rays (all forms for the apex).

    Covers come from joins, counted after Kaibel and Pfetsch (Comput.
    Geom. 23, 2002), with no ranks.  The join of G and a ray r not on G is
    the smallest face cl(G ∪ r); its zero set is zs(G) ∩ zs(r).  A join J
    covers G exactly when all |J ∖ G| rays of J off G join G to J: if J
    covers G, each such join is a face strictly above G inside J, so J;
    if a face K lies strictly between G and J, a ray of K ∖ G joins G to a
    face inside K, which is not J.  The dimensions come from the grading:
    the apex has dimension 0 and a cover one more than the face it covers.
    The faces are ordered by (dimension, sorted rays).

    The spans are then built top-down.  The top keeps span C ∩ Z^m.  Every
    other face F is a facet of its first cover H, so for a form phi in
    zs(F) ∖ zs(H), span F = span H ∩ {phi = 0}: the right side contains
    span F and has its rank, as phi is nonzero on span H, and span F is
    saturated.  The kernel of phi on span H (form_kernel) is that lattice,
    saturated as a kernel in a saturated lattice, and comes out in its
    canonical basis.  So each face below the top costs one form kernel.

    The incidence signs are propagated across diamonds before the lattice
    is built: per face, +1 on its first down-cover, and each further
    down-cover signed from one already signed through a diamond they share
    (argument in _incidence_signs).  The same pass verifies every diamond.
    """
    rays = cone.extreme_rays
    forms = cone.support_forms
    n_rays = len(rays)
    ray_zero = [frozenset(i for i, a in enumerate(forms) if dot(a, r) == 0) for r in rays]
    facet_rays = [
        frozenset(j for j in range(n_rays) if i in ray_zero[j]) for i in range(len(forms))
    ]

    # the apex is a face of a pointed cone, and meets every facet in itself
    seen: set[frozenset[int]] = {frozenset(range(n_rays)), frozenset()}
    work = [frozenset(range(n_rays))]
    while work:
        cur = work.pop()
        for fr in facet_rays:
            nxt = cur & fr
            if nxt not in seen:
                seen.add(nxt)
                if len(seen) > FACE_CAP:
                    raise TooLarge(f"the cone has more than {FACE_CAP} faces")
                work.append(nxt)

    # covers by join counts, on zero sets as bit masks: J = cl(G ∪ r)
    # covers G when all |J ∖ G| rays of J off G join G to J.  A ray on G
    # joins G to itself, which the count drops: |G| rays, not 0.
    all_forms = frozenset(range(len(forms)))
    zero_of = {rs: all_forms.intersection(*(ray_zero[j] for j in rs)) for rs in seen}
    ray_mask = [sum(1 << i for i in zs) for zs in ray_zero]
    mask_of = {rs: sum(1 << i for i in zs) for rs, zs in zero_of.items()}
    by_mask = {mask: rs for rs, mask in mask_of.items()}
    covers = {}
    for g, mask in mask_of.items():
        joins = Counter(map(by_mask.__getitem__, map(mask.__and__, ray_mask)))
        covers[g] = [h for h, n in joins.items() if n == len(h) - len(g)]

    # dimensions by the grading, from the apex up: a cover has more rays
    dim = {frozenset(): 0}
    for g in sorted(seen, key=len):
        for h in covers[g]:
            dim[h] = dim[g] + 1
    order = sorted(seen, key=lambda rs: (dim[rs], sorted(rs)))
    index = {rs: i for i, rs in enumerate(order)}
    up: list[list[int]] = [sorted(index[h] for h in covers[g]) for g in order]
    down: list[list[int]] = [[] for _ in order]
    for i, ups in enumerate(up):
        for j in ups:
            down[j].append(i)

    # spans top-down: F is a facet of its first cover H, and a form of
    # zs(F) ∖ zs(H) cuts span H down to span F
    spans = [cone.span_lattice] * len(order)
    for i in reversed(range(len(order) - 1)):
        h = up[i][0]
        phi = min(zero_of[order[i]] - zero_of[order[h]])
        spans[i] = form_kernel(spans[h], forms[phi])
    faces = tuple(Face(i, dim[rs], rs, zero_of[rs], spans[i]) for i, rs in enumerate(order))
    by_zero_set = {f.zero_set: f.index for f in faces}

    down_covers = tuple(map(tuple, down))
    return FaceLattice(
        cone=cone,
        faces=faces,
        up_covers=tuple(map(tuple, up)),
        down_covers=down_covers,
        epsilon=_incidence_signs(down_covers),
        _by_zero_set=by_zero_set,
    )


def _incidence_signs(down) -> dict[tuple[int, int], int]:
    """An incidence function on the cover pairs, by propagation across
    diamonds: no bases, orientations or determinants.  down holds the
    down-covers of each face, by face index, the faces by increasing
    dimension.

    Faces are taken in that order, so the signs below F are set when F is
    reached.  The first down-cover of F gets +1.  Every further down-cover
    H is reached from a down-cover G already signed through a shared
    down-cover E: G and H are the two middle faces of the diamond [E, F],
    and the diamond condition
    eps(E, G) eps(G, F) + eps(E, H) eps(H, F) = 0 forces
    eps(H, F) = -eps(E, G) eps(G, F) eps(E, H).

    Every down-cover is reached.  For dim F >= 3 the facets of F are
    connected through its ridges: so are the facets of a cross-section of F,
    a polytope, whose facet-ridge graph is the graph of its polar polytope
    and hence connected (Balinski; Ziegler, Lectures on Polytopes, §3.5).
    The two rays of a 2-face share the apex; a ray has the apex alone.

    The pass meets no contradiction, by induction on dimension.  Let the
    signs below F be the geometric incidence function eps_geo (the
    orientations of Bruns-Herzog, Cohen-Macaulay Rings, §6.2) times
    delta(E) delta(G) for some delta = ±1 per face.  Then
    eps_geo(., F) delta(.) solves every diamond of F, as
    delta(E) (eps_geo(E, G) eps_geo(G, F) + eps_geo(E, H) eps_geo(H, F))
    = 0.  The diamonds fix eps(., F) from its first value, because the
    down-covers are connected, so the pass gives that solution times one
    sign delta(F), and the induction goes on.  Hence the result differs
    from eps_geo by delta(G) delta(F) on every pair, and its cochain
    complexes are isomorphic to the geometric ones through the diagonal
    basis change F -> delta(F) F.

    The same pass verifies every diamond, so no second walk is needed
    (_verify_diamond, which `check` runs, stays the independent verifier).
    Each signed down-cover G leaves the work list once and visits every
    diamond [E, F] through it.  Its one other middle face H is signed from
    G when it has no sign yet, which solves that diamond; otherwise its sign
    must be the one that G and E force.  Once every down-cover is signed,
    every diamond of F has been visited from a signed middle face, so all
    of them hold.  A diamond without exactly two middle faces, a forced
    sign that differs, or a down-cover left unsigned is a construction bug,
    not an input: it raises AssertionError explicitly, so the checks also
    run under python -O.
    """
    eps: dict[tuple[int, int], int] = {}
    for f, lows in enumerate(down):
        if not lows:
            continue
        mids: dict[int, list[int]] = {}
        for h in lows:
            for e in down[h]:
                mids.setdefault(e, []).append(h)
        if any(len(pair) != 2 for pair in mids.values()):
            raise AssertionError("diamond property violated in face lattice")
        sign = {lows[0]: 1}
        work = [lows[0]]
        while work:
            g = work.pop()
            for e in down[g]:
                a, b = mids[e]
                h = b if a == g else a
                forced = -eps[(e, g)] * sign[g] * eps[(e, h)]
                if h not in sign:
                    sign[h] = forced
                    work.append(h)
                elif sign[h] != forced:
                    raise AssertionError("incidence function fails the diamond condition")
        if len(sign) != len(lows):
            raise AssertionError("incidence function misses a cover pair")
        eps.update(((h, f), s) for h, s in sign.items())
    return eps


def _verify_diamond(fl: FaceLattice, eps: dict[tuple[int, int], int]) -> None:
    """Every cover pair must carry a sign ±1, and every length-two interval
    must contain exactly two intermediate faces with alternating signs;
    violations are construction bugs, not inputs."""
    for f in fl.faces:
        lows = fl.down_covers[f.index]
        if any(eps.get((h, f.index)) not in (1, -1) for h in lows):
            raise AssertionError("incidence function misses a cover pair")
        grandchildren = {e for h in lows for e in fl.down_covers[h]}
        for e in grandchildren:
            mids = [h for h in lows if e in fl.down_covers[h]]
            if len(mids) != 2:
                raise AssertionError("diamond property violated in face lattice")
            h1, h2 = mids
            total = eps[(e, h1)] * eps[(h1, f.index)] + eps[(e, h2)] * eps[(h2, f.index)]
            if total != 0:
                raise AssertionError("incidence function fails the diamond condition")


def minimal_face(fl: FaceLattice, x) -> Face:
    """The unique face with x in its relative interior."""
    cone = fl.cone
    if not cone.span_lattice.member(x):
        raise NotInCone(f"{x} is not in the span of the cone")
    vals = [dot(a, x) for a in cone.support_forms]
    if any(v < 0 for v in vals):
        raise NotInCone(f"{x} violates a support form")
    zs = frozenset(i for i, v in enumerate(vals) if v == 0)
    f = fl.by_zero_set(zs)
    assert f is not None, "zero set of a cone point must be closed"
    return f


def is_simple_face(fl: FaceLattice, f: Face) -> bool:
    """True when the interval [f, C] is the face lattice of a simplex; f
    must be a proper face.

    That holds exactly when f lies on codim f facets, and f's zero set is
    the set of facets through f.  If [f, C] is Boolean of rank c = codim f,
    its c coatoms are the facets through f.  Conversely, [f, C] is the face
    lattice of the face figure C / f, the image of C in R^m / span f: a
    pointed cone of dimension c whose facets are the images of the facets
    through f (Ziegler, Lectures on Polytopes, ch. 2).  Its c facet forms
    cut out its lineality space, {0}, so they are a basis of the dual
    space, and the cone is simplicial with a Boolean face lattice.
    """
    top = fl.top
    if f.index == top.index:
        raise OutOfRange("simplicity is defined for proper faces")
    return len(f.zero_set) == top.dim - f.dim


def grading_form(cone: RationalCone) -> Vec:
    """Sum of the support forms: integer, strictly positive on cone minus 0."""
    total = (0,) * cone.ambient_dim
    for a in cone.support_forms:
        total = vadd(total, a)
    return vec(total)
