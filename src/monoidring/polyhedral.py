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
it) is the intersection of its rays' zero sets, its saturated span is the
integer kernel of its zero-set forms (zero_set_kernel, which also gives the
face groups of a decorated cone), and the faces covering G are the joins of
G with one more ray that have dimension dim G + 1.  The lattice carries an
incidence function epsilon on cover pairs.  epsilon is built from a
deterministic ordered basis per face and is verified against the diamond
condition exhaustively at construction time.
"""

from dataclasses import dataclass, field
from functools import cached_property

from .errors import NotInCone, NotPointed, OutOfRange
from .exactlin import (
    Lattice,
    Mat,
    Vec,
    complete_saturated_basis,
    det,
    dot,
    is_zero_vec,
    lattice_from_rows,
    left_kernel,
    mat,
    primitive,
    rank,
    saturation,
    unimodular_inverse,
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

        combos = []
        for ip, rp, mp, fp in pos:
            for inn, rn, mn, fn in neg:
                common = mp & mn
                if adjacent(ip, inn, common):
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

    Raises NotPointed when the cone contains a line.
    """
    gens = mat(generators)
    if ambient_dim is None:
        if not gens:
            raise ValueError("ambient_dim required for an empty generator list")
        ambient_dim = len(gens[0])
    for g in gens:
        if is_zero_vec(g):
            raise ValueError("zero generator")
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
    # pull back to Z^m through a unimodular completion of the span basis
    basis = complete_saturated_basis(span)
    basis_inv = unimodular_inverse(basis)
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


def zero_set_kernel(forms: Mat, zero_set, lat: Lattice) -> Lattice:
    """lat ∩ {phi_i = 0 : i in zero_set}: the integer kernel of those forms
    on lat, one HNF of the (rank × |zero_set|) matrix of their values on the
    basis of lat.

    For a face F of C, the zero set of F and a lattice lat inside span C,
    this is lat ∩ span F, because span F = span C ∩ {phi_i = 0 : i in
    zero_set(F)}: the forms vanish on F; conversely, for x on the right and
    p in relint F, where every other form is positive, p + t x lies in C
    and on every phi_i = 0 for small t > 0, hence in F, and
    x = ((p + t x) - p) / t.  On lat = span C ∩ Z^m the kernel is the
    saturated span of F: a kernel is saturated in lat, and lat in Z^m.
    """
    cols = sorted(zero_set)
    values = [tuple(dot(forms[i], b) for i in cols) for b in lat.basis]
    kernel = left_kernel(values, lat.rank)
    return lattice_from_rows(lat.ambient_dim, [vec_mat(k, lat.basis) for k in kernel])


def face_lattice(cone: RationalCone) -> FaceLattice:
    """Enumerate all faces, the Hasse diagram, and the incidence function.

    The faces are the intersections of facets, as sets of extreme rays.  A
    face's zero set is the intersection of the zero sets of its rays (all
    forms for the apex), and its saturated span is the kernel of its
    zero-set forms on span C ∩ Z^m (see zero_set_kernel).

    Covers come from joins, after Kaibel and Pfetsch (Comput. Geom. 23,
    2002).  The join of G and a ray r not on G is the smallest face
    cl(G ∪ r); its zero set is zs(G) ∩ zs(r).  If F covers G, then for
    every r in F ∖ G the join is a face with G ⊊ cl(G ∪ r) ⊆ F; as the
    lattice is graded, its dimension is dim G + 1 = dim F, so it is F.  The
    faces covering G are thus the joins of dimension dim G + 1.
    """
    rays = cone.extreme_rays
    forms = cone.support_forms
    n_rays = len(rays)
    ray_zero = [frozenset(i for i, a in enumerate(forms) if dot(a, r) == 0) for r in rays]
    facet_rays = [
        frozenset(j for j in range(n_rays) if i in ray_zero[j]) for i in range(len(forms))
    ]

    seen: set[frozenset[int]] = {frozenset(range(n_rays))}
    work = [frozenset(range(n_rays))]
    while work:
        cur = work.pop()
        for fr in facet_rays:
            nxt = cur & fr
            if nxt not in seen:
                seen.add(nxt)
                work.append(nxt)
    if frozenset() not in seen:
        seen.add(frozenset())

    all_forms = frozenset(range(len(forms)))
    entries = []
    for rs in seen:
        zs = all_forms.intersection(*(ray_zero[j] for j in rs))
        lat = zero_set_kernel(forms, zs, cone.span_lattice)
        entries.append((lat.rank, tuple(sorted(rs)), rs, zs, lat))
    entries.sort(key=lambda e: (e[0], e[1]))
    faces = tuple(
        Face(idx, dim, rs, zs, lat) for idx, (dim, _, rs, zs, lat) in enumerate(entries)
    )
    by_zero_set = {f.zero_set: f.index for f in faces}

    up: list[list[int]] = [[] for _ in faces]
    down: list[list[int]] = [[] for _ in faces]
    for g in faces:
        # a ray on g joins it to g itself, which the dimension test drops
        for j in {by_zero_set[g.zero_set & z] for z in ray_zero}:
            if faces[j].dim == g.dim + 1:
                up[g.index].append(j)
                down[j].append(g.index)

    fl = FaceLattice(
        cone=cone,
        faces=faces,
        up_covers=tuple(tuple(sorted(u)) for u in up),
        down_covers=tuple(tuple(sorted(d)) for d in down),
        epsilon={},
        _by_zero_set=by_zero_set,
    )
    fl.epsilon.update(_build_epsilon(fl, reverse_rays=False))
    _verify_diamond(fl, fl.epsilon)
    return fl


def _reference_basis(rays: Mat, ray_ids: list[int], dim: int) -> tuple[list[Vec], list[int]]:
    """Ordered reference basis of a face and pivot columns for it.

    One fraction-free echelon pass over the rays in the given order: a ray
    is kept when it is independent of the rays kept so far, i.e. when its
    reduction against the echelon rows is nonzero; that reduction joins the
    echelon rows with its first nonzero column as pivot.  Each echelon row
    vanishes on the pivots of the rows before it, so the echelon rows
    restricted to the pivot columns form a triangular matrix with nonzero
    diagonal.  They arise from the kept rays by invertible row operations,
    hence det basis[:, pivots] != 0.
    """
    chosen: list[Vec] = []
    echelon: list[tuple[int, Vec]] = []
    for i in ray_ids:
        if len(chosen) == dim:
            break
        r = rays[i]
        for p, e in echelon:
            c = r[p]
            if c:
                ep = e[p]
                r = primitive(tuple(ep * x - c * y for x, y in zip(r, e)))
        piv = next((j for j, x in enumerate(r) if x), None)
        if piv is not None:
            chosen.append(rays[i])
            echelon.append((piv, r))
    return chosen, sorted(p for p, _ in echelon)


def _sign_of_minor(rows: list[Vec], cols: list[int]) -> int:
    d = det([[row[j] for j in cols] for row in rows])
    return (d > 0) - (d < 0)


def _build_epsilon(fl: FaceLattice, reverse_rays: bool) -> dict[tuple[int, int], int]:
    """Incidence signs from per-face reference bases.

    Each face F gets the first linearly independent extreme rays (in index
    order, or reversed) as an ordered basis B_F; the sign of a cover pair
    (G, F) is the orientation of (B_G, u) against B_F, where u is the
    difference of the ray sums, a relative interior point of F modulo the
    span of G.  That orientation is the sign of det C, where C holds the
    coordinates in B_F of the rows of X = [B_G; u].

    It is computed on integers only.  The echelon pass that picks B_F also
    picks pivot columns P with det B_F[:, P] != 0 (see _reference_basis).
    Every row of X lies in span F, so C B_F = X, and restricting to the
    columns P gives C B_F[:, P] = X[:, P], hence
    det C = det X[:, P] / det B_F[:, P]: the sign is
    sign det X[:, P] * sign det B_F[:, P], two Bareiss determinants.
    """
    rays = fl.cone.extreme_rays
    basis_of: dict[int, list[Vec]] = {}
    pivots_of: dict[int, list[int]] = {}
    ray_sum: dict[int, Vec] = {}
    for f in fl.faces:
        ids = sorted(f.ray_set, reverse=reverse_rays)
        basis_of[f.index], pivots_of[f.index] = _reference_basis(rays, ids, f.dim)
        total = (0,) * fl.cone.ambient_dim
        for i in f.ray_set:
            total = vadd(total, rays[i])
        ray_sum[f.index] = total

    eps: dict[tuple[int, int], int] = {}
    for f in fl.faces:
        cols = pivots_of[f.index]
        sign_f = _sign_of_minor(basis_of[f.index], cols)
        for gid in fl.down_covers[f.index]:
            assert fl.faces[gid].ray_set < f.ray_set
            u = vsub(ray_sum[f.index], ray_sum[gid])
            sign = sign_f * _sign_of_minor(basis_of[gid] + [u], cols)
            assert sign != 0
            eps[(gid, f.index)] = sign
    return eps


def _verify_diamond(fl: FaceLattice, eps: dict[tuple[int, int], int]) -> None:
    """Every length-two interval must contain exactly two intermediate faces
    with alternating signs; violations are construction bugs, not inputs."""
    for f in fl.faces:
        lows = fl.down_covers[f.index]
        grandchildren = {e for h in lows for e in fl.down_covers[h]}
        for e in grandchildren:
            mids = [h for h in lows if e in fl.down_covers[h]]
            if len(mids) != 2:
                raise AssertionError("diamond property violated in face lattice")
            h1, h2 = mids
            total = eps[(e, h1)] * eps[(h1, f.index)] + eps[(e, h2)] * eps[(h2, f.index)]
            if total != 0:
                raise AssertionError("incidence function fails the diamond condition")


def incidence(fl: FaceLattice) -> dict[tuple[int, int], int]:
    """The incidence function on cover pairs (already verified)."""
    return dict(fl.epsilon)


def alternative_epsilon(fl: FaceLattice) -> dict[tuple[int, int], int]:
    """A second admissible incidence function (reversed ray order), for
    checking that cohomology dimensions do not depend on the choice."""
    eps = _build_epsilon(fl, reverse_rays=True)
    _verify_diamond(fl, eps)
    return eps


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
    must be a proper face."""
    top = fl.top
    if f.index == top.index:
        raise OutOfRange("simplicity is defined for proper faces")
    codim = top.dim - f.dim
    over = f.zero_set  # exactly the facets containing f
    if len(over) != codim:
        return False
    interval = fl.faces_above(f)
    if len(interval) != 2 ** codim:
        return False
    zero_sets = {g.zero_set for g in interval}
    return len(zero_sets) == 2 ** codim and all(zs <= over for zs in zero_sets)


def grading_form(cone: RationalCone) -> Vec:
    """Sum of the support forms: integer, strictly positive on cone minus 0."""
    total = (0,) * cone.ambient_dim
    for a in cone.support_forms:
        total = vadd(total, a)
    return vec(total)
