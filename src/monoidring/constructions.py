"""Builders for decorated-cone models with prescribed cohomology.

The main construction turns a simplicial complex into a seminormal model
whose local cohomology at one distinguished degree is the reduced homology
of the complex.  Steps:

1. realize the dual simplex of the vertex simplex as a scaled standard
   simplex, erect a pyramid over it with an integer apex;
2. plane off the pyramid faces corresponding to the minimal non-faces of
   the complex, each by a small rational displacement (geometrically
   decreasing, so later cuts never interfere with earlier ones);
3. erect a second pyramid over the planed polytope, embed it at height one
   and take the cone over it;
4. decorate: facets matching the vertex-derived side facets keep their full
   saturated lattice, every other facet keeps only the points of even last
   coordinate; faces inherit the intersection of the facet lattices above
   them, the facet cut of monoid.decorate_by_facet_cuts.

The apex of the second pyramid is the distinguished degree.  The cone is
built from what the construction knows, with one double description, of
the planed polytope's constraints: its rays are the lifted vertices and the
apex, and its forms the lifted constraints and the base.  Construction
success is verified (the facet inventory, read off the coatoms and atoms of
the face lattice; survival and dimension of the expected faces; simplicity
away from the distinguished ray, a facet count per ray; and the
order-reversing bijection between the filter at the apex and the complex);
on failure the displacement scale is doubled and the construction retries.

A self-contained simplicial chain complex provides the independent homology
oracle, including integer torsion primes.
"""

import itertools
import re
from dataclasses import dataclass

from .cohomology import filter_at
from .errors import ParseError, VerificationFailed
from .exactlin import (
    Lattice,
    Mat,
    Vec,
    identity,
    lattice_from_rows,
    lattice_intersect,
    mat,
    prime_factors,
    primitive,
    rank,
    rank_mod,
    snf,
)
from .monoid import DecoratedCone, decorate_by_facet_cuts
from .polyhedral import (
    RationalCone,
    _dd_extreme_rays,
    dual_description,
    face_lattice,
    is_simple_face,
    minimal_face,
)


def read_lines(path) -> list[str]:
    """The lines of a text input file; ParseError unless it is UTF-8."""
    with open(path, encoding="utf-8") as fh:
        try:
            return list(fh)
        except UnicodeDecodeError as exc:
            raise ParseError("input is not UTF-8 text") from exc


_INTEGER = re.compile(r"[+-]?[0-9]+")


def read_int(token: str, message: str) -> int:
    """The integer an input token writes in ASCII digits, with an optional
    sign; ParseError(message) for anything else.  int() alone would also
    take digit-group underscores and non-ASCII decimal digits."""
    if not _INTEGER.fullmatch(token):
        raise ParseError(message)
    return int(token)


@dataclass(frozen=True)
class SimplicialComplex:
    """An abstract simplicial complex given by its inclusion-maximal faces."""

    vertices: tuple[int, ...]
    facets: tuple[frozenset[int], ...]

    @classmethod
    def from_facets(cls, facets) -> "SimplicialComplex":
        sets = [frozenset(f) for f in facets if f]
        maximal = [f for f in sets if not any(f < g for g in sets)]
        uniq = sorted(set(maximal), key=lambda f: sorted(f))
        vertices = tuple(sorted(set().union(*uniq))) if uniq else ()
        return cls(vertices, tuple(uniq))

    @classmethod
    def from_file(cls, path) -> "SimplicialComplex":
        """Read one facet per line, vertices as integers, ``#`` comments;
        raises ParseError on a non-integer vertex or a file with none."""
        facets = []
        for line in read_lines(path):
            line = line.split("#", 1)[0].strip()
            if not line:
                continue
            message = f"bad vertex in facet {line!r}"
            facets.append([read_int(tok, message) for tok in line.split()])
        if not facets:
            raise ParseError("complex file lists no vertex")
        return cls.from_facets(facets)

    def faces(self) -> set[frozenset[int]]:
        out = {frozenset()}
        for f in self.facets:
            for k in range(1, len(f) + 1):
                out.update(map(frozenset, itertools.combinations(sorted(f), k)))
        return out

    def minimal_non_faces(self) -> list[frozenset[int]]:
        faces = self.faces()
        out = []
        for k in range(1, len(self.vertices) + 1):
            for sub in itertools.combinations(self.vertices, k):
                s = frozenset(sub)
                if s in faces:
                    continue
                if all(s - {v} in faces for v in s):
                    out.append(s)
        return sorted(out, key=sorted)

    @property
    def dim(self) -> int:
        return max((len(f) for f in self.facets), default=0) - 1


RP2_SIX_VERTEX = SimplicialComplex.from_facets(
    [
        (1, 2, 5),
        (1, 2, 6),
        (1, 3, 4),
        (1, 3, 6),
        (1, 4, 5),
        (2, 3, 4),
        (2, 3, 5),
        (2, 4, 6),
        (3, 5, 6),
        (4, 5, 6),
    ]
)


@dataclass(frozen=True)
class HomologyResult:
    """Reduced homology of a simplicial complex: dims_by_degree[j + 1] is
    the dimension of H~_j, for j = -1 .. dim."""

    dims_q: tuple[int, ...]
    dims_p: dict[int, tuple[int, ...]]
    torsion_primes: frozenset[int]

    def reduced_rank(self, j: int, p: int | None = None) -> int:
        dims = self.dims_q if p is None or p not in self.dims_p else self.dims_p[p]
        idx = j + 1
        if idx < 0 or idx >= len(dims):
            return 0
        return dims[idx]


def simplicial_homology(delta: SimplicialComplex, primes=()) -> HomologyResult:
    """Reduced simplicial homology over Q and prime fields, with the torsion
    primes of the integer boundary matrices.  Independent of the face-filter
    machinery: this is the plain ordered chain complex of the complex."""
    faces_by_dim: list[list[tuple[int, ...]]] = [[()]]
    all_faces = delta.faces()
    for k in range(delta.dim + 1):
        faces_by_dim.append(sorted(tuple(sorted(f)) for f in all_faces if len(f) == k + 1))
    boundaries: list[Mat] = []
    for k in range(1, len(faces_by_dim)):
        rows = faces_by_dim[k]
        cols = faces_by_dim[k - 1]
        col_index = {f: i for i, f in enumerate(cols)}
        matrix = []
        for f in rows:
            row = [0] * len(cols)
            for i in range(len(f)):
                sub = f[:i] + f[i + 1 :]
                row[col_index[sub]] = (-1) ** i
            matrix.append(tuple(row))
        boundaries.append(mat(matrix))

    def dims_over(p: int | None) -> tuple[int, ...]:
        rk = rank if p is None else (lambda m: rank_mod(m, p))
        ranks = [rk(b) if b and b[0] else 0 for b in boundaries]
        out = []
        for k in range(len(faces_by_dim)):
            n = len(faces_by_dim[k])
            r_in = ranks[k] if k < len(boundaries) else 0
            r_out = ranks[k - 1] if k > 0 else 0
            out.append(n - r_in - r_out)
        return tuple(out)

    tors: set[int] = set()
    for b in boundaries:
        if not b or not b[0]:
            continue
        d, _ = snf(b)
        for x in d:
            if x > 1:
                tors |= prime_factors(x)
    dims_q = dims_over(None)
    dims_p = {p: dims_over(p) for p in sorted(set(primes) | tors)}
    return HomologyResult(dims_q, dims_p, frozenset(tors))


@dataclass(frozen=True, eq=False)
class ConstructionResult:
    model: DecoratedCone
    distinguished_degree: Vec
    rank: int
    provenance: tuple[str, ...]


def _pi_constraints(n: int) -> list[tuple[Vec, int]]:
    """H-representation (linear, rhs) with linear . y >= rhs of the first
    pyramid: base z >= 0 and one side facet per vertex of the complex."""
    cons: list[tuple[Vec, int]] = []
    cons.append((tuple([0] * (n - 1) + [1]), 0))  # z >= 0, the base
    for i in range(n - 1):
        lin = [0] * n
        lin[i] = 1
        lin[-1] = -1
        cons.append((tuple(lin), 0))  # x_i - z >= 0, side facet of vertex i
    lin = [-1] * n
    cons.append((tuple(lin), -n))  # n - sum x - z >= 0, side facet of vertex n
    return cons


def _pyramid_base_rays(constraints: list[tuple[Vec, int]], dim: int) -> list[Vec]:
    """The rays (t v, 0, t) of the cone over the pyramid over the polytope
    {y : lin . y >= rhs}, one for each vertex v, t the least positive
    integer with t v integral.

    They are read off the homogenization cone {(y, t) : lin . y >= rhs t,
    t >= 0}: its extreme rays are primitive, and a ray (r, t) with t > 0 is
    t times the vertex r / t with gcd(r, t) = 1, so t is that least
    multiplier; a ray with t = 0 is a direction of unboundedness.
    """
    forms = [tuple(lin) + (-rhs,) for lin, rhs in constraints]
    forms.append(tuple([0] * dim + [1]))
    lin_space, rays = _dd_extreme_rays(forms, dim + 1)
    assert not lin_space, "a polytope homogenization is pointed"
    if any(r[-1] == 0 for r in rays):
        raise VerificationFailed("planed polytope is unbounded")
    return [r[:-1] + (0, r[-1]) for r in rays]


# Each failed attempt doubles the displacement scale before the next one.
MAX_ATTEMPTS = 8


def delta_construct(delta: SimplicialComplex) -> ConstructionResult:
    """Build the decorated model attached to a simplicial complex.

    The rank is the vertex count plus two; the distinguished degree is the
    apex of the final pyramid, of degree one in the last coordinate.
    """
    if not delta.vertices:
        raise ValueError("the complex needs at least one vertex")
    n = len(delta.vertices)
    vertex_pos = {v: i for i, v in enumerate(sorted(delta.vertices))}
    d = n + 2
    non_faces = delta.minimal_non_faces()
    scale = 3 * (n + 2)
    provenance: list[str] = []
    last_error = None
    for attempt in range(MAX_ATTEMPTS):
        try:
            result = _delta_construct_once(delta, n, vertex_pos, d, non_faces, scale, provenance)
            provenance.append(f"attempt {attempt}: verified with displacement scale {scale}")
            return ConstructionResult(result[0], result[1], d, tuple(provenance))
        except VerificationFailed as exc:
            provenance.append(f"attempt {attempt}: scale {scale} failed: {exc}")
            last_error = exc
            scale *= 2
    raise VerificationFailed(
        f"construction failed after {MAX_ATTEMPTS} attempts: {last_error}"
    )


def _delta_construct_once(delta, n, vertex_pos, d, non_faces, scale, provenance):
    pi = _pi_constraints(n)
    constraints = list(pi)
    for k, g in enumerate(non_faces):
        lin = [0] * n
        rhs = 0
        for v in sorted(g):
            side_lin, side_rhs = pi[1 + vertex_pos[v]]
            lin = [a + b for a, b in zip(lin, side_lin)]
            rhs += side_rhs
        mult = scale * 3**k
        constraints.append((tuple(mult * a for a in lin), mult * rhs + 1))
        provenance.append(
            f"planing {sorted(g)}: displacement 1/{mult}"
        )
    # rays of the cone over the pyramid over the planed polytope
    apex = tuple([0] * n + [1, 1])
    rays = mat(sorted(_pyramid_base_rays(constraints, n) + [apex]))
    if rank(rays) != d:
        raise VerificationFailed("cone is not full dimensional")

    # expected facet forms: lifted constraints plus the base of the pyramid
    lifted = [primitive(tuple(lin) + (rhs, -rhs)) for lin, rhs in constraints]
    expected: dict[Vec, str] = {}
    for idx, form in enumerate(lifted):
        expected[form] = "vertex" if 1 <= idx <= n else "parity"
    expected[tuple([0] * n + [1, 0])] = "parity"  # base of the final pyramid
    cone = RationalCone(d, rays, mat(sorted(expected)), rays, Lattice(d, identity(d)))
    fl = face_lattice(cone)
    _check_facet_inventory(fl)
    vertex_form = {v: cone.support_forms.index(lifted[1 + pos]) for v, pos in vertex_pos.items()}

    # survival of the faces of the complex with the right dimension and no
    # extra facets through them
    for f in sorted(delta.faces() - {frozenset()}, key=sorted):
        want_zero = frozenset(vertex_form[v] for v in f)
        face = fl.by_zero_set(want_zero)
        if face is None or face.dim != n - len(f) + 2:
            raise VerificationFailed(f"face {sorted(f)} did not survive the planing")

    # simplicity away from the distinguished ray
    apex_ray = minimal_face(fl, apex)
    if apex_ray.dim != 1:
        raise VerificationFailed("the distinguished degree is not on its own ray")
    for face in fl.faces[:-1]:
        if face.dim == 1 and face.index != apex_ray.index:
            if not is_simple_face(fl, face):
                raise VerificationFailed("a vertex ray lost simplicity")
    if len(non_faces) > 0 and is_simple_face(fl, apex_ray):
        raise VerificationFailed("the distinguished ray must not be simple after planing")

    # decoration: parity facets carry the even-degree lattice
    parity = [i for i, f in enumerate(cone.support_forms) if expected[f] == "parity"]
    model = _decorate_even_on(fl, [fl.by_zero_set(frozenset({i})).index for i in parity])

    # the filter at the apex must be the complex, upside down
    ids = filter_at(model, apex)
    by_vertices = {}
    for i in ids:
        face = fl.faces[i]
        key = frozenset(v for v in vertex_pos if vertex_form[v] in face.zero_set)
        if key in by_vertices:
            raise VerificationFailed("two filter faces match one complex face")
        by_vertices[key] = face
    if set(by_vertices) != delta.faces():
        raise VerificationFailed("filter at the apex does not match the complex")
    for a, fa in by_vertices.items():
        for b, fb in by_vertices.items():
            if a < b and not fb.ray_set < fa.ray_set:
                raise VerificationFailed("filter order does not reverse the complex order")
    return model, apex


def _check_facet_inventory(fl) -> None:
    """Refuse a pyramid cone whose forms are not exactly its facets, or
    whose rays are not exactly its extreme rays.

    The cone comes from what the construction knows, with no second double
    description: its rays are the lifted vertices of the planed polytope
    and the apex, and its forms the expected ones.  The rays come from the
    double description of the constraints, so by Minkowski-Weyl the cone
    they generate is {lifted constraints >= 0, base >= 0}: every form is
    valid on it, each facet is cut out by one of the forms, and each ray is
    extreme.  A form that cuts no facet is redundant, and its zero set is a
    face, so the closure of face_lattice finds exactly the faces of the
    cone.  The spans and signs are right too: a redundant form that vanishes
    on a facet F of a face H but not on H cuts span H down to span F like
    any other.  Such a form lies in no coatom's zero set, as it would vanish
    on a facet and then equal that facet's primitive form.  So the coatoms'
    zero sets are the forms one at a time, each used once, exactly when the
    forms are the facets.  The atoms are the rays one at a time exactly
    when every ray is extreme.
    """
    top = fl.top.dim
    coatoms = sorted(sorted(f.zero_set) for f in fl.faces if f.dim == top - 1)
    if coatoms != [[i] for i in range(len(fl.cone.support_forms))]:
        raise VerificationFailed("facet inventory differs from the expected forms")
    atoms = [sorted(f.ray_set) for f in fl.faces if f.dim == 1]
    if atoms != [[j] for j in range(len(fl.cone.extreme_rays))]:
        raise VerificationFailed("a ray of the pyramid is not extreme")


def _decorate_even_on(fl, facets) -> DecoratedCone:
    """Decorate the given facets (by face index) by the points of their
    saturated span with even last coordinate, and every other face by its
    facet cut (monoid.decorate_by_facet_cuts).  On a face F below such a
    facet G that cut is span F ∩ even, since A_F ∩ (span G ∩ even) = A_F ∩
    even; a face on none of them keeps its saturated span."""
    dim = fl.cone.ambient_dim
    even = lattice_from_rows(dim, [*identity(dim)[:-1], (0,) * (dim - 1) + (2,)])
    return decorate_by_facet_cuts(
        fl, {i: lattice_intersect(fl.faces[i].span_lattice, even) for i in facets}
    )


def builtin(name: str) -> DecoratedCone:
    """The two shipped pyramid models over the unit square.

    Both restrict facet lattices to even-degree points: the first on the two
    opposite side facets through the apex, the second on one side facet only.
    """
    verts = [
        (0, 0, 1, 1),
        (-1, 1, 0, 1),
        (-1, -1, 0, 1),
        (1, -1, 0, 1),
        (1, 1, 0, 1),
    ]
    m0, m1, m2, m3, m4 = verts
    if name == "pyramid-7.1":
        restricted = [(m0, m1, m2), (m0, m3, m4)]
    elif name == "pyramid-7.3":
        restricted = [(m0, m1, m2)]
    else:
        raise ValueError(f"unknown builtin {name!r}")
    cone = dual_description(sorted(verts))
    fl = face_lattice(cone)
    by_rays = {f.ray_set: f.index for f in fl.faces}
    return _decorate_even_on(
        fl, [by_rays[frozenset(map(cone.extreme_rays.index, rays))] for rays in restricted]
    )


def verify_eq_homology(result: ConstructionResult, delta: SimplicialComplex, p: int | None = None) -> bool:
    """Local cohomology at the distinguished degree against the reduced
    homology of the complex, shifted so cohomological degree i pairs with
    homological degree d - i - 1."""
    from .cohomology import local_cohomology_at

    primes = () if p is None else (p,)
    profile = local_cohomology_at(result.model, result.distinguished_degree, primes)
    hom = simplicial_homology(delta, primes)
    d = result.rank
    for i in range(d + 1):
        if profile.dims(p)[i] != hom.reduced_rank(d - i - 1, p):
            return False
    return True
