"""Degreewise local cohomology through finite face-filter cochain complexes.

For a decorated cone W and a degree vector a in the cone, the filter of a
collects the faces F with a in F and a in lambda_F.  The cochain complex of
the filter (with the incidence signs of the ambient face lattice) computes
the local cohomology of the represented monoid ring in degree -a, graded
piece by graded piece; dimensions are taken over Q and over prime fields,
and the torsion primes of the differentials flag every prime where the two
can differ.
"""

from dataclasses import dataclass
from functools import cache

from .errors import NotUpClosed, OutOfRange
from .exactlin import Mat, check_primes, invariant_factors, prime_factors
from .monoid import DecoratedCone
from .polyhedral import Face, FaceLattice, minimal_face


def filter_at(model: DecoratedCone, a) -> frozenset[int]:
    """Face indices F with a in F and a in lambda_F.  The set is up-closed
    and needs no test: for F <= F' with a in F and a in lambda_F, a lies in
    F' ⊇ F and in lambda_F' ⊇ lambda_F by the monotonicity of the
    decoration."""
    a = tuple(a)
    if not model.cone.contains(a) or not model.reference.member(a):
        raise OutOfRange(f"{a} is not in the cone intersected with the reference group")
    faces = model.fl.faces_above(minimal_face(model.fl, a))
    return frozenset(f.index for f in faces if model.lattice_of(f).member(a))


def _check_filter(fl: FaceLattice, face_ids: frozenset[int], top: Face) -> None:
    """Raise NotUpClosed unless face_ids is an up-closed filter of the
    interval of faces below top."""
    if not all(fl.faces[i].ray_set <= top.ray_set for i in face_ids):
        raise NotUpClosed("the face set leaves the interval below top")
    for i in face_ids:
        for u in fl.up_covers[i]:
            if u not in face_ids and fl.faces[u].ray_set <= top.ray_set:
                raise NotUpClosed("the face set is not an up-closed filter")


def least_faces(fl: FaceLattice, face_ids: frozenset[int]) -> list[int]:
    """The members of a face set none of whose down-covers is a member."""
    return [i for i in face_ids if face_ids.isdisjoint(fl.down_covers[i])]


@dataclass(frozen=True, eq=False)
class CochainComplex:
    """Integer cochain complex over a face filter.

    faces_by_deg[t] lists the member faces of dimension t; matrices[t] is
    the differential from degree t to t+1 in the row convention (rows =
    t-faces, columns = (t+1)-faces), with entries given by the incidence
    function on cover pairs.
    """

    top_dim: int
    faces_by_deg: tuple[tuple[int, ...], ...]
    matrices: tuple[Mat, ...]

    def euler_characteristic(self) -> int:
        return sum((-1) ** t * len(fs) for t, fs in enumerate(self.faces_by_deg))


def cochain_complex(
    fl: FaceLattice, face_ids: frozenset[int], top: Face | None = None
) -> CochainComplex:
    """The cochain complex of an up-closed face filter, with a d∘d = 0 check.
    A face set that is not an up-closed filter of the interval below top is
    refused with NotUpClosed: this is where a caller's filter is tested.

    The filter lives in the interval of faces below top (default: the whole
    cone) and is up-closed there; the complex runs over degrees 0..dim top,
    with the incidence function restricted to the interval.  That
    restriction is an incidence function of the interval's own face lattice,
    because the diamond condition only involves faces between g and h.

    Entry (g, h) of the product of two consecutive differentials is the sum
    of eps(g, f) * eps(f, h) over the faces f with g < f < h by covers.  An
    up-closed filter holds every such f and h once it holds g, so walking
    the up-cover paths g -> f -> h from each member g visits exactly the
    entries of the dense product that can be nonzero, at the cost of the
    cover pairs instead of a matrix product.
    """
    top = fl.top if top is None else top
    _check_filter(fl, face_ids, top)
    d = top.dim
    eps = fl.epsilon
    by_deg = tuple(
        tuple(sorted(i for i in face_ids if fl.faces[i].dim == t)) for t in range(d + 1)
    )
    matrices = []
    for t in range(d):
        col_of = {f: k for k, f in enumerate(by_deg[t + 1])}
        rows = []
        for g in by_deg[t]:
            row = [0] * len(col_of)
            for f in fl.up_covers[g]:
                if f in col_of:
                    row[col_of[f]] = eps[(g, f)]
            rows.append(tuple(row))
        matrices.append(tuple(rows))
    for g in face_ids:
        paths: dict[int, int] = {}
        for f in fl.up_covers[g]:
            if f in face_ids:
                e = eps[(g, f)]
                for h in fl.up_covers[f]:
                    if h in face_ids:
                        paths[h] = paths.get(h, 0) + e * eps[(f, h)]
        if any(paths.values()):  # an explicit raise, kept under python -O
            raise AssertionError("differential squares to zero")
    return CochainComplex(d, by_deg, tuple(matrices))


def _dims(complex_: CochainComplex, ranks: list[int]) -> tuple[int, ...]:
    """dim H^t for t = 0..d from the ranks of the differentials."""
    dims = []
    for t in range(complex_.top_dim + 1):
        n = len(complex_.faces_by_deg[t])
        r_out = ranks[t] if t < complex_.top_dim else 0
        r_in = ranks[t - 1] if t > 0 else 0
        dims.append(n - r_out - r_in)
    return tuple(dims)


def _rank(factors: tuple[int, ...], p: int | None) -> int:
    """Rank over Q (p=None) or F_p from the nonzero invariant factors."""
    return len(factors) if p is None else sum(1 for x in factors if x % p)


def _torsion(factors) -> frozenset[int]:
    return frozenset().union(*(prime_factors(x) for fs in factors for x in fs if x > 1))


def cohomology_dims(complex_: CochainComplex, p: int | None = None) -> tuple[int, ...]:
    """dim H^t for t = 0..d over Q (p=None) or over F_p; OutOfRange for a
    p that is not a prime."""
    check_primes((p,))
    return _dims(complex_, [_rank(invariant_factors(m), p) for m in complex_.matrices])


def torsion_primes(complex_: CochainComplex) -> frozenset[int]:
    """Primes dividing an invariant factor of some differential: exactly the
    primes p whose F_p dimensions differ from the rational ones."""
    return _torsion(invariant_factors(m) for m in complex_.matrices)


@dataclass(frozen=True)
class CohomologyProfile:
    """Cohomology dimensions of one filter complex, per field.

    A profile may be shared: interval_profile hands out one object per
    shape, and many fibers carry it.  It is read-only: nothing in the
    library writes dims_p after it is built.
    """

    dims_q: tuple[int, ...]
    dims_p: dict[int, tuple[int, ...]]
    torsion_primes: frozenset[int]

    def dims(self, p: int | None) -> tuple[int, ...]:
        if p is None:
            return self.dims_q
        if p in self.dims_p:
            return self.dims_p[p]
        assert p not in self.torsion_primes
        return self.dims_q


def profile_of_complex(complex_: CochainComplex, primes=()) -> CohomologyProfile:
    """Dimensions over Q, over the requested primes and over every torsion
    prime, all from one invariant-factor elimination per differential."""
    factors = [invariant_factors(m) for m in complex_.matrices]
    tors = _torsion(factors)
    dims_q = _dims(complex_, [len(fs) for fs in factors])
    dims_p = {
        p: _dims(complex_, [_rank(fs, p) for fs in factors]) for p in sorted(set(primes) | tors)
    }
    for p, dims in dims_p.items():
        if p not in tors:
            assert dims == dims_q, "torsion primes must flag every deviating prime"
    euler = complex_.euler_characteristic()
    assert sum((-1) ** t * d for t, d in enumerate(dims_q)) == euler
    for dims in dims_p.values():
        assert sum((-1) ** t * d for t, d in enumerate(dims)) == euler
    return CohomologyProfile(dims_q, dims_p, tors)


def interval_profile(top: Face, least: int, primes=()) -> CohomologyProfile:
    """Profile of the interval [G, top] of faces between the face of index
    least and top, the one filter of the interval below top with the single
    least face G.

    For G < top that interval is the face lattice of a polytope, a
    cross-section of top modulo G, and its complex is the polytope's
    augmented cellular cochain complex (Ziegler, Lectures on Polytopes,
    ch. 8); the polytope is contractible, so the complex is exact over Z,
    for any incidence function (Bruns-Herzog, Cohen-Macaulay Rings, §6.2).
    Its profile is zero in every degree and over every field.  For G = top
    the filter is {top}, with Z in degree dim top alone.  Neither has a
    torsion prime.

    So the profile depends on dim top, on whether G is top and on the
    requested primes alone, and one object per such key is shared by every
    caller (_interval_profile): with the primes as a sorted tuple of
    distinct primes, equal keys give equal profiles, so the cache is exact.
    The shared object is read-only, like every CohomologyProfile.
    """
    return _interval_profile(top.dim, least == top.index, tuple(sorted(set(primes))))


@cache
def _interval_profile(dim: int, at_top: bool, primes: tuple[int, ...]) -> CohomologyProfile:
    dims = tuple(int(at_top and t == dim) for t in range(dim + 1))
    return CohomologyProfile(dims, dict.fromkeys(primes, dims), frozenset())


def filter_profile(
    fl: FaceLattice, face_ids: frozenset[int], top: Face | None = None, primes=()
) -> CohomologyProfile:
    """Profile of an up-closed filter of the interval below top (default:
    the whole cone), with a complex built only when the filter has two or
    more least faces.

    The filter is not tested: up-closure below top is the caller's
    precondition, and every caller builds its filters so.  The patterns of
    typology.fiber_types are {F >= g : x in lambda_F}, up-closed by the
    monotonicity of the decoration; depth_bounds_multi passes S ∩ below(F)
    for such a pattern S and F in S, which is up-closed in the interval
    below F, as every face between a member and F is in S and below F; and
    local_cohomology_at and the cohomology command (cli) pass the filter of
    filter_at.  filter_profile is not exported: a filter that comes from a
    caller meets cochain_complex, which refuses one that is not up-closed
    with NotUpClosed.

    A filter with exactly one least face G is the interval [G, top]: every
    member lies above a least face, and up-closure holds every face between
    G and top.  Its profile is interval_profile's.  Every other filter is
    profiled from its complex.
    """
    top = fl.top if top is None else top
    least = least_faces(fl, face_ids)
    if len(least) != 1:
        return profile_of_complex(cochain_complex(fl, face_ids, top), primes)
    return interval_profile(top, least[0], primes)


def local_cohomology_at(model: DecoratedCone, a, primes=()) -> CohomologyProfile:
    """Profile of the local cohomology in degree -a for a in cn ∩ reference;
    OutOfRange for an entry of primes that is not a prime."""
    check_primes(primes)
    return filter_profile(model.fl, filter_at(model, a), primes=primes)

