"""Command-line front end.

Subcommands:

* ``analyze``    -- full report for a monoid or model file (JSON on stdout)
* ``cohomology`` -- the profile at one degree vector
* ``construct``  -- build a model from a simplicial complex file
* ``check``      -- run the internal invariant suite on an input

Exit codes: 0 success, 1 invariant violation (check), 2 input error (a
parse error, a zero generator, a cone that contains a line, or a
``cohomology`` degree that is not an integer vector of the ambient
dimension inside the cone), 3 enumeration cap exceeded or construction
verification failure.

Input formats
-------------

Monoid file: a header line ``monoid <m>``, then one generator per line as
``m`` integers.  Model file: a header line ``model <m>``, a ``generators``
line followed by one generator per line, then lattice blocks.  Each lattice
block starts with ``lattice <i> <j> ...`` naming a face by the sorted
indices of its extreme rays in the sorted extreme-ray order (``lattice *``
is the full cone) and continues with basis rows.  Faces without a block
default to their span intersected with the reference group and with every
decorated facet above them.  ``#`` comments are allowed everywhere.
"""

import argparse
import functools
import json
import sys

from .cohomology import (
    cochain_complex,
    filter_at,
    local_cohomology_at,
    profile_of_complex,
)
from .constructions import SimplicialComplex, builtin, delta_construct, read_int, read_lines
from .criteria import (
    depth_bounds_multi,
    f_bad_primes,
    gorenstein_check,
    s2_lattice_test,
    s2_up_to,
)
from .errors import (
    HypothesisUnverified,
    MonoidRingError,
    NotPointed,
    NotPositive,
    OutOfRange,
    ParseError,
    TooLarge,
    VerificationFailed,
    ZeroGenerator,
)
from .exactlin import Lattice, lattice_from_rows, prime_factors
from .monoid import (
    AffineMonoid,
    DecoratedCone,
    decorate_by_facet_cuts,
    decorated_cone,
    default_seminormality_bound,
    is_normal,
    is_seminormal_up_to,
    model_is_normal,
    monoid_new,
)
from .polyhedral import dual_description, face_lattice
from .typology import depth_report


def _strip(line: str) -> str:
    return line.split("#", 1)[0].strip()


def parse_input(path: str) -> tuple[str, object]:
    """Parse a monoid or model file; returns ("monoid", AffineMonoid) or
    ("model", DecoratedCone)."""
    lines = [l for l in map(_strip, read_lines(path)) if l]
    if not lines:
        raise ParseError("empty input file")
    head = lines[0].split()
    if head[0] == "monoid":
        m = _parse_dimension(head)
        gens = [_parse_vector(l, m) for l in lines[1:]]
        if not gens:
            raise ParseError("monoid file lists no generators")
        return "monoid", monoid_new(gens, m)
    if head[0] == "model":
        return "model", _parse_model(lines[1:], _parse_dimension(head))
    raise ParseError("input must start with 'monoid <m>' or 'model <m>'")


def _parse_dimension(head: list[str]) -> int:
    message = f"{head[0]} header must be '{head[0]} <ambient_dim>'"
    m = read_int(head[1], message) if len(head) == 2 else -1
    if m < 0:
        raise ParseError(message)
    return m


def _parse_vector(line: str, m: int):
    message = f"bad integer row: {line!r}"
    v = tuple(read_int(t, message) for t in line.split())
    if len(v) != m:
        raise ParseError(f"row {line!r} does not have {m} entries")
    return v


def _parse_model(lines: list[str], m: int) -> DecoratedCone:
    if not lines or lines[0] != "generators":
        raise ParseError("model file must open with a 'generators' block")
    gens = []
    i = 1
    while i < len(lines) and not lines[i].startswith("lattice"):
        gens.append(_parse_vector(lines[i], m))
        i += 1
    if not gens:
        raise ParseError("model file lists no generators")
    cone = dual_description(gens, m)
    fl = face_lattice(cone)
    by_rays = {f.ray_set: f.index for f in fl.faces}
    given: dict[int, Lattice] = {}
    while i < len(lines):
        header = lines[i].split()
        if header[0] != "lattice":
            raise ParseError(f"bad lattice header: {lines[i]!r}")
        if header[1:] == ["*"]:
            key = fl.top.ray_set
        else:
            message = f"bad lattice header: {lines[i]!r}"
            key = frozenset(read_int(t, message) for t in header[1:])
        if key not in by_rays:
            raise ParseError(f"lattice block {sorted(key)} names no face")
        i += 1
        rows = []
        while i < len(lines) and not lines[i].startswith("lattice"):
            rows.append(_parse_vector(lines[i], m))
            i += 1
        if by_rays[key] in given:
            raise ParseError("duplicate lattice block")
        given[by_rays[key]] = lattice_from_rows(m, rows)
    try:
        return decorate_by_facet_cuts(fl, given)
    except MonoidRingError as exc:
        raise ParseError(f"invalid decoration: {exc}") from exc


def write_model(model: DecoratedCone, path: str, header_comments=()) -> None:
    fl = model.fl
    cone = model.cone
    with open(path, "w") as fh:
        for line in header_comments:
            fh.write(f"# {line}\n")
        fh.write(f"model {cone.ambient_dim}\n")
        fh.write("generators\n")
        for r in cone.extreme_rays:
            fh.write(" ".join(map(str, r)) + "\n")
        fh.write("lattice *\n")
        for row in model.reference.basis:
            fh.write(" ".join(map(str, row)) + "\n")
        for i in fl.facet_indices():
            f = fl.faces[i]
            fh.write("lattice " + " ".join(map(str, sorted(f.ray_set))) + "\n")
            for row in model.lattice_of(f).basis:
                fh.write(" ".join(map(str, row)) + "\n")


def _parse_fields(spec: str) -> list[int | None]:
    out: list[int | None] = []
    for tok in spec.split(","):
        tok = tok.strip().lower()
        if tok == "q":
            out.append(None)
        else:
            message = f"bad field {tok!r}; use q or a prime below 10^12"
            p = read_int(tok, message)
            if not 1 < p < 10**12 or prime_factors(p) != {p}:
                raise ParseError(message)
            out.append(p)
    return out


def _field_key(p: int | None) -> str:
    return "q" if p is None else str(p)


def _verdict(value, method, witness=None):
    return {
        "verdict": value,
        "method": method,
        "witness": list(witness) if witness is not None else None,
    }


def _face_label(fl, index):
    return sorted(fl.faces[index].ray_set)


def cmd_analyze(args) -> int:
    bound = args.degree_bound
    if bound is not None:
        bound = read_int(bound, f"bad --degree-bound {bound!r}: it must be an integer")
        if bound < 0:
            raise ParseError(f"--degree-bound {bound} is negative")
    kind, obj = parse_input(args.input)
    fields = _parse_fields(args.fields)
    primes = tuple(p for p in fields if p is not None)
    report: dict = {"input": {"path": args.input, "kind": kind}}
    if kind == "monoid":
        monoid: AffineMonoid = obj
        model = monoid.model
        bound = default_seminormality_bound(monoid) if bound is None else bound
        report["input"]["ambient_dim"] = monoid.ambient_dim
        report["input"]["generators"] = [list(g) for g in monoid.generators]
        report["rank"] = monoid.rank
        report["positive"] = True
        normal, witness = is_normal(monoid)
        report["normal"] = _verdict(normal, "exact", witness)
        sem = is_seminormal_up_to(monoid, bound)
        report["seminormal"] = _verdict(
            sem.seminormal_up_to_bound, f"bounded({bound})", sem.witness
        )
        try:
            s2b = s2_up_to(monoid, bound)
            report["s2_bounded"] = _verdict(
                s2b.s2_up_to_bound, f"bounded({bound})", s2b.witness
            )
        except HypothesisUnverified as exc:
            report["s2_bounded"] = {
                "verdict": None,
                "method": f"bounded({bound})",
                "error": f"interior hypothesis failed: {exc}",
            }
        report["model_scope"] = (
            "monoid (seminormal up to the bound)"
            if sem.seminormal_up_to_bound
            else "seminormalization of the input"
        )
    else:
        model = obj
        report["input"]["ambient_dim"] = model.cone.ambient_dim
        report["input"]["generators"] = [list(g) for g in model.cone.extreme_rays]
        report["rank"] = model.rank
        report["positive"] = True
        report["normal"] = _verdict(model_is_normal(model), "exact")
        report["seminormal"] = _verdict(True, "exact (decorated cones are seminormal)")
        report["model_scope"] = "model"

    s2_ok, s2_face = s2_lattice_test(model)
    report["s2_lattice"] = {
        "verdict": s2_ok,
        "method": "exact",
        "failing_face": _face_label(model.fl, s2_face) if s2_face is not None else None,
    }
    rep = depth_report(model, primes=primes)
    report["depth"] = {_field_key(p): rep.depth(p) for p in fields}
    report["cm"] = {_field_key(p): rep.cm(p) for p in fields}
    report["torsion_primes"] = sorted(rep.torsion_primes)
    report["buchsbaum_excluded"] = rep.buchsbaum_excluded
    report["depth_witnesses"] = {
        key: {str(i): list(v) for i, v in wit.items() if i < rep.rank}
        for key, wit in rep.witnesses.items()
        if key in {_field_key(p) for p in fields}
    }
    report["f_bad_primes"] = sorted(f_bad_primes(model))
    multi = depth_bounds_multi(model, rep)
    report["depth_bounds"] = {
        _field_key(p): {
            "c_k": multi[p].c_k,
            "n": multi[p].n,
            "depth": multi[p].depth,
            "chain_holds": multi[p].chain_holds,
        }
        for p in fields
    }
    # past its Cohen-Macaulay check the Gorenstein test reads no field, so
    # one run answers every Cohen-Macaulay field
    cm_fields = [p for p in fields if rep.cm(p)]
    if cm_fields:
        ok, b_vec = gorenstein_check(model, cm_fields[0], rep)
    gor = {}
    for p in fields:
        if rep.cm(p):
            gor[_field_key(p)] = _verdict(ok, "exact", b_vec)
        else:
            gor[_field_key(p)] = {
                "verdict": False,
                "method": "exact",
                "reason": "not Cohen-Macaulay over this field",
            }
    report["gorenstein"] = gor
    json.dump(report, sys.stdout, indent=2, sort_keys=True)
    sys.stdout.write("\n")
    return 0


def cmd_cohomology(args) -> int:
    message = f"bad degree {args.degree!r}: entries must be integers"
    degree = tuple(read_int(t, message) for t in args.degree.replace(",", " ").split())
    kind, obj = parse_input(args.input)
    model = obj.model if kind == "monoid" else obj
    if len(degree) != model.cone.ambient_dim:
        raise ParseError(
            f"degree {list(degree)} has {len(degree)} entries; "
            f"the input lives in dimension {model.cone.ambient_dim}"
        )
    fields = _parse_fields(args.fields)
    primes = tuple(p for p in fields if p is not None)
    profile = local_cohomology_at(model, degree, primes)
    ids = filter_at(model, degree)
    out = {
        "degree": list(degree),
        "filter": [
            {"rays": _face_label(model.fl, i), "dim": model.fl.faces[i].dim}
            for i in sorted(ids)
        ],
        "dims": {_field_key(p): list(profile.dims(p)) for p in fields},
        "torsion_primes": sorted(profile.torsion_primes),
    }
    json.dump(out, sys.stdout, indent=2, sort_keys=True)
    sys.stdout.write("\n")
    return 0


def cmd_construct(args) -> int:
    delta = SimplicialComplex.from_file(args.input)
    result = delta_construct(delta)
    comments = [
        "constructed model",
        f"distinguished degree: {' '.join(map(str, result.distinguished_degree))}",
        f"rank: {result.rank}",
    ] + [f"provenance: {line}" for line in result.provenance]
    write_model(result.model, args.output, comments)
    for line in result.provenance:
        print(line, file=sys.stderr)
    out = {
        "output": args.output,
        "rank": result.rank,
        "distinguished_degree": list(result.distinguished_degree),
        "facets": len(result.model.fl.facet_indices()),
        "faces": len(result.model.fl.faces),
    }
    json.dump(out, sys.stdout, indent=2, sort_keys=True)
    sys.stdout.write("\n")
    return 0


def cmd_check(args) -> int:
    kind, obj = parse_input(args.input)
    model = obj.model if kind == "monoid" else obj
    fl = model.fl
    results = []

    def run(name, fn):
        try:
            fn()
            results.append({"check": name, "ok": True})
        except Exception as exc:  # noqa: BLE001 - reported, not swallowed
            results.append({"check": name, "ok": False, "detail": str(exc)})

    # the checks raise explicitly, so that they also run under python -O
    def check_diamond():
        from .polyhedral import _verify_diamond

        _verify_diamond(fl, fl.epsilon)

    def check_full_complex():
        cochain_complex(fl, frozenset(f.index for f in fl.faces))

    def check_monotone():
        decorated_cone(fl, model.lambdas)

    def check_filters():
        from .monoid import model_point_in_relint

        for f in fl.faces:
            a = model_point_in_relint(model, f)
            profile_of_complex(cochain_complex(fl, filter_at(model, a)))

    def check_canonical_lattices():
        for lam in model.lambdas:
            if lattice_from_rows(lam.ambient_dim, lam.basis) != lam:
                raise AssertionError

    def check_intersection_closed():
        ray_sets = {f.ray_set for f in fl.faces}
        for a in ray_sets:
            for b in ray_sets:
                if a & b not in ray_sets:
                    raise AssertionError

    run("incidence diamond condition", check_diamond)
    run("differential squares to zero", check_full_complex)
    run("face lattices monotone and full rank", check_monotone)
    run("filters up-closed with consistent profiles", check_filters)
    run("lattice bases canonical", check_canonical_lattices)
    run("faces closed under intersection", check_intersection_closed)
    if kind == "monoid":
        def check_member_chain():
            from .monoid import member, model_member

            for g in obj.generators[:20]:
                if not (member(obj, g) and model_member(model, g)):
                    raise AssertionError

        run("generators pass the membership chain", check_member_chain)
    json.dump(results, sys.stdout, indent=2, sort_keys=True)
    sys.stdout.write("\n")
    return 0 if all(r["ok"] for r in results) else 1


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The command-line parser, built once per process: parsing reads it
    and leaves it unchanged."""
    parser = argparse.ArgumentParser(
        prog="monoidring",
        description="Exact combinatorial analysis of affine monoid rings",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def fields(p):
        p.add_argument(
            "--fields",
            default="q,2,3",
            help="comma-separated fields: q and/or primes (default q,2,3)",
        )

    p_analyze = sub.add_parser("analyze", help="full ring-property report")
    p_analyze.add_argument("input", help="monoid or model file")
    fields(p_analyze)
    p_analyze.add_argument(
        "--degree-bound",
        default=None,
        help="bound for the seminormality and (S2) scans",
    )
    p_analyze.set_defaults(fn=cmd_analyze)

    p_coh = sub.add_parser("cohomology", help="profile at one degree")
    p_coh.add_argument("input", help="monoid or model file")
    fields(p_coh)
    p_coh.add_argument("--degree", required=True, help="degree vector, e.g. '0 0 1 1'")
    p_coh.set_defaults(fn=cmd_cohomology)

    p_con = sub.add_parser("construct", help="model from a simplicial complex")
    p_con.add_argument("input", help="complex file: one facet per line")
    p_con.add_argument("output", help="path for the model file")
    p_con.set_defaults(fn=cmd_construct)

    p_check = sub.add_parser("check", help="run the invariant suite")
    p_check.add_argument("input", help="monoid or model file")
    p_check.set_defaults(fn=cmd_check)
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.fn(args)
    except (ParseError, ZeroGenerator, NotPointed, NotPositive, OutOfRange, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except (TooLarge, VerificationFailed) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
