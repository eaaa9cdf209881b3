import json
import random
import sys

import pytest

from monoidring.cli import main, parse_input, write_model
from monoidring.constructions import builtin
from monoidring.errors import ParseError

from conftest import run_python


def run_cli(args, tmp_path=None):
    from io import StringIO

    out, err = StringIO(), StringIO()
    old = sys.stdout, sys.stderr
    sys.stdout, sys.stderr = out, err
    try:
        code = main(args)
    finally:
        sys.stdout, sys.stderr = old
    return code, out.getvalue(), err.getvalue()


@pytest.fixture()
def m23_file(tmp_path):
    p = tmp_path / "m23.txt"
    p.write_text("monoid 1\n2\n3\n")
    return str(p)


@pytest.fixture()
def model_file_71(tmp_path):
    p = tmp_path / "p71.model"
    write_model(builtin("pyramid-7.1"), str(p))
    return str(p)


@pytest.fixture()
def rank3_file(tmp_path):
    p = tmp_path / "rank3.txt"
    p.write_text("monoid 3\n1 0 1\n0 1 1\n0 0 1\n1 1 2\n")
    return str(p)


def assert_input_error(args):
    code, out, err = run_cli(args)
    assert code == 2
    assert out == ""
    assert len(err.splitlines()) == 1 and err.startswith("error: ")


@pytest.fixture()
def delta_file(tmp_path):
    p = tmp_path / "twopoints.delta"
    p.write_text("# two vertices, no edge\n1\n2\n")
    return str(p)


class TestParseInput:
    def test_monoid_file(self, m23_file):
        kind, m = parse_input(m23_file)
        assert kind == "monoid"
        assert m.generators == ((2,), (3,))

    def test_model_round_trip(self, model_file_71):
        kind, model = parse_input(model_file_71)
        assert kind == "model"
        original = builtin("pyramid-7.1")
        assert model.cone.extreme_rays == original.cone.extreme_rays
        for f, g in zip(model.fl.faces, original.fl.faces):
            assert model.lattice_of(f) == original.lattice_of(g)

    def test_parse_error_exit_code(self, tmp_path):
        # a header whose dimension is a digit but not a decimal, a file that
        # is not UTF-8, and an integer written with a digit-group underscore
        # (1_0), a non-ASCII decimal digit (\u0663, Arabic-Indic three) or a
        # superscript (\u00b2) are parse errors like any other
        p = tmp_path / "bad.txt"
        for data in [
            b"nonsense\n",
            "monoid \u00b2\n1\n".encode(),
            "model \u00b2\ngenerators\n1 0\n".encode(),
            b"monoid 1\n2\n\xff\n",
            b"model 2\ngenerators\n1 0\n0 \xff\n",
            b"monoid 1\n1_0\n",
            "monoid 1\n\u0663\n".encode(),
            "monoid 1\n\u00b2\n".encode(),
            "monoid \u0663\n1 0 0\n0 1 0\n0 0 1\n".encode(),
            "model \u0663\ngenerators\n1 0 0\n0 1 0\n0 0 1\n".encode(),
            b"model 2\ngenerators\n1 0\n0 1_0\n",
            b"model 2\ngenerators\n1 0\n0 1\nlattice 0_1\n2 0\n",
            "model 2\ngenerators\n1 0\n0 1\nlattice \u0661\n2 0\n".encode(),
        ]:
            p.write_bytes(data)
            with pytest.raises(ParseError):
                parse_input(str(p))
            for command in (["analyze"], ["check"], ["cohomology", "--degree", "1"]):
                assert_input_error([command[0], str(p), *command[1:]])
        for data in [b"1 2\n2 \xff\n", b"1 2\n2 1_0\n", "1 2\n2 \u0663\n".encode()]:
            p.write_bytes(data)
            assert_input_error(["construct", str(p), str(tmp_path / "out.model")])
            assert not (tmp_path / "out.model").exists()

    @pytest.mark.parametrize("bad", ["1_0", "\u0663", "\u00b2"])
    def test_option_integers_are_ascii(self, bad, rank3_file):
        # --degree, --degree-bound and the --fields primes read integers as
        # the input files do
        assert_input_error(["cohomology", rank3_file, "--degree", f"1 1 {bad}"])
        assert_input_error(["analyze", rank3_file, "--degree-bound", bad])
        assert_input_error(["analyze", rank3_file, "--fields", f"q,{bad}"])

    def test_bad_lattice_header(self, tmp_path):
        p = tmp_path / "bad.model"
        p.write_text("model 2\ngenerators\n1 0\n0 1\nlatticeX 0\n1 0\n")
        with pytest.raises(ParseError, match="bad lattice header"):
            parse_input(str(p))
        code, _, err = run_cli(["analyze", str(p)])
        assert code == 2
        assert err.startswith("error: bad lattice header")

    def test_reference_outside_the_cone_span(self, tmp_path):
        p = tmp_path / "bad.model"
        p.write_text("model 3\ngenerators\n1 0 0\n0 1 0\nlattice *\n1 0 0\n0 1 0\n0 0 1\n")
        code, out, err = run_cli(["analyze", str(p)])
        assert code == 2
        assert out == ""
        assert err == "error: invalid decoration: the reference lattice leaves the span of the cone\n"

    def test_invalid_decoration_rejected(self, tmp_path):
        p = tmp_path / "bad.model"
        p.write_text("model 2\ngenerators\n1 0\n0 1\nlattice 0\n3 0\n")
        code, _, err = run_cli(["analyze", str(p)])
        assert code == 2


class TestTypedInputErrors:
    """Inputs that the library refuses with a typed error exit 2 with one
    error line, like every other input error."""

    @pytest.mark.parametrize(
        "text",
        [
            "monoid 2\n0 0\n1 0\n",  # a zero generator
            "model 2\ngenerators\n0 0\n1 0\n",  # a zero generator
            "model 2\ngenerators\n1 0\n-1 0\n",  # the cone contains a line
        ],
        ids=["monoid-zero-generator", "model-zero-generator", "model-with-a-line"],
    )
    def test_analyze(self, tmp_path, text):
        p = tmp_path / "bad.txt"
        p.write_text(text)
        assert_input_error(["analyze", str(p)])

    @pytest.mark.parametrize(
        "text",
        ["1 2\n2 x\n", "# no facet\n\n"],
        ids=["non-integer-vertex", "no-vertex"],
    )
    def test_construct(self, tmp_path, text):
        p = tmp_path / "bad.delta"
        p.write_text(text)
        assert_input_error(["construct", str(p), str(tmp_path / "out.model")])
        assert not (tmp_path / "out.model").exists()


class TestAnalyze:
    def test_m23_report(self, m23_file):
        code, out, _ = run_cli(["analyze", m23_file])
        assert code == 0
        r = json.loads(out)
        assert r["normal"]["verdict"] is False
        assert r["normal"]["witness"] == [1]
        assert r["seminormal"]["verdict"] is False
        assert r["seminormal"]["witness"] == [1]
        assert r["model_scope"] == "seminormalization of the input"
        assert r["depth"]["q"] == 1
        assert r["cm"]["q"] is True
        assert r["gorenstein"]["q"]["verdict"] is True

    def test_pyramid_model_report(self, model_file_71):
        code, out, _ = run_cli(["analyze", model_file_71])
        assert code == 0
        r = json.loads(out)
        assert r["rank"] == 4
        assert r["s2_lattice"]["verdict"] is True
        assert r["depth"] == {"q": 3, "2": 3, "3": 3}
        assert r["cm"] == {"q": False, "2": False, "3": False}
        assert r["f_bad_primes"] == [2]
        assert r["depth_bounds"]["q"]["c_k"] == 3
        assert r["depth_bounds"]["q"]["n"] == 1
        assert r["depth_bounds"]["q"]["chain_holds"] is True
        assert r["gorenstein"]["q"]["reason"] == "not Cohen-Macaulay over this field"

    def test_one_gorenstein_check_per_report(self, rank3_file, monkeypatch):
        # past its Cohen-Macaulay check the test reads no field, so one call
        # answers q, 2 and 3, each as its own call would
        import monoidring.cli
        from monoidring.criteria import gorenstein_check
        from monoidring.typology import depth_report

        calls = []

        def counted(*args):
            calls.append(args)
            return gorenstein_check(*args)

        monkeypatch.setattr(monoidring.cli, "gorenstein_check", counted)
        code, out, _ = run_cli(["analyze", rank3_file, "--fields", "q,2,3"])
        assert code == 0 and len(calls) == 1
        r = json.loads(out)
        assert r["cm"] == {"q": True, "2": True, "3": True}
        model = parse_input(rank3_file)[1].model
        rep = depth_report(model, primes=(2, 3))
        for p, key in ((None, "q"), (2, "2"), (3, "3")):
            ok, b = gorenstein_check(model, p, rep)
            assert r["gorenstein"][key] == {"verdict": ok, "method": "exact", "witness": list(b)}

    def test_orthant_gorenstein(self, tmp_path):
        p = tmp_path / "orthant.txt"
        p.write_text("monoid 2\n1 0\n0 1\n")
        code, out, _ = run_cli(["analyze", str(p)])
        assert code == 0
        r = json.loads(out)
        assert r["cm"]["q"] is True
        assert r["gorenstein"]["q"] == {
            "method": "exact",
            "verdict": True,
            "witness": [1, 1],
        }
        assert r["f_bad_primes"] == []

    def test_report_deterministic(self, model_file_71):
        _, out1, _ = run_cli(["analyze", model_file_71])
        _, out2, _ = run_cli(["analyze", model_file_71])
        assert out1 == out2

    @pytest.mark.parametrize("fields", ["q,0", "q,1", "q,4"])
    def test_fields_must_be_primes(self, model_file_71, fields):
        assert_input_error(["analyze", model_file_71, "--fields", fields])

    def test_degree_bound_zero_is_honoured(self, rank3_file):
        code, out, _ = run_cli(["analyze", rank3_file])
        assert code == 0
        assert json.loads(out)["seminormal"]["method"] != "bounded(0)"
        code, out, _ = run_cli(["analyze", rank3_file, "--degree-bound", "0"])
        assert code == 0
        r = json.loads(out)
        assert r["seminormal"]["method"] == "bounded(0)"
        assert r["s2_bounded"]["method"] == "bounded(0)"

    def test_negative_degree_bound(self, rank3_file):
        assert_input_error(["analyze", rank3_file, "--degree-bound", "-1"])

    def test_class_cap_exits_three(self, tmp_path):
        # the ray (0, 1) carries a lattice of index 100001, one class more
        # than the fiber enumeration's cap
        p = tmp_path / "wide.model"
        p.write_text("model 2\ngenerators\n1 0\n0 1\nlattice 0\n0 100001\n")
        code, out, err = run_cli(["analyze", str(p)])
        assert code == 3
        assert out == ""
        assert len(err.splitlines()) == 1 and err.startswith("error: ")

    @pytest.mark.parametrize("m", [14, 20])
    def test_face_cap_exits_three(self, tmp_path, m):
        # the orthant of m unit vectors has 2^m faces, past FACE_CAP
        p = tmp_path / "orthant.txt"
        rows = [" ".join("1" if i == j else "0" for j in range(m)) for i in range(m)]
        p.write_text("\n".join([f"monoid {m}", *rows]) + "\n")
        code, out, err = run_cli(["analyze", str(p)])
        assert code == 3
        assert out == ""
        assert err == "error: the cone has more than 10000 faces\n"

    def test_optimized_interpreter_gives_the_same_report(self, model_file_71, tmp_path):
        # the filter checks are explicit raises, not asserts: python -O
        # skips no validation that shapes the report
        from conftest import oracle_construction

        constructed = tmp_path / "cycle4.model"
        write_model(oracle_construction("4-cycle").model, str(constructed))
        for path in (model_file_71, str(constructed)):
            args = ["-m", "monoidring", "analyze", path, "--fields", "q,2,3"]
            plain, optimized = (run_python(*flags, *args) for flags in ([], ["-O"]))
            assert plain.returncode == optimized.returncode == 0
            assert optimized.stdout == plain.stdout
            assert json.loads(plain.stdout)["rank"] > 0


class TestCohomology:
    def test_odd_ray_degree(self, model_file_71):
        code, out, _ = run_cli(
            ["cohomology", model_file_71, "--degree", "0 0 1 1"]
        )
        assert code == 0
        r = json.loads(out)
        assert r["dims"]["q"] == [0, 0, 0, 1, 0]
        assert len(r["filter"]) == 3
        assert r["torsion_primes"] == []

    def test_degree_zero(self, model_file_71):
        code, out, _ = run_cli(["cohomology", model_file_71, "--degree", "0,0,0,0"])
        assert code == 0
        r = json.loads(out)
        assert r["dims"]["q"] == [0, 0, 0, 0, 0]
        assert len(r["filter"]) == 20

    def test_out_of_range(self, model_file_71):
        assert_input_error(["cohomology", model_file_71, "--degree", "0 0 -1 0"])

    def test_non_integer_degree(self, model_file_71):
        assert_input_error(["cohomology", model_file_71, "--degree", "0 0 1/2 1"])

    def test_degree_of_wrong_length(self, model_file_71):
        assert_input_error(["cohomology", model_file_71, "--degree", "0 1 1"])

    @pytest.mark.parametrize("fields", ["q,0", "q,1", "q,4"])
    def test_fields_must_be_primes(self, model_file_71, fields):
        assert_input_error(
            ["cohomology", model_file_71, "--degree", "0 0 1 1", "--fields", fields]
        )


class TestConstructAndCheck:
    def test_construct_then_analyze(self, delta_file, tmp_path):
        out_path = str(tmp_path / "out.model")
        code, out, err = run_cli(["construct", delta_file, out_path])
        assert code == 0
        meta = json.loads(out)
        assert meta["rank"] == 4
        assert meta["distinguished_degree"] == [0, 0, 1, 1]
        assert "verified" in err
        code, out, _ = run_cli(["analyze", out_path])
        assert code == 0
        r = json.loads(out)
        assert r["depth"]["q"] == 3
        assert r["cm"]["q"] is False
        code, out, _ = run_cli(
            ["cohomology", out_path, "--degree", "0 0 1 1"]
        )
        r = json.loads(out)
        assert r["dims"]["q"][3] == 1

    def test_check_exits_one_on_a_failed_invariant(self, m23_file, monkeypatch):
        import monoidring.monoid

        monkeypatch.setattr(monoidring.monoid, "model_member", lambda model, x: False)
        code, out, _ = run_cli(["check", m23_file])
        assert code == 1
        failed = [r["check"] for r in json.loads(out) if not r["ok"]]
        assert failed == ["generators pass the membership chain"]

    def test_check_passes_on_shipped_model(self, model_file_71):
        code, out, _ = run_cli(["check", model_file_71])
        assert code == 0
        results = json.loads(out)
        assert all(r["ok"] for r in results)

    def test_check_passes_on_monoid(self, m23_file):
        code, out, _ = run_cli(["check", m23_file])
        assert code == 0

    @pytest.mark.parametrize(
        "args",
        [
            ["check", "{monoid}", "--degree-bound", "-5"],
            ["check", "{monoid}", "--fields", "q"],
            ["cohomology", "{model}", "--degree", "0 0 1 1", "--degree-bound", "-5"],
        ],
    )
    def test_options_a_command_does_not_read_are_rejected(
        self, args, m23_file, model_file_71, capsys
    ):
        # each subcommand declares only the options it reads
        args = [a.format(monoid=m23_file, model=model_file_71) for a in args]
        with pytest.raises(SystemExit) as exc:
            main(args)
        assert exc.value.code == 2
        assert capsys.readouterr().out == ""

    def test_one_parser_serves_successive_calls(self, rank3_file, model_file_71, capsys):
        # the parser is built once per process; calls in a row, with
        # different subcommands and a parse error between them, print
        # what a fresh process prints for each
        import monoidring.cli as cli

        assert cli.build_parser() is cli.build_parser()
        calls = [
            ["analyze", rank3_file, "--degree-bound", "0", "--fields", "q"],
            ["cohomology", model_file_71, "--degree", "0 0 1 1"],
            ["analyze", rank3_file, "--degree-bound", "x"],
            ["analyze", rank3_file],
        ]
        codes = []
        for args in calls:
            try:
                code = main(args)
            except SystemExit as exc:
                code = exc.code
            out, err = capsys.readouterr()
            fresh = run_python("-m", "monoidring", *args)
            assert (code, out, err) == (fresh.returncode, fresh.stdout, fresh.stderr)
            codes.append(code)
        assert codes == [0, 0, 2, 0]
        assert json.loads(out)["seminormal"]["method"] != "bounded(0)"

    def test_console_entry_point(self, m23_file):
        proc = run_python("-m", "monoidring", "analyze", m23_file)
        assert proc.returncode == 0
        assert json.loads(proc.stdout)["rank"] == 1


def is_int_row(line):
    return bool(line.split()) and all(t.lstrip("-").isdigit() for t in line.split())


def mutate(rng, lines):
    """One seeded mutation of an input file, given as its lines: drop,
    duplicate, swap or garble lines and tokens, zero or negate a row."""
    lines = list(lines)
    kind = rng.choice(
        ["drop", "duplicate", "swap", "garble line", "garble token", "drop token",
         "duplicate token", "zero row", "negate row"]
    )
    rows = [k for k, line in enumerate(lines) if is_int_row(line)]
    if kind.endswith(" row") and rows:
        i = rng.choice(rows)
        sign = 0 if kind == "zero row" else -1
        lines[i] = " ".join(str(sign * int(t)) for t in lines[i].split())
        return lines
    i, j = rng.randrange(len(lines)), rng.randrange(len(lines))
    toks = lines[i].split()
    if kind == "drop":
        del lines[i]
    elif kind == "duplicate":
        lines.insert(j, lines[i])
    elif kind == "swap":
        lines[i], lines[j] = lines[j], lines[i]
    elif kind == "garble line":
        lines[i] = rng.choice(["", "#", "x y", "1 2 3", "lattice", "lattice *", "lattice 9",
                               "generators", "model 0", "monoid -1", "model 4 4"])
    elif toks and kind.endswith(" token"):
        k = rng.randrange(len(toks))
        if kind == "garble token":
            toks[k] = rng.choice(["0", "1", "-1", "2", "3", "x", "1.5", "*", "#"])
        elif kind == "drop token":
            del toks[k]
        else:
            toks.insert(k, toks[k])
        lines[i] = " ".join(toks)
    return lines or [""]


class TestFuzz:
    """Seeded mutations of model, monoid and complex files, run through
    cli.main: every run exits 0, 2 or 3 and raises nothing."""

    @staticmethod
    def seeds(tmp_path):
        model = tmp_path / "seed.model"
        write_model(builtin("pyramid-7.1"), str(model))
        analyze = ["analyze", "--fields", "q,2"]
        construct = ["construct", str(tmp_path / "out.model")]
        # the second model lists a generator inside the cone of the others
        return [
            (analyze, model.read_text().splitlines(), 80),
            (analyze, ["model 2", "generators", "1 0", "1 1", "1 2", "lattice 0", "2 0"], 60),
            (analyze, ["monoid 3", "2 0 1", "0 1 1", "1 1 1", "0 0 1"], 80),
            (construct, ["# a path", "1 2", "2 3"], 40),
            (construct, ["# an edge", "1 2"], 30),
        ]

    def test_mutated_inputs(self, tmp_path):
        rng = random.Random(9)
        codes, errors = set(), set()
        for command, lines, runs in self.seeds(tmp_path):
            for _ in range(runs):
                text = lines
                for _ in range(rng.randint(1, 3)):
                    text = mutate(rng, text)
                p = tmp_path / "fuzzed.txt"
                p.write_text("\n".join(text) + "\n")
                try:
                    code, out, err = run_cli([command[0], str(p), *command[1:]])
                except Exception as exc:  # noqa: BLE001 - reported with its input
                    pytest.fail(f"{command[0]} raised {exc!r} on:\n{p.read_text()}")
                assert code in (0, 2, 3), p.read_text()
                if code:
                    assert out == "" and len(err.splitlines()) == 1, p.read_text()
                    errors.add(err.removeprefix("error: ").split(" '")[0].strip())
                codes.add(code)
        assert {0, 2} <= codes
        # the runs meet the refusals of zero generators, lines, bad vertices
        # and empty complexes
        assert {
            "generators must be nonzero",
            "the cone contains a line",
            "bad vertex in facet",
            "complex file lists no vertex",
        } <= errors
