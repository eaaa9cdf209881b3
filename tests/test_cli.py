import json
import subprocess
import sys

import pytest

from monoidring.cli import main, parse_input, write_model
from monoidring.constructions import builtin
from monoidring.errors import ParseError


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
        p = tmp_path / "bad.txt"
        p.write_text("nonsense\n")
        code, _, err = run_cli(["analyze", str(p)])
        assert code == 2
        assert "error" in err

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

    def test_optimized_interpreter_gives_the_same_report(self, model_file_71, tmp_path):
        # the filter checks are explicit raises, not asserts: python -O
        # skips no validation that shapes the report
        from conftest import oracle_construction

        constructed = tmp_path / "cycle4.model"
        write_model(oracle_construction("4-cycle").model, str(constructed))
        for path in (model_file_71, str(constructed)):
            args = ["-m", "monoidring", "analyze", path, "--fields", "q,2,3"]
            plain, optimized = (
                subprocess.run([sys.executable, *flags, *args], capture_output=True, text=True)
                for flags in ([], ["-O"])
            )
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

        monkeypatch.setattr(monoidring.monoid, "sn_member", lambda monoid, x: False)
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
            fresh = subprocess.run(
                [sys.executable, "-m", "monoidring", *args], capture_output=True, text=True
            )
            assert (code, out, err) == (fresh.returncode, fresh.stdout, fresh.stderr)
            codes.append(code)
        assert codes == [0, 0, 2, 0]
        assert json.loads(out)["seminormal"]["method"] != "bounded(0)"

    def test_console_entry_point(self, m23_file):
        proc = subprocess.run(
            [sys.executable, "-m", "monoidring", "analyze", m23_file],
            capture_output=True,
            text=True,
        )
        assert proc.returncode == 0
        assert json.loads(proc.stdout)["rank"] == 1
