"""Golden outputs: sha256 digests of model files and analyze reports.

The digests pin the exact text the library writes, so a change that must
keep every answer (a faster kernel, a different order of work) is checked
byte for byte.  A digest changes only with a deliberate change of output.
"""

import hashlib

import pytest
from conftest import ORACLE_COMPLEXES, oracle_construction
from test_cli import run_cli

from monoidring.cli import write_model
from monoidring.constructions import builtin

MODEL_DIGESTS = {
    "tetrahedron boundary": "76ad92987b471987c8c23da53ba5b86f983ca789c716d0166c9ee8719cce39db",
    "4-cycle": "f741de11fd7570fdf70070b0a7d0d1cd329b3725941e9e787cb044607d32a5fb",
    "triangle + point": "f4f1c5d7d1fcacc0772307b1c07abb0bcddeac92d75693eed075242f55a64e2d",
    "path P4": "131092baeab27869ff30f1863296fd310cbbc860f08ac405176fe7809610a7ba",
    "triangle boundary + point": "c6525243cfd264355fd714a93600dc0ed618ded4d0810fceb7247f1dab565ac6",
    "RP2": "2f0319768fd4ead67a6982b89d04b336081b835cf236a67f7ca662fb58223cc9",
}

ANALYZE_DIGESTS = {
    "pyramid-7.1": "8b7d515c00e87b0d8cbb6b696a33a53ed63a88400e93bbd2078c407a01bd1c1d",
    "pyramid-7.3": "83fe4f665670c3975bc1bd60c2de532cabf6a8230273ee780afda435df6d57b1",
}


def sha256(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()


def model_text(model, path) -> str:
    write_model(model, str(path))
    return path.read_text()


@pytest.mark.parametrize("name", sorted(ORACLE_COMPLEXES))
def test_oracle_model_files(name, tmp_path):
    text = model_text(oracle_construction(name).model, tmp_path / "m.model")
    assert sha256(text) == MODEL_DIGESTS[name]


def test_rp2_model_file(rp2_result, tmp_path):
    text = model_text(rp2_result.model, tmp_path / "m.model")
    assert sha256(text) == MODEL_DIGESTS["RP2"]


@pytest.mark.parametrize("name", sorted(ANALYZE_DIGESTS))
def test_pyramid_reports(name, tmp_path, monkeypatch):
    # the report quotes its input path, so the file sits at a fixed name
    monkeypatch.chdir(tmp_path)
    write_model(builtin(name), f"{name}.model")
    code, out, _ = run_cli(["analyze", f"{name}.model", "--fields", "q,2,3"])
    assert code == 0
    assert sha256(out) == ANALYZE_DIGESTS[name]
