"""Golden outputs: sha256 digests of model files and analyze reports.

The digests pin the exact text the library writes, so a change that must
keep every answer (a faster kernel, a different order of work) is checked
byte for byte.  A digest changes only with a deliberate change of output.
"""

import hashlib

import pytest
from conftest import ORACLE_COMPLEXES, corpus, oracle_construction
from test_cli import run_cli

from monoidring.cli import write_model
from monoidring.constructions import SimplicialComplex, builtin, delta_construct

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


# analyze --fields q,2,3 stdout of the constructed hexagon and RP² models
# and of the 30 seed-501 corpus models, in corpus order
RULE_DIGESTS = {
    "hexagon": "f93c8f53a13f6a68799496d7eb74eb69106351fd84f2b3b50b4686a854e528fe",
    "RP2": "3a1b0088252a5691e471c76250a2520e5b0cec9f637a48cd6fdb711335d51546",
}
CORPUS_DIGESTS = [
    "69e6e4d8e369fb7cb3f5166e37214c5e6d4e0d6a600c86bad85da846f08a9381",
    "0c8ec678e1609b4918a508dad8f23fc7a194ca62049d6e081d63a94b00de464e",
    "22141c148e3781d850f85bc6444354eb56013f67657cffa1cdb75d9c84cb4d29",
    "d8bdb87abb8491a244b3abd1452f2c363847d696b938e86ca0c0efcf19b6fd8f",
    "8b34780eac76585608124142d2c92fd387cc462482a88cb8370800d287f43ea2",
    "8a8b51c699cc46ecb78840141e0269132000449075eb7d5d0c438441d5c80eeb",
    "803bc13c45f6634d4c2ace0c8e6a5a0c6dd1c4e7ef41c3011a4bb6f9b14ea2d2",
    "d1ffccb1800ac9f8c226d660a838d864e3ff1b60d8915b09a663fdee2b718664",
    "c905f917fb470ea6cd6bea090327dd900e4b1ae42032740eeda25378a4a35953",
    "f7871bebbf409e6c5d5c19454d1490e38e53f35dcdcaaa864508dd7d95f7725d",
    "4a56b4dcf68478c160ee4833019d24b201e89eb292ee35f9f38b3776e7ab6de9",
    "93336b47517db83446c182a16a433c1f564e57b8547ab528fc009c83c208c67c",
    "2b311080c197bfb519257cdab2c95a39d4588bd7090f883c378ff184152e702f",
    "c5ffbce6c851696f7b329ecf2a7047c0c51daf6d5bde5be6f620858de42f6838",
    "3a1d2ccf2a2e461ed93793ece0e3a76c02f4b55521ac17402d135b5b97fd11de",
    "0f6398fa0410952afad760d07531e1380ec1c3d65f5adae5c7460703185a0aa9",
    "1161ef18d09011ed316e33a597c79112c632334ed546a8979ccd18212b19d9d6",
    "b6becf8d0636a5be4cbc17259992d0180d7c48f9545c26cea7323f37a6cd2803",
    "2d0350f5caa97fc6e2b834428dd7b3d9eac97bd9b58dd07bfb7dbcdc524549f7",
    "3e75bedb8e7e80cf5d8701b7e34a0c55b51c24eff4e9a95a9bd45d868dcc01c0",
    "f3b534a747f780feb59798ba7f04d11ba97c977529614e089650d7e800c1e56a",
    "4c1d3a40482c27f09018978651d8c0b4c7df92942823bb958d3eaa19b47ca543",
    "e75d842efe804e397d7f25ddec85bd5c793ceeba8bc84ccd41b324e0342635c3",
    "bcbf743b5c731a305e1d4f3e3298a43e78344377cd4b971ffe4845d4a4b68cbe",
    "bd29054b661e651bdab8b71a0bd787d05636e5224bbdc4c5bd160e03d0343392",
    "7240a5c6269085970aaa7ddd9d067e168ca28953d153793cbeef03f0a9c14046",
    "8847e11d07166b323d7379157bb6d6ed07c90498eb6dc187db4f1bb95f47acb3",
    "9519f808a1c9e685db316cd914c9ffcf240e7ba50f3c78a390eee0b068f78b9f",
    "a912d860d3e8f037cf8f6b3776b657be93b51290d9f341570cb7c0c10535a08d",
    "8f0117225eabb9f41e3df53051254ff380faf100a916b340a5e7728869fcf596",
]


def analyze_digest(model, name) -> str:
    """sha256 of the analyze report of model, written as name.model in the
    working directory: the report quotes its input path."""
    write_model(model, f"{name}.model")
    code, out, _ = run_cli(["analyze", f"{name}.model", "--fields", "q,2,3"])
    assert code == 0
    return sha256(out)


def test_constructed_model_reports(rp2_result, tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    hexagon = SimplicialComplex.from_facets([(1, 2), (2, 3), (3, 4), (4, 5), (5, 6), (6, 1)])
    models = {"hexagon": delta_construct(hexagon).model, "RP2": rp2_result.model}
    assert {name: analyze_digest(m, name) for name, m in models.items()} == RULE_DIGESTS


def test_corpus_reports(tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    models = corpus(seed=501, count=30)
    assert [analyze_digest(m, f"corpus-{i:02d}") for i, m in enumerate(models)] == CORPUS_DIGESTS
