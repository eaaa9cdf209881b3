"""Golden outputs: sha256 digests of model files, analyze reports and face
tables.

The digests pin the exact text the library writes, so a change that must
keep every answer (a faster kernel, a different order of work) is checked
byte for byte.  A digest changes only with a deliberate change of output.
"""

import hashlib

import pytest
from conftest import ORACLE_COMPLEXES, corpus, oracle_construction, pyramid_monoid
from test_cli import run_cli

import monoidring.monoid
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


# sha256 of the repr of every face-table row (factors, basis), by face index
FACE_TABLE_DIGESTS = {
    "pyramid-7.1": "31c5c356c11fde5f6d5f27542ecec3cb662bda867410e73947e3719aca66fb2d",
    "pyramid-7.3": "16775358c202d10000954bb41a9a11f6f2d7f41ef1fde64b51144065fc540201",
    "RP2": "4ac08913e4132ac48c225c8bef65106883938cf1e44d284c14d95fda64af3c66",
    "corpus-00": "b025ee6aa2d2b660ab6237058fd68ff13f5872acfd917a26c9a3efbc3f93565e",
    "corpus-01": "fb0e11b4ebf66c053a36bc91e892e8d4348e275c18c48b4c386f508fcd83288b",
    "corpus-02": "7fe90a8534eb903a8fb791ea63f3bbd90aaf5d8ea28e85d792b612c08f156e98",
    "corpus-03": "52388f3b8a56354d61d711f79cf9930f668e66ed0554ea60f9c4b45a4b2d9301",
    "corpus-04": "10f6d1641b4123db140a9754ffc3ff64aff2c4ebf560b559aad3d07718744de3",
    "corpus-05": "f275759f01420396f9ffd03657f9e99b1d18f70912ae950acbac4497f72f23d0",
    "corpus-06": "fa581e040f80c5e16f32a18607e3a074adafe602d896cd6afd31383cf97ff803",
    "corpus-07": "21c9d21261fae29f46e28ec03fbaf5d1167ac710e71e7150e5b0ef290d107154",
    "corpus-08": "9c2419917e7feac2004a98bcce2897c3fc45d9f114bfe933f22d137a3ed516ef",
    "corpus-09": "34af81a5dff3785b31d8494541caeb72d62dd68d22e23973bb3d21a3eaba7ac2",
}


def test_face_table_rows(rp2_result):
    models = {name: builtin(name) for name in ("pyramid-7.1", "pyramid-7.3")}
    models["RP2"] = rp2_result.model
    models.update((f"corpus-{i:02d}", m) for i, m in enumerate(corpus(seed=501, count=10)))
    digests = {
        name: sha256(repr(tuple((row.factors, row.basis) for row in model.face_table)))
        for name, model in models.items()
    }
    assert digests == FACE_TABLE_DIGESTS


# analyze --fields q,2,3 stdout of generator files.  The texts are the three
# of test_gap_scan.TestOneWalk, and twelve seeded sets: four of full rank,
# eight of rank below the ambient dimension, and five with gp(M) not
# saturated (g00, g01, g05, g06, g09).
GENERATOR_SETS = {
    "g00": [(0, 2), (1, 1), (1, 3), (2, 2)],
    "g01": [(0, 2), (1, 1), (1, 3), (2, 2), (3, 3)],
    "g02": [(0, 1, 1), (1, 0, 1), (1, 0, 2), (1, 1, 1), (2, 1, 2)],
    "g03": [(0, 0, 1), (0, 1, 2), (1, 0, 1), (1, 2, 2), (2, 0, 2), (2, 1, 2)],
    "g04": [(4, 2), (6, 3)],
    "g05": [(2, 2, 0), (6, 6, 0), (8, 8, 0)],
    "g06": [(-6, -5, 3), (-4, -6, 2), (-2, -3, 1), (-2, -1, 1)],
    "g07": [(0, -2, 2), (0, -1, 1), (1, -3, 1), (1, -2, 0)],
    "g08": [(0, -3, -3, -6), (2, -3, -2, -3), (4, -4, -2, -2), (6, -6, -3, -3)],
    "g09": [(1, 0, 0, -1), (2, 0, 0, -2), (2, 2, 2, 0), (4, 2, 4, -2), (7, 2, 6, -5)],
    "g10": [(-6, -3, -3), (-2, 1, -1), (0, 1, 0)],
    "g11": [(-1, 4, 4, 0, 0), (1, 5, 5, 0, -2), (2, 4, 4, 4, 2), (2, 7, 7, 2, -1), (3, 3, 3, 2, -1)],
}


def monoid_text(gens) -> str:
    return f"monoid {len(gens[0])}\n" + "".join(" ".join(map(str, g)) + "\n" for g in gens)


GENERATOR_TEXTS = {
    "rank3": "monoid 3\n1 0 1\n0 1 1\n0 0 1\n1 1 2\n",
    "gaps": "monoid 2\n1 0\n1 2\n1 3\n",
    "semigroup": "monoid 1\n3\n5\n",
    **{name: monoid_text(gens) for name, gens in GENERATOR_SETS.items()},
}
GENERATOR_DIGESTS = {
    "rank3": "335d4f86f7f47e4becb8e01b5b644b72f547fb7ed78e85f83ef80cb6888f2a2f",
    "gaps": "5e79aa7a1f02114c2a9c1985638ab38e56b066d3ac6237a702d7afb8bccc5983",
    "semigroup": "1a7f7d0132b596bac24594f1674cf993da3324e4b9b9f9c813132b35218ca31e",
    "g00": "5b308d5d635bace53df58172c3686ba340bae9ca1207f8194c6325cbd7d4eb1a",
    "g01": "4cab2b9d7ac6202afe7173f1f47b1c6b583d1ef6902f078fc7ec4cce5cd22c8e",
    "g02": "b8871397f7caa80bbafaabd0baa479face0199f48ef42a82fbca8276f6a43a25",
    "g03": "2703a5014a2e16edac0d008f65d850136e99080442231a29974e26c693cb6993",
    "g04": "d7493bbdad5f9179a8468e0c792be743ddb21722eb0b51a9084b9bb292f7a9b3",
    "g05": "e8a04d92bf0fc65a8a6ffc1b0cdb5e046e9702bb0a6695114cfa7505cafa13c9",
    "g06": "4d7519a4534626077a6a5eb093bd3dfaa2007f7d1e689145a0fae32362b69acc",
    "g07": "975dd4f3add6b0c0a4196a4bb7d7060676871492f3c99c29a60b94d28264155d",
    "g08": "ccfb6f0c08d47f2c0a571a5ebb11965f36d8f3b0d43f90dbce7015791ba40b5e",
    "g09": "ddadf1e2674ba8996929bc4c14e0fd7b5fcfd524d8ad994d074686306a58c9fc",
    "g10": "2e9d90c82bd4ab21f5131fd246f6bc1833065fb5ddad32936f37563a7bdf2586",
    "g11": "0baafccb4f60746ab0f30b5d593816877545fc2f14fa43259dac365802a9cb7f",
}
# The pyramid monoid of conftest, scanned to degree 16: the box of its
# default bound, 80, passes the cap.
PYRAMID_MONOID_DIGEST = "1a9699479804d219f6b47fac689ffb6f96c0c26bbcbfaeba5b6257184f0e2679"


def generator_digest(text, name, *options) -> str:
    with open(f"{name}.txt", "w") as fh:
        fh.write(text)
    code, out, _ = run_cli(["analyze", f"{name}.txt", "--fields", "q,2,3", *options])
    assert code == 0
    return sha256(out)


def test_generator_reports(tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    digests = {name: generator_digest(text, name) for name, text in GENERATOR_TEXTS.items()}
    assert digests == GENERATOR_DIGESTS


def test_generator_reports_run_no_membership_search(tmp_path, monkeypatch):
    # the scans decide M by their degree sweep and is_normal by the Hilbert
    # basis, so analyze never calls the search of member
    def search(*args):
        raise AssertionError("member called")

    monkeypatch.setattr(monoidring.monoid, "member", search)
    monkeypatch.chdir(tmp_path)
    for name in ("rank3", "gaps", "semigroup"):
        assert generator_digest(GENERATOR_TEXTS[name], name) == GENERATOR_DIGESTS[name]


def test_pyramid_monoid_report(tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    text = monoid_text(pyramid_monoid().generators)
    assert generator_digest(text, "pyramid", "--degree-bound", "16") == PYRAMID_MONOID_DIGEST
