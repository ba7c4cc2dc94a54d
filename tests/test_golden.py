"""Golden outputs: every CLI command, run in-process, writes byte-identical files.

Each (config, command) pair runs through ``cli.main`` into a fresh directory,
and the sha256 of every file it writes is pinned below.  A change that moves
any output on purpose re-pins the affected digests and says in CHANGES.md
which numbers moved and by how much.
"""

import hashlib
import json

import pytest

from lorenzlab import cli

CONFIGS = {
    "default": {},
    # the README collision experiment
    "collision": {
        "model": {"theta1": 0.19},
        "path": {"start": [0.77, 0.22], "end": [0.79, 0.22], "steps": 21},
    },
    # the benchmark's collision part: the README collision path at 401 steps;
    # pinned for ``path`` only
    "collision401": {
        "model": {"theta1": 0.19},
        "path": {"start": [0.77, 0.22], "end": [0.79, 0.22], "steps": 401},
    },
    # a switching path on the default model: ten down-Lorenz steps,
    # the double heteroclinic point at step 10, then ten up-Lorenz steps, whose
    # trapping intervals wrap through c+; pinned for ``path`` only
    "switch": {
        "path": {"start": [0.754, 0.2458], "end": [0.746, 0.2542], "steps": 21},
    },
    # the README atlas window at 128^2: unlike the default [0,1]^2 sweep it
    # reaches the HE1 cells and both L+/- wedges; pinned for ``sweep`` only
    "atlas": {
        "sweep": {"grid_nx": 128, "grid_ny": 128,
                  "alpha_range": [0.68, 0.82], "beta_range": [0.18, 0.32]},
    },
}

GOLDEN = {
    "atlas/sweep": {
        "sweep.csv": "d4a9c7c925b7168217fc80dae670b24a13fcafc54b419c5e0e5fee63fa7b104c",
        "sweep.ppm": "de5540cfc1d1cc04be9609042da31255029a2232f05c0fead2378e16d82da9cf",
    },
    "default/admissible": {
        "admissible.json": "34bb1223966cc44f68b807ce47a00182346197619d3641fddc6b44a066b385e6",
    },
    "default/attractor2d": {
        "attractor2d.json": "f6ed9a38ead73f5d2727214e4d7dae0aeaa9de4985f12bd7f0a02ceb826300bb",
        "cloud.csv": "7465523a47792e68ce5d5074597200246e30c008b0266348e9c09dcc1143564a",
        "cloud.pgm": "997e3c2a205ef3535c6109de10249b5ec1b088b068fc127aaa355464b772cd2a",
    },
    "default/classify": {
        "classify.json": "0fc040786cb7841cc770a7d1d1c3d28b4265ab2848aa7e3647620838049e7472",
    },
    "default/conjugacy": {
        "conjugacy.json": "b5cfee99f2933c45ce7ec135447c023f3f200a7e4751b42acaf36921cbf80fbe",
        "conjugacy_pairs.csv": "152a927ca84b2ca2a9bffbeec46366d114c9599076a49a177e36b948f9fe4cf9",
    },
    "default/degree": {
        "degree.json": "ac8e192749e6c641beeb488884e940092e98f0c41b13b2ef8d22467fc6cdad81",
    },
    "default/histogram": {
        "histogram.csv": "83ffa433cd94fc875cc7cf2a125e782c4f496d4f204988c8deca05b119f42b24",
    },
    "default/itinerary": {
        "itinerary.json": "1880a8742c831d7f692240cd24380a5fd11d0effb38de7b3f7ba22f6f83a85b4",
    },
    "default/kneading": {
        "kneading.json": "bafa0e3dd3d78fce640341296793bead0d951d1dc45b82400f7b72265b419774",
    },
    "default/path": {
        "path.csv": "83feb9a3440af87c6018f9a25786b10d2dfa89d5ab79e9299b4531bbcf8c9f6a",
        "path_report.json": "5255d44b4b26ca9cc901cb20098433a5db0ad051f9b4cd9e5fdc54b2da9a603f",
    },
    "default/realize": {
        "realize.json": "0b97111f9b04663a87ffcda4efb56f4fcdd8f70dd77bda92e6fa7132b9ce1f4e",
    },
    "default/sweep": {
        "sweep.csv": "d98957a0ea71783e6a11eb55f09f6c400f76fb01222b8d8bfb26fe30bcce594a",
        "sweep.ppm": "7cda2960d273184767e4c6cd9be700f5974b73f0f133b3c1ea64cdfa5cb67bd9",
    },
    "default/verify": {
        "verify.json": "d3e0da87a2154682cb98811f051d8e11d59b63e86f2c2f1f16deb94f73c4bfd4",
    },
    "collision/admissible": {
        "admissible.json": "b7c35757789604b85943a0a867a3580fb99fea3d711226075f83421a45a28c7d",
    },
    "collision/attractor2d": {
        "attractor2d.json": "2c41fdd5a1b6d8a1a3b49b48e134ef9fe83f186778958ae13d8512c89e9dd70a",
        "cloud.csv": "636ea360f7129d5dd4f7dc4d29c39e86d584db065a3f0dbe7353d91034a4fe97",
        "cloud.pgm": "7a6b2fd9f3d499325622baca3bcfcae6631a3bba1f93185d0fec33bdd85735d3",
    },
    "collision/classify": {
        "classify.json": "5f7c27853066d3ed2ab2b3cbfded37d12a59015c916d1c2095e6c8c2caf29683",
    },
    "collision/conjugacy": {
        "conjugacy.json": "bf0479d2058d0a732ce82bd8ab4c50e7914c7c44f9623890ac45fb8ae70439c5",
        "conjugacy_pairs.csv": "d0c095e93ad1d5b2e6343370197efaccbd5c765552f65afe1c100629066e6e84",
    },
    "collision/degree": {
        "degree.json": "338ca6108c4e91b8864205e3ed1e882ea73ff20da2629c6ac7afc1a8856d2a44",
    },
    "collision/histogram": {
        "histogram.csv": "79efab09c4ca7fb874d99ebffb6ef6917113b38dd44bfe23b20c3a4fae46a88c",
    },
    "collision/itinerary": {
        "itinerary.json": "c109ca8a9b42609bc30425ab68722258967a5e4adc6e9ebd83eeb135e6bf242d",
    },
    "collision/kneading": {
        "kneading.json": "84c1b6bdb90adb5010fe3e6d09d6a7ca4f954b043792346e31d8654ba6e80c7d",
    },
    "collision/path": {
        "path.csv": "3a888ce3d955bca12ee53e3918e3544cd36033a9686b60602a5fe22632c9ede4",
        "path_report.json": "c0da673a68944c0b1a6a43c621a8393cb21de104e3a31bbe57f6f5f25ef99f60",
    },
    "collision/realize": {
        "realize.json": "e50de74cdda5d8a16ad3183005df553d4855b489c5c5bad8721bec7a46c48673",
    },
    "collision/sweep": {
        "sweep.csv": "4cca84c51929b496d04bd65200bf5fa406f1507e5a29effc14e3c38665526316",
        "sweep.ppm": "aa45b88d4fb2f36600769f4cc3aea7cab1a9adbcdf39100a614b32aa0d05d906",
    },
    "collision/verify": {
        "verify.json": "b16b430d515d70ede08c9cea751d8d2455f9ceef51dcb9f81743c62d4e24809e",
    },
    "collision401/path": {
        "path.csv": "e10bbcb5d96ef850bf99f197c8d1e7ac92aefd1a996e98c6203b49726cf53bdf",
        "path_report.json": "492d3c5ba38ffe148544cc908912166737436fd4f94353c4b2d08a038ba0ec5a",
    },
    "switch/path": {
        "path.csv": "48fcfa1102a39a19db456560836f7a2630c40bd5ee1319f518dd37bd66e81e0b",
        "path_report.json": "4b9a66a138cc8ec0b75fccfe6424c83f0a2d9ce7810eae049799690f907c9488",
    },
}


@pytest.mark.parametrize("case", sorted(GOLDEN))
def test_golden_outputs(case, tmp_path):
    config_name, command = case.split("/")
    cfg = tmp_path / "config.json"
    cfg.write_text(json.dumps(CONFIGS[config_name]))
    out = tmp_path / "out"
    assert cli.main([command, "--config", str(cfg), "--out", str(out)]) == 0
    written = {p.name: hashlib.sha256(p.read_bytes()).hexdigest()
               for p in sorted(out.iterdir())}
    assert written == GOLDEN[case]


def test_golden_covers_every_command():
    assert {case.split("/")[1] for case in GOLDEN} == set(cli.COMMANDS)
    assert {case.split("/")[0] for case in GOLDEN} == set(CONFIGS)
