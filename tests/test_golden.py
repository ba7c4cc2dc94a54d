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
        "admissible.json": "7682474710ebf79285f90e04bab8ab71ec1122ae74b3c3d7c55c82c02f8f8d28",
    },
    "default/attractor2d": {
        "attractor2d.json": "f3b7f5733265e1640c4c57aeeb90978add9f604a577b5528326a47f401baf88b",
        "cloud.csv": "e4d14d29158573d6ef793b8498365b39bcd8dcf774ae0995e6c2c905909dffa9",
        "cloud.pgm": "45b3f68b332211d868589367711750bad47d60408a7891270d4c412ac9e00267",
    },
    "default/classify": {
        "classify.json": "be8005e3420445a0b4874980018fe056873b604819927f9dc87813961cc25c00",
    },
    "default/conjugacy": {
        "conjugacy.json": "878de34e6fe11516812d204dea2640f460c66bf275cd172bb6c87da04f3c82ad",
        "conjugacy_pairs.csv": "152a927ca84b2ca2a9bffbeec46366d114c9599076a49a177e36b948f9fe4cf9",
    },
    "default/degree": {
        "degree.json": "059903dac3c0878a164abb9123263f6b180c99944807d70b114318c84f39c2f7",
    },
    "default/histogram": {
        "histogram.csv": "bcbbfe93547b9d43df29f43de1794781f410368de5e18370f32226559d20e0fb",
    },
    "default/itinerary": {
        "itinerary.json": "2fc29f8682354901f7248376ed6de32097d85902468d2326b71389be616b3806",
    },
    "default/kneading": {
        "kneading.json": "416ecd4040afb27ca4f3ef6a94f2d8f447d970497883b1bb512447505007e34a",
    },
    "default/path": {
        "path.csv": "83feb9a3440af87c6018f9a25786b10d2dfa89d5ab79e9299b4531bbcf8c9f6a",
        "path_report.json": "32ffbbd1440c4d61d6b54b45d506275cd078f5663ddb1a19f5a6fe166dabfba0",
    },
    "default/realize": {
        "realize.json": "68966a7d9d554dff3aed6396245090babe40ebb69a45f13b91fda54a2602f452",
    },
    "default/sweep": {
        "sweep.csv": "d98957a0ea71783e6a11eb55f09f6c400f76fb01222b8d8bfb26fe30bcce594a",
        "sweep.ppm": "7cda2960d273184767e4c6cd9be700f5974b73f0f133b3c1ea64cdfa5cb67bd9",
    },
    "default/verify": {
        "verify.json": "3ff2843347db4d6e1100920e870e0ded78dceab9d924d9b22c086090241ae83c",
    },
    "collision/admissible": {
        "admissible.json": "6266bbf9b41d3671e9d26a48cb73201f992cc9877b3d91139b7d4aa735ddc31e",
    },
    "collision/attractor2d": {
        "attractor2d.json": "eedb1e52102dde5c8248d69c619787d8b7b2a03acfedd9c2ccf6780ea97a046f",
        "cloud.csv": "8aa9c8b981b275b469a0df4439d3182c12f703252ca63d39189559b3560cde15",
        "cloud.pgm": "2bff6dcb374b2210ce094cb9e6dae91cfee62e2b2eb87aa5ab4ed3f83fa4d7b8",
    },
    "collision/classify": {
        "classify.json": "6a24022e4a5404b0ec50701459a6cdf515a14f47eb93ad76361b451776cd7a59",
    },
    "collision/conjugacy": {
        "conjugacy.json": "7a4a9796bb21223f5890b23230fcfe94831ca8b82543026cb34974ad3b1e2ac2",
        "conjugacy_pairs.csv": "d0c095e93ad1d5b2e6343370197efaccbd5c765552f65afe1c100629066e6e84",
    },
    "collision/degree": {
        "degree.json": "9951667310dbbf94d9cff52ca63d18fcc7d03f9c5acf0eb18359e322e545580d",
    },
    "collision/histogram": {
        "histogram.csv": "20869ff0d85a2193477abb38b47c494552202bd56bb9d205b842c9306bc52cc4",
    },
    "collision/itinerary": {
        "itinerary.json": "d9fb0ba148195ed3d56df2058359438345bde0263e42ceb597b4b037e9091fba",
    },
    "collision/kneading": {
        "kneading.json": "ab7012d4d6381d2caa47159db217b99dc628bbf7c4a5310afb854a5b2cec5c3e",
    },
    "collision/path": {
        "path.csv": "3a888ce3d955bca12ee53e3918e3544cd36033a9686b60602a5fe22632c9ede4",
        "path_report.json": "47e6c20dfa75ba4c1994abbf5b44a38c4e43cd876cbe6aab8e596c4c9a848b29",
    },
    "collision/realize": {
        "realize.json": "dfdb682885b7bcbe5322726b6ec8ef7316e2205687c798964dc8c301c71d252a",
    },
    "collision/sweep": {
        "sweep.csv": "4cca84c51929b496d04bd65200bf5fa406f1507e5a29effc14e3c38665526316",
        "sweep.ppm": "aa45b88d4fb2f36600769f4cc3aea7cab1a9adbcdf39100a614b32aa0d05d906",
    },
    "collision/verify": {
        "verify.json": "81adbcf3ae3c530cfee9f3418b0958d6d9f88589fb4591f9c46e0f0c760b6bc6",
    },
    "collision401/path": {
        "path.csv": "e10bbcb5d96ef850bf99f197c8d1e7ac92aefd1a996e98c6203b49726cf53bdf",
        "path_report.json": "adba834c6eeaafb922b3ea8f4b263c9dc8a53b1e3012f4ec0cd337b9f6a8f21d",
    },
    "switch/path": {
        "path.csv": "48fcfa1102a39a19db456560836f7a2630c40bd5ee1319f518dd37bd66e81e0b",
        "path_report.json": "661f2abdf47cb2f36407a63746fdd765a7fcb55971bdd6cad66eab9fc9525cf1",
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
