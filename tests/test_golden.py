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
        "admissible.json": "10664700685a2170403f84138130b24d116524bdc400cfa0a2b029b5e0d9fe3a",
    },
    "default/attractor2d": {
        "attractor2d.json": "fa3487a88882798fc50590c6895b4db6240ea6a5a36ef24890fd4addf4c05557",
        "cloud.csv": "e4d14d29158573d6ef793b8498365b39bcd8dcf774ae0995e6c2c905909dffa9",
        "cloud.pgm": "45b3f68b332211d868589367711750bad47d60408a7891270d4c412ac9e00267",
    },
    "default/classify": {
        "classify.json": "1878eb6f6a609847df7d92e8872ce17afc321eb6bfd63c909684eadffe22aab9",
    },
    "default/conjugacy": {
        "conjugacy.json": "e52d3282c604e18a73a093f53736a53e1d37574e465b4b5e60ce898fead39ae7",
        "conjugacy_pairs.csv": "152a927ca84b2ca2a9bffbeec46366d114c9599076a49a177e36b948f9fe4cf9",
    },
    "default/degree": {
        "degree.json": "69c9832e277a7b9e7b5c2803eecf7dceb08b975f4bab6bdc9a51724baf34da2c",
    },
    "default/histogram": {
        "histogram.csv": "bcbbfe93547b9d43df29f43de1794781f410368de5e18370f32226559d20e0fb",
    },
    "default/itinerary": {
        "itinerary.json": "981363efdbb6534f40f900b222e55add193f317ee632efb947c01c7897feab84",
    },
    "default/kneading": {
        "kneading.json": "d8bb449e3e2ab70f7aa31a1e5a788cd59d131c763224b8a241ede28ee2fc16d3",
    },
    "default/path": {
        "path.csv": "83feb9a3440af87c6018f9a25786b10d2dfa89d5ab79e9299b4531bbcf8c9f6a",
        "path_report.json": "7aabadee74997cefd967b483347ae2853fd71f1253ff8c0b0d8a498b9733b564",
    },
    "default/realize": {
        "realize.json": "c44da2c2dfb179f5b9da745a423b4a3b8e309f28a4679d54f78a6c8ea10544af",
    },
    "default/sweep": {
        "sweep.csv": "d98957a0ea71783e6a11eb55f09f6c400f76fb01222b8d8bfb26fe30bcce594a",
        "sweep.ppm": "7cda2960d273184767e4c6cd9be700f5974b73f0f133b3c1ea64cdfa5cb67bd9",
    },
    "default/verify": {
        "verify.json": "53cc57793a65f2b166a1922784e17e38ff6884fe4da31981624fc26507c7a5a4",
    },
    "collision/admissible": {
        "admissible.json": "b442d7f6e5a86a885c028411caea21226392d4ee28f4024487d3e53a02b22d58",
    },
    "collision/attractor2d": {
        "attractor2d.json": "bde31798c0ccb4092858431546fd43e7dbdfc164f233fe35e8434ab05ce9a9f4",
        "cloud.csv": "8aa9c8b981b275b469a0df4439d3182c12f703252ca63d39189559b3560cde15",
        "cloud.pgm": "2bff6dcb374b2210ce094cb9e6dae91cfee62e2b2eb87aa5ab4ed3f83fa4d7b8",
    },
    "collision/classify": {
        "classify.json": "4a45e3b7e9abb6c5b4d8e104f910c360dbc08aac4c55dc6dc1f419050ee4d340",
    },
    "collision/conjugacy": {
        "conjugacy.json": "fa9ed04589bcabe45f81a85571b396111e1ae8c507814a9ecc234a7fd978aeae",
        "conjugacy_pairs.csv": "d0c095e93ad1d5b2e6343370197efaccbd5c765552f65afe1c100629066e6e84",
    },
    "collision/degree": {
        "degree.json": "11d91e230303f60744faca4d32aadde1a98e9f78019d355f616b00f19b6e8fdd",
    },
    "collision/histogram": {
        "histogram.csv": "20869ff0d85a2193477abb38b47c494552202bd56bb9d205b842c9306bc52cc4",
    },
    "collision/itinerary": {
        "itinerary.json": "d6913456e8a142991a62656aed483b464c847409a5cc23b0c01aec4a2cd1dbbe",
    },
    "collision/kneading": {
        "kneading.json": "1c4b5b492cda8d9055b3c852d262aabf4c5570f10aba9af7b45c5c28eb3d81b0",
    },
    "collision/path": {
        "path.csv": "3a888ce3d955bca12ee53e3918e3544cd36033a9686b60602a5fe22632c9ede4",
        "path_report.json": "227d8bf116db8e1084f46a4f1eca2ff4713e282df84e52dd1d5b21a868fcf376",
    },
    "collision/realize": {
        "realize.json": "2d2a66f58d316638f9408b24948ddccf09cb4297ce5c2b3fc5c282a6c759906f",
    },
    "collision/sweep": {
        "sweep.csv": "4cca84c51929b496d04bd65200bf5fa406f1507e5a29effc14e3c38665526316",
        "sweep.ppm": "aa45b88d4fb2f36600769f4cc3aea7cab1a9adbcdf39100a614b32aa0d05d906",
    },
    "collision/verify": {
        "verify.json": "3b0e66bd264c6d37311a515c6e9a07afeaf2c4d4b8c302d7ab0b6115e1e90b1e",
    },
    "collision401/path": {
        "path.csv": "e10bbcb5d96ef850bf99f197c8d1e7ac92aefd1a996e98c6203b49726cf53bdf",
        "path_report.json": "40e1621d1787db52bf5d1cd721d7ff93f86e757f85d3e6f97cbcd1d015b97b75",
    },
    "switch/path": {
        "path.csv": "48fcfa1102a39a19db456560836f7a2630c40bd5ee1319f518dd37bd66e81e0b",
        "path_report.json": "a82d23608e37584ff1a35ddb55e0556d1264cf3558a499b7d9928234d533dbf8",
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
