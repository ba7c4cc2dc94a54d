"""Premises of the CLI's fixed cost per run, each checked where it holds.

The seeded commands draw their starting points from the standard library's
generator, so no command loads ``numpy.random``; the command line is parsed
with ``getopt``, so no run loads ``argparse`` or ``locale``; only four
records are dataclasses, whose methods are generated at import; and the
cloud's seed array is allocated before its first draw.
"""

import dataclasses
import random

import lorenzlab
from lorenzlab import annulus, atlas, circle, cli, maps, symbolic
from test_blas import _fresh


def test_seeded_commands_do_not_load_numpy_random(tmp_path):
    # importing numpy.random cost 6.4 MB of peak RSS and about 14 ms per run
    # for the one histogram start and the cloud's 2 x samples uniforms
    code = ("import sys\n"
            "from lorenzlab import cli\n"
            f"assert cli.main(['histogram', '--out', {str(tmp_path)!r}]) == 0\n"
            f"assert cli.main(['attractor2d', '--out', {str(tmp_path)!r}]) == 0\n"
            "print('numpy.random' in sys.modules)\n")
    assert _fresh(code)[-1] == "False"


def test_cli_run_loads_neither_argparse_nor_locale(tmp_path):
    # main parses its three-token grammar with getopt; argparse loaded
    # gettext and, at its first parse, locale, which cost 0.62 MB of peak
    # RSS and about 5 ms per run
    code = ("import sys\n"
            "from lorenzlab import cli\n"
            f"assert cli.main(['classify', '--out', {str(tmp_path)!r}]) == 0\n"
            "print('argparse' in sys.modules, 'locale' in sys.modules)\n")
    assert _fresh(code)[-2:] == ["False", "False"]


def test_stdlib_random_sequence_is_pinned():
    # histogram and attractor2d draw from random.Random(seed).random(), whose
    # sequence for an int seed Python keeps across versions; a platform that
    # broke that would fail here, not only through the moved golden digests
    assert random.Random(1).random().hex() == "0x1.132d8f91b7584p-3"
    assert random.Random(7).random().hex() == "0x1.4b9ad0f953a6ep-2"


def test_only_four_records_are_dataclasses():
    # a dataclass generates its methods with exec at every import, about
    # 1 ms per class against 0.13 ms for a NamedTuple.  These four stay:
    # Arc reaches json.dumps through cli._arc_json, BranchProfile.g is the
    # histogram's step, MapModel caches a* and b*, and Word iterates through
    # __getitem__
    found = {name for module in (lorenzlab, annulus, atlas, circle, cli, maps, symbolic)
             for name, obj in vars(module).items()
             if isinstance(obj, type) and dataclasses.is_dataclass(obj)}
    assert found == {"Arc", "BranchProfile", "MapModel", "Word"}


def test_cloud_seeds_fail_on_allocation_before_any_draw():
    # the seed array of 2 x samples uniforms is allocated before the first
    # draw: under a 1 GiB address-space cap, 10^15 samples raise MemoryError
    # at once, while a list of draws would grow to the cap first
    code = ("import resource\n"
            "resource.setrlimit(resource.RLIMIT_AS, (1 << 30, 1 << 30))\n"
            "from lorenzlab import cli\n"
            "from lorenzlab.annulus import attractor_cloud, build_skew\n"
            "cfg = cli.load_config('{}')\n"
            "skew = build_skew(cli._model(cfg), **cfg['skew'])\n"
            "try:\n"
            "    attractor_cloud(skew, depth=12, samples=10**15)\n"
            "except MemoryError:\n"
            "    print(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss // 1024)\n")
    assert int(_fresh(code)[-1]) < 200
