"""Run one benchmark session of lorenzlab CLI commands in this interpreter.

Usage: python3 perfbench/child.py JOB.json

JOB.json holds ``commands`` (a list of CLI argument lists, run in order
through ``lorenzlab.cli.main`` as the ``lorenzlab`` script would), ``marks``
(where to write the timestamps) and ``trace`` (where to write spans, or
null to run untraced).  Timestamps are ``time.monotonic()`` readings, the
clock launch.py read just before it started this process:
``config_loaded`` is taken when the first ``load_config`` returns and
``end`` after the last command has written its outputs.
"""

import json
import sys
import time


def main(job_path: str) -> int:
    with open(job_path) as fh:
        job = json.load(fh)

    from lorenzlab import cli

    tracer = None
    if job["trace"]:
        from tracer import Tracer
        tracer = Tracer()
        tracer.install()

    marks = {}
    load_config = cli.load_config

    def marked_load_config(text):
        config = load_config(text)
        marks.setdefault("config_loaded", time.monotonic())
        return config

    cli.load_config = marked_load_config
    codes = []
    for argv in job["commands"]:
        codes.append(cli.main(argv))
        if codes[-1] != 0:
            break
    marks["end"] = time.monotonic()
    marks["exit_codes"] = codes

    with open(job["marks"], "w") as fh:
        json.dump(marks, fh)
    if tracer is not None:
        tracer.dump(job["trace"])
    return max(codes)


if __name__ == "__main__":
    sys.exit(main(sys.argv[1]))
