"""Write perfbench/reference/<part>.json from one run of the current code.

Run from the repository root:

    python3 perfbench/make_reference.py [PART ...]

Only do this when a change alters an output on purpose, and say which fact
changed and why; the reference is what every later benchmark run is checked
against.
"""

import json
import sys
from pathlib import Path

from run import BENCH, Workspace, load_parts, make_config
from check import snapshot

REFERENCE_SEED = 1


def main(names) -> int:
    root = Path.cwd()
    parts = load_parts()
    ws = Workspace(root)
    try:
        for name in names or list(parts):
            spec = parts[name]
            config = make_config(spec, REFERENCE_SEED, trace=False)
            r = ws.invoke([(name, spec["commands"], config)], trace=False)
            if not r["ok"]:
                print(f"{name}: {r['problems']}", file=sys.stderr)
                return 1
            facts = snapshot(name, r["out"] / name, config)
            path = BENCH / "reference" / f"{name}.json"
            path.parent.mkdir(exist_ok=True)
            path.write_text(json.dumps(facts, separators=(",", ":")) + "\n")
            print(f"{name}: wrote {path.relative_to(root)}")
    finally:
        ws.close()
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
