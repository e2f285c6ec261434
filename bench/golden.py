"""Write ``bench/golden/golden.json``: the reference stdout of every CLI op.

Run from the repository root, at a commit whose output is known good:

    python3 bench/golden.py

It records the exact stdout of each corpus-cli op and each sweep op the
benchmark runs, at both input scales.  Every op must exit 0, and ``examples``
must pass all of the hand-written exact expectations in ``softbayes.cli``;
otherwise nothing is written.  A later change must reproduce these bytes.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def main() -> int:
    sys.path.insert(0, str(ROOT / "src"))
    import workloads
    from softbayes import cli

    golden: dict[str, dict[str, str]] = {"corpus-cli": {}, "sweep": {}}
    ops = [("corpus-cli", argv) for argv in workloads.corpus_argvs()]
    ops += [
        ("sweep", workloads.sweep_argv(case, steps))
        for steps in sorted(set(workloads.SWEEP_STEPS.values()))
        for case in workloads.SWEEP_CASES
    ]
    for group, argv in ops:
        code, out = workloads.run_cli(argv)
        if code != 0:
            print(f"{' '.join(argv)} exited {code}", file=sys.stderr)
            return 1
        golden[group][" ".join(argv)] = out
    expected = len(cli._EXAMPLE_EXPECTATIONS)
    if not golden["corpus-cli"]["examples"].endswith(f"{expected}/{expected} passed\n"):
        print("examples does not pass its expectations", file=sys.stderr)
        return 1
    workloads.GOLDEN_FILE.write_text(json.dumps(golden, indent=1, sort_keys=True) + "\n")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
