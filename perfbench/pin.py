"""Regenerate perfbench/expected.json, the outputs pinned for the seeds in
``workloads.PINNED_SEEDS``.

    python3 perfbench/pin.py

Every input of each pinned seed is run once (about five minutes on the pure
Python kernel) and must pass the benchmark's other checks first.  Re-pin only
when a change is meant to alter the heuristics' choices or the eval outputs;
otherwise the benchmark counts any change in them as failed operations.
"""

from __future__ import annotations

import json
import shutil
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))

import workloads  # noqa: E402


def main() -> int:
    expected = {}
    work = HERE / "_work" / "pin"
    for name, cls in workloads.WORKLOADS.items():
        for seed in workloads.PINNED_SEEDS:
            wl = cls(seed)
            shutil.rmtree(work, ignore_errors=True)
            try:
                wl.setup(work / "setup")
                (work / "out").mkdir(parents=True)
                outputs = workloads.timed_loop(wl, 0.0, work / "out",
                                               min_calls=wl.distinct_calls())[3]
                failed, notes = wl.check(outputs, None)
            finally:
                shutil.rmtree(work, ignore_errors=True)
            if failed:
                print(f"{name} seed {seed}: {failed} failed checks; nothing pinned", file=sys.stderr)
                for note in notes[:20]:
                    print(f"  {note}", file=sys.stderr)
                return 1
            expected.setdefault(name, {})[str(seed)] = wl.pin(outputs)
            print(f"pinned {name} seed {seed}")
    workloads.EXPECTED_PATH.write_text(json.dumps(expected, indent=0, sort_keys=True) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
