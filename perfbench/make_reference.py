"""Regenerate ``reference.json``: the makespan of every benchmark operation.

Usage, from the root of a checkout::

    python3 perfbench/make_reference.py [workload ...]

Runs one untraced pass of each named workload (default: all), with every
schedule validated, and stores the makespans repr-exact.  Refuses to write
when an operation raised or failed validation.  Only a change that is meant
to alter schedules should regenerate the file.
"""

from __future__ import annotations

import json
import sys

from run import REFERENCE, setup


def main(names: list[str]) -> int:
    reference = json.loads(REFERENCE.read_text(encoding="utf-8")) if REFERENCE.exists() else {}
    for name in names or ["wan-large", "fig-sweep", "search"]:
        workload, instances, _, _ = setup(name)
        res, _ = workload.run_pass(instances, "coarse")
        if res.errors or set(res.keys) != set(res.makespans):
            print(f"{name}: operations failed: {res.errors}", file=sys.stderr)
            return 1
        reference[name] = {key: res.makespans[key] for key in res.keys}
        print(f"{name}: {len(res.keys)} makespans in {res.wall_s:.1f} s")
    REFERENCE.write_text(json.dumps(reference, indent=1, sort_keys=True) + "\n", encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
