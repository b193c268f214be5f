"""Record the default seed's reference fingerprints.

Run from the checkout root after a change that is meant to alter
simulated results::

    python3 perfbench/record.py

Each workload runs once on the event engine; the fingerprints of its
canonical result bytes are written to ``perfbench/reference.json``.
"""

from __future__ import annotations

import json
import pathlib
import sys

sys.path.insert(0, str(pathlib.Path(__file__).resolve().parent.parent))

from perfbench import run, workloads  # noqa: E402


def main() -> int:
    root = pathlib.Path.cwd()
    sys.path.insert(0, str(root / "src"))
    prints = {}
    for name in workloads.WORKLOADS:
        bench = run.Bench(name, workloads.DEFAULT_SEED, root)
        report = bench.spawn(bench.request(bench.inputs(), "event", None,
                                           False, "record"),
                             "record", bench.env())
        if report["errors"]:
            print(f"{name}: {report['errors']}", file=sys.stderr)
            return 1
        prints[name] = report["fingerprints"]
        print(f"{name}: {len(prints[name]['ops'])} operation(s)")
    run.REFERENCE.write_text(json.dumps(
        {"seed": workloads.DEFAULT_SEED, "fingerprints": prints},
        indent=2, sort_keys=True) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
