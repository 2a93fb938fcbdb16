#!/usr/bin/env python3
"""Re-record the golden files that tests/test_golden.py checks.

Usage, from the root of a source checkout:

    python3 tests/golden/record.py

Runs every case of ``tests/test_golden.py`` and rewrites its stdout file and
``results.json`` (argv, exit code, stderr).  Re-record only when a change to
the program is meant to change its output.
"""

import json
import sys
from pathlib import Path

GOLDEN = Path(__file__).resolve().parent
sys.path.insert(0, str(GOLDEN.parent.parent / "src"))
sys.path.insert(0, str(GOLDEN.parent))

from test_golden import CASES, RESULTS, run_case  # noqa: E402


def main() -> int:
    for stale in GOLDEN.glob("*.out"):
        stale.unlink()
    results = {}
    for name, argv in sorted(CASES.items()):
        code, out, err = run_case(argv)
        (GOLDEN / f"{name}.out").write_bytes(out.encode())
        results[name] = {"argv": argv, "exit": code, "stderr": err}
        print(f"{code} {len(out):6d} {name}")
    RESULTS.write_text(json.dumps(results, indent=1, sort_keys=True) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
