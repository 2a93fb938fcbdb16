#!/usr/bin/env python3
"""Record the exit code and stdout digest of every fixed benchmark op.

Usage, from the root of a source checkout:

    python3 bench/record_expected.py

Writes bench/expected.json, which bench/run.py checks every op against.
Re-record only when a change to the program is meant to change its output.
"""

import contextlib
import io
import json
import sys
from pathlib import Path

import workloads


def main() -> int:
    sys.path.insert(0, str(Path.cwd() / "src"))
    from ccyclic.cli import main as cli_main

    expected = {}
    for workload in workloads.WORKLOADS:
        for op in workloads.fixed_ops(workload):
            out = io.StringIO()
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
                code = cli_main(list(op.argv))
            expected[op.key] = {"exit": code, "sha256": workloads.digest(out.getvalue())}
            print(f"{code} {workloads.digest(out.getvalue())[:12]} {op.key}")
    workloads.EXPECTED_FILE.write_text(json.dumps(expected, indent=1, sort_keys=True) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
