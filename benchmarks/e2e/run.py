#!/usr/bin/env python3
"""Entry point of the end-to-end benchmark: see README.md beside it.

``python3 benchmarks/e2e/run.py --workload NAME --seed N --seconds S --trace 0|1``
``python3 benchmarks/e2e/run.py compare A.json B.json``
"""

from __future__ import annotations

import os
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(os.path.dirname(HERE))


def main() -> int:
    source = os.path.join(ROOT, "src")
    if not os.path.isdir(os.path.join(source, "repro")):
        print(
            f"e2e benchmark: {source}/repro not found; the benchmark measures "
            "the repository it sits in and cannot run without it",
            file=sys.stderr,
        )
        return 2
    # Running this file puts its directory first on sys.path, where
    # trace.py would shadow the standard library's module of that name;
    # the harness is imported as the package ``e2e`` instead.
    sys.path[:] = [
        entry for entry in sys.path if os.path.abspath(entry or os.curdir) != HERE
    ]
    sys.path[:0] = [os.path.dirname(HERE), source]
    from e2e.cli import main as cli_main

    return cli_main(sys.argv[1:])


if __name__ == "__main__":
    sys.exit(main())
