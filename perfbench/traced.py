"""Traced child process: install the tracer, run one workload piece, print the trace.

  python3 perfbench/traced.py cli verify --p-max 30 --n-max 70 --json -
  python3 perfbench/traced.py mutants --seed N

The CLI piece calls skeincalc.cli.main(argv) in-process, so the tracer can
wrap the CLI's own bindings; its standard output is captured and returned.
Prints one JSON object: exit code, captured output (CLI only), verdict counts
(mutants only) and the tracer summary.
"""

from __future__ import annotations

import contextlib
import io
import json
import sys

from tracer import Tracer


def main(argv: list[str]) -> int:
    tracer = Tracer()
    tracer.install()
    out: dict = {}
    if argv[:1] == ["cli"]:
        import skeincalc.cli
        buf = io.StringIO()
        with contextlib.redirect_stdout(buf):
            out["exit"] = skeincalc.cli.main(argv[1:])
        out["stdout"] = buf.getvalue()
    elif argv[:2] == ["mutants", "--seed"]:
        import mutants
        tasks, table = mutants.build_tasks(int(argv[2]))
        out["exit"] = 0
        out["verdicts"] = mutants.run_tasks(tasks, table, tracer.span_check)
    else:
        print(__doc__, file=sys.stderr)
        return 2
    out["trace"] = tracer.summary()
    print(json.dumps(out))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
