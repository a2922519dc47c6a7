"""One driver call in a fresh Python process.

Usage: child.py RESULT_JSON T0 TRACE [DRIVER ARGS...]

T0 is the parent's ``time.time()`` just before it started this process, so
``setup_s`` covers process start, interpreter start-up and the import of
``dyncov.cli``.  With TRACE=1 the package is wrapped by ``tracing`` after the
import and the span summary is saved with the timings.  With no driver
arguments the process only imports: a set-up probe.
"""

import json
import os
import sys
import time


def main() -> None:
    result_path, t0, trace = sys.argv[1], float(sys.argv[2]), sys.argv[3] == "1"
    argv = sys.argv[4:]
    root = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
    sys.path.insert(0, os.path.join(root, "src"))

    import dyncov.cli

    result = {"setup_s": time.time() - t0}
    if argv:
        tracer = None
        if trace:
            import tracing

            tracer = tracing.install()
        start = time.perf_counter()
        try:
            rc = tracer.run(dyncov.cli.main, argv) if tracer else dyncov.cli.main(argv)
        except SystemExit as exc:  # argparse rejects the arguments
            rc = exc.code
        result["wall_s"] = time.perf_counter() - start
        result["rc"] = rc
        if tracer:
            result["trace"] = tracer.summary()
    with open(result_path, "w", encoding="utf-8") as fh:
        json.dump(result, fh)


if __name__ == "__main__":
    main()
