"""Traced CLI child: ``python3 perfbench/launch.py OUT ARGS...``.

Installs the tracer, then runs ``exmech.cli.main(ARGS)`` exactly as
``python -m exmech.cli ARGS`` would, and writes the trace summary to OUT.
"""

import time

T_BEGIN = time.monotonic()

import json  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402


def main(out_path: str, argv: list[str]) -> int:
    start = time.perf_counter()
    import exmech.cli

    import_s = time.perf_counter() - start
    from tracer import Tracer

    tracer = Tracer()
    tracer.install()
    code = 1
    try:
        code = exmech.cli.main(argv)
    finally:
        tracer.uninstall()
        sys.stdout.flush()
        result = {"begin": T_BEGIN, "import_s": import_s, "trace": tracer.summary(),
                  "end": time.monotonic()}
        Path(out_path).write_text(json.dumps(result))
    return code


if __name__ == "__main__":
    sys.exit(main(sys.argv[1], sys.argv[2:]))
