"""The package needs nothing beyond the standard library at runtime."""

import json
import os
import subprocess
import sys
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src"

# -S skips site-packages, so a third-party import fails or shows up here
PROBE = (
    "import json, sys, exmech, exmech.cli, exmech.verify; "
    "print(json.dumps(sorted({name.partition('.')[0] for name in sys.modules})))"
)


def test_runtime_imports_only_the_standard_library():
    env = dict(os.environ, PYTHONPATH=str(SRC))
    done = subprocess.run(
        [sys.executable, "-S", "-c", PROBE], env=env, capture_output=True, text=True, check=True
    )
    loaded = set(json.loads(done.stdout))
    assert "exmech" in loaded
    # __main__ is the probe itself
    assert loaded - set(sys.stdlib_module_names) - {"exmech", "__main__"} == set()
