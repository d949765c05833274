"""The package needs nothing beyond the standard library at runtime."""

import ast
import importlib
import importlib.util
import json
import os
import subprocess
import sys
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src"
TRACER = SRC.parent / "perfbench" / "tracer.py"

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


# runs one command in a fresh interpreter and reports the modules it loaded
COMMAND_PROBE = """
import contextlib, io, json, sys
from exmech.cli import main
with contextlib.redirect_stdout(io.StringIO()):
    code = main(sys.argv[1:])
print(json.dumps([code, sorted(sys.modules)]))
"""

# dataclasses imports inspect, ast, dis and tokenize; the value types do without them
SLOW_IMPORTS = {"dataclasses", "inspect"}


def loaded_by(*argv):
    env = dict(os.environ, PYTHONPATH=str(SRC))
    done = subprocess.run(
        [sys.executable, "-c", COMMAND_PROBE, *argv],
        env=env, capture_output=True, text=True, check=True,
    )
    code, modules = json.loads(done.stdout)
    assert code == 0, done.stderr
    return set(modules)


def test_each_command_loads_only_the_modules_it_runs(tmp_path):
    bundle = str(tmp_path / "bundle.json")
    for argv in (
        ("analyze", "--builder", "referendum", "--m", "1", "--domains", "unrestricted"),
        ("build", "referendum", "--m", "1", "--out", bundle),
        ("validate", bundle),
        ("analyze", "--mech", bundle, "--domains", "strict"),
    ):
        loaded = loaded_by(*argv)
        assert "exmech.deterministic" in loaded
        assert not loaded & {"exmech.stochastic", "exmech.verify", *SLOW_IMPORTS}, argv
    loaded = loaded_by("analyze", "--prob", "--builder", "relfreq", "--domains", "strict")
    assert "exmech.stochastic" in loaded
    assert not loaded & {"exmech.deterministic", "exmech.verify", *SLOW_IMPORTS}
    loaded = loaded_by("verify")
    assert {"exmech.deterministic", "exmech.stochastic", "exmech.verify"} <= loaded
    assert not loaded & SLOW_IMPORTS


def test_package_names_resolve_on_first_access():
    import exmech

    for name in exmech.__all__:
        value = getattr(exmech, name)
        assert getattr(sys.modules[value.__module__], name) is value
    assert set(exmech.__all__) <= set(dir(exmech))
    star = {}
    exec("from exmech import *", star)
    assert set(star) - {"__builtins__"} == set(exmech.__all__)
    assert not hasattr(exmech, "no_such_name")


def test_every_traced_binding_resolves():
    # the benchmark's tracer wraps these names; one that no longer resolves
    # would otherwise show only as missing_metrics in a traced benchmark run
    spec = importlib.util.spec_from_file_location("perfbench_tracer", TRACER)
    tracer = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracer)
    for module, attr, _, group in tracer.FUNCTIONS:
        assert callable(getattr(importlib.import_module(module), attr, None)), (group, attr)
    for module, name, attr, _, group in tracer.METHODS:
        cls = getattr(importlib.import_module(module), name, None)
        # looked up in the class's own namespace, as the tracer patches it
        assert isinstance(cls, type) and vars(cls).get(attr) is not None, (group, name, attr)


def test_every_private_helper_is_used():
    # a private top-level name referenced nowhere but in its own definition
    # is dead code, such as a helper left behind by a simplification
    trees = {path.name: ast.parse(path.read_text()) for path in (SRC / "exmech").glob("*.py")}
    defined = {}  # name -> (module, its top-level definition)
    for module, tree in trees.items():
        for node in tree.body:
            if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
                targets = [node.name]
            elif isinstance(node, (ast.Assign, ast.AnnAssign)):
                targets = [
                    name.id
                    for target in (node.targets if isinstance(node, ast.Assign) else [node.target])
                    for name in ast.walk(target)
                    if isinstance(name, ast.Name)
                ]
            else:
                continue
            for name in targets:
                if name.startswith("_") and not name.endswith("__"):
                    defined[name] = (module, node)
    used = set()
    for module, tree in trees.items():
        for node in tree.body:
            for child in ast.walk(node):
                name = child.id if isinstance(child, ast.Name) else getattr(child, "attr", None)
                if name in defined and defined[name] != (module, node):
                    used.add(name)
    assert sorted(set(defined) - used) == []
