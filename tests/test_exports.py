import ast
import importlib
import pkgutil
import re
import subprocess
import sys
from pathlib import Path

import projgrad

TESTS = Path(__file__).parent


def test_every_exported_name_exists():
    # a name left in __all__ after its definition is deleted fails here
    modules = [importlib.import_module(f"projgrad.{m.name}") for m in pkgutil.iter_modules(projgrad.__path__)]
    assert len(modules) >= 9
    for module in modules:
        exported = getattr(module, "__all__", [])
        missing = [name for name in exported if not hasattr(module, name)]
        assert not missing, f"{module.__name__}.__all__ names missing objects: {missing}"
        assert len(set(exported)) == len(exported), module.__name__


def test_no_unused_imports():
    # an imported name must be used in its module or re-exported in __all__
    found = {}
    for path in sorted(Path(projgrad.__file__).parent.glob("*.py")):
        if path.name == "__init__.py":
            continue
        tree = ast.parse(path.read_text())
        imported = set()
        for node in ast.walk(tree):
            if isinstance(node, ast.Import):
                imported.update((a.asname or a.name).split(".")[0] for a in node.names)
            elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
                imported.update(a.asname or a.name for a in node.names)
        used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
        exported = set(importlib.import_module(f"projgrad.{path.stem}").__dict__.get("__all__", ()))
        unused = sorted(imported - used - exported)
        if unused:
            found[path.name] = unused
    assert not found, found


def test_import_loads_no_hashing_or_ssl_module():
    # hashlib loads OpenSSL, several MB of resident memory for every user
    src = str(Path(projgrad.__file__).parents[1])
    code = (
        f"import sys; sys.path.insert(0, {src!r}); import projgrad; "
        "print(sorted({'hashlib', '_hashlib', '_ssl'} & set(sys.modules)))"
    )
    out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, check=True).stdout
    assert out.strip() == "[]"


def test_no_test_module_imports_another():
    # the builders shared by test modules and sweeps live in tests/families.py
    found = []
    for path in sorted(TESTS.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.Import):
                names = [a.name for a in node.names]
            elif isinstance(node, ast.ImportFrom):
                names = [node.module or ""]
            else:
                continue
            found += [f"{path.name}: {name}" for name in names if name.startswith("test_")]
    assert not found, found


def test_sweeps_and_families_import_without_pytest():
    # the sweeps' CI jobs install numpy alone
    src = str(Path(projgrad.__file__).parents[1])
    code = (
        f"import sys; sys.modules['pytest'] = None; sys.path[:0] = [{str(TESTS)!r}, {src!r}]; "
        "import sweep, families"
    )
    result = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True)
    assert result.returncode == 0, result.stderr


def test_ci_runs_only_scripts_that_exist():
    # a job left running a renamed or deleted script fails here, not in CI
    root = TESTS.parent
    commands, block = [], None
    for line in (root / ".github" / "workflows" / "tests.yml").read_text().splitlines():
        indent = len(line) - len(line.lstrip())
        if block is not None and (not line.strip() or indent > block):
            commands.append(line)
            continue
        block = None
        step = re.match(r"\s*(?:- )?run:\s*(.*)", line)
        if step and step.group(1) == "|":
            block = indent
        elif step:
            commands.append(step.group(1))
    scripts = set(re.findall(r"\b(?:tests|perfbench)/[\w/]+\.py", "\n".join(commands)))
    assert {"tests/sweep.py", "perfbench/run.py"} <= scripts
    assert not sorted(s for s in scripts if not (root / s).is_file())
