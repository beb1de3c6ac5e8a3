"""The package's public namespace."""

import re
import subprocess
import sys
import types
from pathlib import Path

import affinity as af


def test_all_names_every_public_function_and_no_module():
    modules = [name for name in af.__all__
               if isinstance(getattr(af, name), types.ModuleType)]
    assert modules == []
    assert len(af.__all__) == len(set(af.__all__))
    public = {name for name, value in vars(af).items()
              if not name.startswith("_")
              and not isinstance(value, types.ModuleType)}
    assert set(af.__all__) == public


def test_star_import_exports_exactly_all():
    namespace: dict = {}
    exec("from affinity import *", namespace)
    namespace.pop("__builtins__")
    assert set(namespace) == set(af.__all__)


def test_readme_python_examples_run(tmp_path, monkeypatch):
    # the blocks run in order in one namespace, as a reader would paste them
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    blocks = re.findall(r"^```python\n(.*?)^```$", readme, re.M | re.S)
    assert blocks
    monkeypatch.chdir(tmp_path)
    namespace: dict = {}
    for block in blocks:
        exec(compile(block, "README.md", "exec"), namespace)


def test_import_leaves_networkx_unloaded():
    # networkx is a test-only dependency; the package and its CLI never load it
    code = ("import sys, affinity, affinity.cli; "
            "print(affinity.__file__, 'networkx' in sys.modules)")
    out = subprocess.run([sys.executable, "-c", code], check=True,
                         capture_output=True, text=True).stdout.split()
    assert out == [af.__file__, "False"]
