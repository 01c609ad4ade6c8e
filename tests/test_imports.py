"""The package imports nothing outside the standard library.

``pyproject.toml`` declares ``dependencies = []``; this holds it to
that promise on hosts where third-party packages happen to be
installed, by importing every module under ``src/repro`` in a fresh
interpreter.  Packages export their names lazily, so importing only
the packages would load almost nothing.
"""

import json
import os
import subprocess
import sys

import repro

_PROBE = """
import json, pkgutil, sys
before = set(sys.modules)
import repro
for module in pkgutil.walk_packages(repro.__path__, "repro."):
    if module.name != "repro.__main__":
        __import__(module.name)
print(json.dumps(sorted(set(sys.modules) - before)))
"""


def test_public_packages_load_only_stdlib_and_repro():
    root = os.path.dirname(os.path.abspath(repro.__file__))
    env = dict(os.environ, PYTHONPATH=os.path.dirname(root))
    result = subprocess.run([sys.executable, "-c", _PROBE], env=env,
                            capture_output=True, text=True, check=True,
                            timeout=60)
    loaded = json.loads(result.stdout)
    sources = [name for _, _, names in os.walk(root)
               for name in names if name.endswith(".py")]
    # every source file but ``__main__.py`` was imported
    assert len([name for name in loaded
                if name.split(".")[0] == "repro"]) == len(sources) - 1
    foreign = [name for name in loaded
               if name.split(".")[0] not in sys.stdlib_module_names
               and name.split(".")[0] != "repro"]
    assert foreign == []
