"""The package imports nothing outside the standard library.

``pyproject.toml`` declares ``dependencies = []``; this holds it to
that promise on hosts where third-party packages happen to be
installed, by importing the public packages in a fresh interpreter.
"""

import json
import os
import subprocess
import sys

import repro

_PROBE = """
import json, sys
before = set(sys.modules)
import repro, repro.power, repro.experiments, repro.cli
print(json.dumps(sorted(set(sys.modules) - before)))
"""


def test_public_packages_load_only_stdlib_and_repro():
    src = os.path.dirname(os.path.dirname(os.path.abspath(repro.__file__)))
    env = dict(os.environ, PYTHONPATH=src)
    result = subprocess.run([sys.executable, "-c", _PROBE], env=env,
                            capture_output=True, text=True, check=True,
                            timeout=60)
    loaded = json.loads(result.stdout)
    foreign = [name for name in loaded
               if name.split(".")[0] not in sys.stdlib_module_names
               and name.split(".")[0] != "repro"]
    assert foreign == []
