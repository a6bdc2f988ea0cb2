"""The runtime imports numpy and nothing heavier.

scipy is a test-only dependency: the parity tests compare the synth
kernels against it, but no module under ``src/`` may import it, or
every process that loads the blocker maps ``scipy.ndimage`` and
``scipy.special`` (~19 MB resident, see ``docs/inference.md``).
"""

import os
import subprocess
import sys

import repro

#: imports every module of the package, then prints what of scipy is
#: loaded; a fresh interpreter, so nothing the test session imported
#: leaks in
PROBE = """
import importlib, pkgutil, sys
import repro
for module in pkgutil.walk_packages(repro.__path__, "repro."):
    importlib.import_module(module.name)
print(sorted(name for name in sys.modules if name.split(".")[0] == "scipy"))
"""


def test_no_module_imports_scipy():
    src = os.path.dirname(os.path.dirname(repro.__file__))
    env = dict(os.environ, PYTHONPATH=src)
    result = subprocess.run(
        [sys.executable, "-c", PROBE], env=env, capture_output=True,
        text=True, timeout=120, check=True,
    )
    assert result.stdout.strip() == "[]", result.stdout
