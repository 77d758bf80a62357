"""The package's only runtime dependency outside the standard library is numpy."""

import json
import os
import subprocess
import sys
from pathlib import Path

import meim

PROBE = """
import json, sys
before = set(sys.modules)
import meim
print(json.dumps(sorted({name.split(".")[0] for name in set(sys.modules) - before})))
"""


def test_import_loads_only_stdlib_and_numpy():
    src = str(Path(meim.__file__).resolve().parents[1])
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    env = {**os.environ, "PYTHONPATH": path}
    out = subprocess.run([sys.executable, "-c", PROBE], env=env, capture_output=True, text=True,
                         check=True).stdout
    loaded = json.loads(out)
    assert "meim" in loaded and "numpy" in loaded
    foreign = [name for name in loaded
               if name not in sys.stdlib_module_names and name not in ("numpy", "meim")]
    assert foreign == []
