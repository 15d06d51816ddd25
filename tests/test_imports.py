import os
import subprocess
import sys
from pathlib import Path

import hestonsim


def test_import_loads_no_scipy_module():
    # numpy is the only run-time dependency; scipy is used by the tests alone.
    src = str(Path(hestonsim.__file__).resolve().parents[1])
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    code = "import sys, hestonsim, hestonsim.cli; print(' '.join(sorted(sys.modules)))"
    out = subprocess.run([sys.executable, "-c", code], env=env, check=True,
                         capture_output=True, text=True).stdout.split()
    assert "hestonsim.cli" in out
    assert [m for m in out if m.split(".")[0] == "scipy"] == []
