import os
import subprocess
import sys
from pathlib import Path

import hestonsim

# Loading these would add to start-up time and memory; the package needs only
# scipy.special.
_HEAVY = ("scipy.integrate", "scipy.stats", "scipy.optimize")


def test_import_loads_no_heavy_scipy_module():
    src = str(Path(hestonsim.__file__).resolve().parents[1])
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    code = "import sys, hestonsim, hestonsim.cli; print(' '.join(sorted(sys.modules)))"
    out = subprocess.run([sys.executable, "-c", code], env=env, check=True,
                         capture_output=True, text=True).stdout.split()
    assert "hestonsim.cli" in out
    assert [m for m in _HEAVY if m in out] == []
