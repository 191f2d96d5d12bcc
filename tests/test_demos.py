"""Demo scripts: each runs to completion and prints the same bytes.

Every script under `demos/` runs in its own interpreter with `src/` on the
import path, and the SHA-256 of its stdout is pinned.  A change that keeps
the verdicts, the fitted models and the error messages the demos print keeps
every hash; a change that moves one must say why.
"""

import hashlib
import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent

STDOUT_SHA256 = {
    "01_dual_maps.py": "ac89691ab9ed31e0bf8384e986a717ecae660a2f5130f660d8a95b48c93c5740",
    "02_line_hyperplanes.py": "8dd08e3f3449ec253b28e945984a83b9db8c18ae50c641aeadde9108624cb6b3",
    "03_rational_fitting.py": "b37e11548830ffa4b355233332fbd6ee49d4aea49287c01b4393c66b061a5da0",
    "04_conic_webs.py": "1bd4d31efd5c9b7a72c78d90aaa08fc8febba99da65a308c922063b1220cf7d0",
    "05_sphere_circles.py": "4d1f8b8d215f0581217b8928375fcc64dd30082769482ec4c64525d7959f5b29",
}


def test_every_demo_is_pinned():
    assert sorted(p.name for p in (ROOT / "demos").glob("*.py")) == sorted(STDOUT_SHA256)


@pytest.mark.parametrize("name", sorted(STDOUT_SHA256))
def test_demo_stdout(name):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")]))
    run = subprocess.run(
        [sys.executable, str(ROOT / "demos" / name)],
        cwd=ROOT, env=env, capture_output=True, timeout=120,
    )
    assert run.returncode == 0, run.stderr.decode()
    assert hashlib.sha256(run.stdout).hexdigest() == STDOUT_SHA256[name]
