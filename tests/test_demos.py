"""The demos run end to end as scripts and print what they claim."""

import os
import re
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def test_remainder_integral_demo():
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")]))
    proc = subprocess.run(
        [sys.executable, str(ROOT / "demos" / "remainder_integral.py")],
        capture_output=True, text=True, env=env, timeout=300,
    )
    assert proc.returncode == 0, proc.stderr
    rels = [float(m) for m in re.findall(r"rel diff (\S+)", proc.stdout)]
    assert len(rels) == 3, proc.stdout
    assert all(r < 1e-6 for r in rels), rels
