"""The demos' stdout, byte for byte: the sha256 of each demo's output.

A change to the engine, the oracles or the report writer must leave every
demo's output unchanged; a demo edited on purpose updates its digest here
and says so in CHANGES.md.  The README's quick start must print what its
comments say.
"""

import hashlib
import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent

DIGESTS = {
    "01_photon_channel.py": "9a6595fc5ebb6e79373943b81ffa55b5ea2d26b74a16de655bce734567f3c9c3",
    "02_parameters_and_bounds.py":
        "a89d7dbec8f637945d82e41fe470a9ed7ce43fae7e1b92acb4a4bcf2f3189d49",
    "03_protocol_walkthrough.py":
        "9cd4d2cd6a816887c4390da6491069f74c285faaa1e7e1c9d7cf6fa27fcf869a",
    "04_monte_carlo_vs_oracles.py":
        "004650a3906117e0f5dce4c32fda0d716b582df26c4b1254abf533287e351253",
    "05_adversaries.py": "4842c677e404c42d313476124a7b814cd8b291680cad4d30641bbec4dd45ab9a",
    "06_privacy_independence.py":
        "1805a095956e53336bffcd8fe04e9b4e993d12721ce496ba8c189b6000b8242b",
}


def test_every_demo_has_a_digest():
    assert sorted(p.name for p in (ROOT / "demos").glob("*.py")) == sorted(DIGESTS)


@pytest.mark.parametrize("demo", DIGESTS)
def test_demo_stdout_matches_the_recorded_digest(demo):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(ROOT / "src"),
                                                      env.get("PYTHONPATH")]))
    proc = subprocess.run([sys.executable, str(ROOT / "demos" / demo)], capture_output=True,
                          timeout=120, env=env, cwd=ROOT, check=True)
    assert hashlib.sha256(proc.stdout).hexdigest() == DIGESTS[demo]


def test_readme_quick_start_prints_what_its_comment_says():
    """The README's Python block runs, and each of its print lines writes
    the text of the comment at the end of that line."""
    readme = (ROOT / "README.md").read_text(encoding="utf-8")
    (code,) = re.findall(r"```python\n(.*?)```", readme, flags=re.S)
    expected = [line.partition("# ")[2] for line in code.splitlines()
                if line.startswith("print(")]
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(ROOT / "src"),
                                                      env.get("PYTHONPATH")]))
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                          timeout=120, env=env, cwd=ROOT, check=True)
    assert expected == ["Status.COMPLETED {2: 0}"]
    assert proc.stdout.splitlines() == expected
