"""The demos run end to end and print exactly what they printed when their
digests were recorded (numpy 2.4.6; its Generator streams may change)."""

import hashlib
import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent

STDOUT_SHA256 = {
    "capture_effect": "d774b3597fb1d65ddae3a347f9176790a45a807d585935ad13e339c7019f778b",
    "line_exchange": "c87d7fddfbed018e4aad95e888710382f8ad3c1649894bba959c5a52f54f6390",
    "matrix_walkthrough": "9aaa90c7838cc17f9868cf673eaaf6047201f92fe4ccdef11662fcdece53b292",
    "scaling_sweep": "54d55e08193c36ab7d42957f91cfb5db2a333299ec1287b24a7ea30eda317492",
}


def test_every_demo_has_a_digest():
    assert sorted(p.stem for p in (ROOT / "demos").glob("*.py")) == sorted(STDOUT_SHA256)


@pytest.mark.parametrize("name", sorted(STDOUT_SHA256))
def test_demo_output_is_unchanged(name):
    env = {**os.environ, "PYTHONPATH": str(ROOT / "src")}
    done = subprocess.run(
        [sys.executable, str(ROOT / "demos" / f"{name}.py")],
        capture_output=True,
        env=env,
        check=False,
    )
    assert done.returncode == 0, done.stderr.decode()
    assert hashlib.sha256(done.stdout).hexdigest() == STDOUT_SHA256[name]
