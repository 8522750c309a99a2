"""Every CLI output byte-identical to the committed digest.

``tests/data/cli_digest.txt`` holds the output of ``tools/cli_digest.py``
under a header that records the numpy version and the OpenBLAS core
(kernel) it was made with. Output bytes depend on that kernel, which
numpy's bundled OpenBLAS picks per CPU, so on a host whose numpy version
or core differs from the header, or whose core cannot be read, the test
skips and its reason gives both values. A change that moves output bytes
on purpose regenerates the file in the same change:

    { printf '# numpy %s\\n# openblas core %s\\n' VERSION CORE; python tools/cli_digest.py; } > tests/data/cli_digest.txt
"""

import ctypes
import glob
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

REPO = Path(__file__).resolve().parents[1]
EXPECTED = REPO / "tests" / "data" / "cli_digest.txt"


def openblas_core() -> str | None:
    """The kernel that numpy's bundled OpenBLAS runs on this host, or None
    when there is no such library or it cannot be asked."""
    libs = glob.glob(os.path.join(os.path.dirname(np.__file__), os.pardir, "numpy.libs", "libscipy_openblas64_*.so"))
    if len(libs) != 1:
        return None
    try:
        corename = ctypes.CDLL(libs[0]).scipy_openblas_get_corename64_
    except (OSError, AttributeError):
        return None
    corename.argtypes = []
    corename.restype = ctypes.c_char_p
    return corename().decode()


def test_outputs_match_committed_digest():
    lines = EXPECTED.read_text().splitlines()
    header = [line[2:].rsplit(" ", 1) for line in lines if line.startswith("# ")]
    recorded = dict(header)
    here = {"numpy": np.__version__, "openblas core": openblas_core()}
    if here != recorded:
        pytest.skip(f"the digest was made with {recorded}; this host has {here}")
    done = subprocess.run(
        [sys.executable, str(REPO / "tools" / "cli_digest.py")], capture_output=True, text=True, timeout=600
    )
    assert done.returncode == 0, done.stderr
    assert done.stdout.splitlines() == lines[len(header) :]
