"""Every CLI output byte-identical to the committed digest.

``tests/data/cli_digest.txt`` holds the output of ``tools/cli_digest.py``
under a header that records the numpy version, the OpenBLAS core
(kernel) and numpy's SIMD dispatch targets it was made with
(``host_build``). Output bytes depend on that kernel, which numpy's
bundled OpenBLAS picks per CPU, and on the SIMD targets, which numpy
picks per CPU unless ``NPY_DISABLE_CPU_FEATURES`` turns some off. So on
a host where any of the three differs from the header, or cannot be
read, the test skips and its reason gives both sets of values. A change
that moves output bytes on purpose regenerates the file in the same
change, header included, from the repository root:

    python -m tests.test_cli_digest > tests/data/cli_digest.txt
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


def numpy_simd() -> str | None:
    """numpy's SIMD dispatch targets enabled on this host, comma-joined
    (such as ``X86_V3,X86_V4``), or None where numpy does not say."""
    try:
        from numpy._core import _multiarray_umath as umath

        return ",".join(target for target in umath.__cpu_dispatch__ if umath.__cpu_features__.get(target))
    except (ImportError, AttributeError):
        return None


def host_build() -> dict[str, str | None]:
    """What the committed byte data's header records, as this host has it."""
    return {"numpy": np.__version__, "openblas core": openblas_core(), "numpy simd": numpy_simd()}


def header_lines() -> list[str]:
    """The committed byte data's header, one ``# name value`` line per ``host_build`` entry."""
    return [f"# {name} {value}" for name, value in host_build().items()]


def committed_body(path: Path, made: str) -> list[str]:
    """The lines of committed byte data below its header; skips where the
    header is not ``host_build()``, with a reason that opens with ``made``
    (such as "the digest was")."""
    lines = path.read_text().splitlines()
    header = [line[2:].rsplit(" ", 1) for line in lines if line.startswith("# ")]
    recorded = dict(header)
    here = host_build()
    if here != recorded:
        pytest.skip(f"{made} made with {recorded}; this host has {here}")
    return lines[len(header) :]


def test_outputs_match_committed_digest():
    expected = committed_body(EXPECTED, "the digest was")
    done = subprocess.run(
        [sys.executable, str(REPO / "tools" / "cli_digest.py")], capture_output=True, text=True, timeout=600
    )
    assert done.returncode == 0, done.stderr
    assert done.stdout.splitlines() == expected


if __name__ == "__main__":
    print("\n".join(header_lines()), flush=True)
    sys.exit(subprocess.run([sys.executable, str(REPO / "tools" / "cli_digest.py")]).returncode)
