"""The allocator setting made at import: train steps reuse heap pages."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

import warmproto

# 10 warm-up steps, then 50 default-config steps counted by minor faults
SCRIPT = """
import resource
from warmproto import GeneratorConfig, TrainConfig, train

gen = GeneratorConfig()
train(TrainConfig(epochs=1, episodes_per_epoch=10), gen)
before = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
train(TrainConfig(epochs=1, episodes_per_epoch=50, seed=1), gen)
print(resource.getrusage(resource.RUSAGE_SELF).ru_minflt - before)
"""


@pytest.mark.skipif(not warmproto.HEAP_KEPT, reason="the C library did not take the mallopt setting")
def test_train_steps_do_not_refault_the_heap():
    src = str(Path(warmproto.__file__).resolve().parents[1])
    env = dict(os.environ)  # the package's import pins BLAS to one thread
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    done = subprocess.run(
        [sys.executable, "-c", SCRIPT], env=env, capture_output=True, text=True, timeout=300, check=True
    )
    faults = int(done.stdout.split()[-1])
    # with glibc's adaptive thresholds this read about 560-600 per step
    assert faults / 50 < 20, f"{faults / 50:.1f} minor faults per train step"
