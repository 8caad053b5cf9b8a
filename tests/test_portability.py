"""Model files whose bytes do not depend on the CPU's dispatch.

``index`` and ``train-lm`` build ``.pgc`` and ``.pglm`` from integer sorts
and IEEE +, -, * and / alone, so their bytes must stay the same when
numpy's SIMD dispatch, the OpenBLAS core or glibc's libm variants change.
Each switch is set only in one child process's environment, and the three
children run at once.  A switch this machine cannot honour is skipped with
its reason.
"""

import inspect
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import punforge
from punforge.runtime import runtime_state


def libm_digest():
    """A digest of libm's exp and log on 100,000 fixed arguments."""
    import hashlib
    import math
    import random
    import struct

    rng = random.Random(0)
    libm = hashlib.sha256()
    for _ in range(100_000):
        x = rng.uniform(-50.0, 0.0)
        libm.update(struct.pack("<2d", math.exp(x), math.log(-x)))
    return libm.hexdigest()


def state():
    """The package's runtime probe, plus the libm digest."""
    return {**runtime_state(), "libm": libm_digest()}


CHILD = inspect.getsource(libm_digest) + inspect.getsource(state) + """
import json
import sys

from punforge import cli
from punforge.runtime import runtime_state

text, out = sys.argv[1:]
for argv in (["index", "--corpus", text, "--out", out + ".pgc"],
             ["train-lm", "--corpus", out + ".pgc", "--out", out + ".pglm"]):
    if cli.main(argv):
        sys.exit(f"{argv[0]} failed")
print(json.dumps(state()))
"""

# switch -> the environment variable it sets
SWITCHES = {"numpy-dispatch": "NPY_DISABLE_CPU_FEATURES",
            "openblas-core": "OPENBLAS_CORETYPE",
            "glibc-hwcaps": "GLIBC_TUNABLES"}


def _settings(base):
    """{switch: (its value on this machine, or None and why it changes nothing)}."""
    core = base["blas_core"]
    return {
        "numpy-dispatch": (" ".join(base["simd"]), None) if base["simd"] else
        (None, "numpy dispatches nothing above its baseline on this CPU"),
        "openblas-core": ("Sandybridge" if core == "Haswell" else "Haswell", None)
        if core else (None, "the OpenBLAS core cannot be read in this process"),
        "glibc-hwcaps": ("glibc.cpu.hwcaps=-AVX2,-FMA", None),
    }


def _not_honoured(switch, base, child, value):
    """Why the child ran as if the switch were unset, or None."""
    if switch == "numpy-dispatch" and child["simd"]:
        return f"numpy still dispatches {child['simd']} with {value!r} disabled"
    if switch == "openblas-core" and child["blas_core"] != value:
        return f"OpenBLAS ran {child['blas_core']} when asked for {value}"
    if switch == "glibc-hwcaps" and child["libm"] == base["libm"]:
        return f"libm's exp and log give the same doubles under {value!r}"
    return None


@pytest.fixture(scope="module")
def children(pipeline, tmp_path_factory):
    """(this process's state, output directory, the settings, {switch: the
    child's state})."""
    root = tmp_path_factory.mktemp("portability")
    base = state()
    settings = _settings(base)
    src = str(Path(punforge.__file__).resolve().parents[1])
    procs = {}
    for switch, (value, _) in settings.items():
        if value is None:
            continue
        env = {**os.environ, SWITCHES[switch]: value, "PYTHONPATH": os.pathsep.join(
            filter(None, [src, os.environ.get("PYTHONPATH")]))}
        procs[switch] = subprocess.Popen(
            [sys.executable, "-c", CHILD, str(pipeline["text"]), str(root / switch)],
            stdout=subprocess.PIPE, stderr=subprocess.PIPE, env=env, text=True)
    states = {}
    for switch, proc in procs.items():
        out, err = proc.communicate(timeout=60)
        assert proc.returncode == 0, err
        states[switch] = json.loads(out)
    return base, root, settings, states


@pytest.mark.parametrize("switch", sorted(SWITCHES))
def test_corpus_and_lm_bytes_do_not_follow_the_switch(children, pipeline, switch):
    base, root, settings, states = children
    value, why = settings[switch]
    if value is None:
        pytest.skip(why)
    why = _not_honoured(switch, base, states[switch], value)
    if why:
        pytest.skip(why)
    for suffix, key in ((".pgc", "corpus"), (".pglm", "lm")):
        assert (root / (switch + suffix)).read_bytes() == pipeline[key].read_bytes()
