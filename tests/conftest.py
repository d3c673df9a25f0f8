import os
import random
import resource
import subprocess
import sys
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).parent))
# the CLI runs that tests start as subprocesses import this checkout's package,
# as pyproject.toml's pythonpath does for the tests themselves
os.environ["PYTHONPATH"] = os.pathsep.join(
    filter(None, [str(Path(__file__).resolve().parent.parent / "src"),
                  os.environ.get("PYTHONPATH")]))

# the sample generators live in the package, where the selftest uses them too
from genseries.selftest import (ALL_RINGS, element_pool, random_descriptor,  # noqa: F401
                                random_series, ring_samples)


@pytest.fixture
def rng():
    return random.Random(20260810)


@pytest.fixture
def capped_cli():
    """run(*args, memory_mb=512, timeout=60): the CLI in a child process whose
    address space is capped (``RLIMIT_AS``, set in the child) and whose wall
    time is bounded, so a memory regression fails fast with exit 2
    (``MemoryError``) instead of exhausting the machine's memory."""
    def run(*args, memory_mb=512, timeout=60):
        limit = memory_mb * 2 ** 20
        return subprocess.run(
            [sys.executable, "-m", "genseries.cli", *args], capture_output=True, text=True,
            timeout=timeout,
            preexec_fn=lambda: resource.setrlimit(resource.RLIMIT_AS, (limit, limit)))
    return run
