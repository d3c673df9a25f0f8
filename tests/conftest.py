import os
import random
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
