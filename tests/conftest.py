import random
import sys
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).parent))

# the sample generators live in the package, where the selftest uses them too
from genseries.selftest import (ALL_RINGS, element_pool, random_descriptor,  # noqa: F401
                                random_series, ring_samples)


@pytest.fixture
def rng():
    return random.Random(20260810)
