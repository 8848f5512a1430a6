from pathlib import Path

import pytest
from hypothesis import settings

# property tests draw the same example sequence every run, matching the
# package's fixed-seed reproducibility contract
settings.register_profile("deterministic", derandomize=True)
settings.load_profile("deterministic")

_TESTS = Path(__file__).parent
_LEAK_FILTERS = ("error::ResourceWarning", "error::pytest.PytestUnraisableExceptionWarning")


def pytest_collection_modifyitems(items):
    # a file left open under tests/ fails its test; this hook receives every
    # collected item (perfbench's too), so the filters go by path
    for item in items:
        if item.path.is_relative_to(_TESTS):
            for spec in _LEAK_FILTERS:
                item.add_marker(pytest.mark.filterwarnings(spec))
