import contextlib
import mmap
import threading
import tracemalloc
import types
import warnings
import weakref
from pathlib import Path

import pytest
from hypothesis import settings

from kvcompactor import attnscore

# property tests draw the same example sequence every run, matching the
# package's fixed-seed reproducibility contract
settings.register_profile("deterministic", derandomize=True)
settings.load_profile("deterministic")

# hypothesis imports this module (and libcst through it) when a property test
# fails; libcst then raises a DeprecationWarning that the error filter turns
# into an INTERNALERROR ending the session, so import it once here (without
# libcst, hypothesis skips the import too)
with warnings.catch_warnings(), contextlib.suppress(ImportError):
    warnings.simplefilter("ignore", DeprecationWarning)
    import hypothesis.extra._patching  # noqa: F401

_TESTS = Path(__file__).parent
_LEAK_FILTERS = ("error::ResourceWarning", "error::pytest.PytestUnraisableExceptionWarning")


def pytest_collection_modifyitems(items):
    # a file left open under tests/ fails its test; this hook receives every
    # collected item (perfbench's too), so the filters go by path
    for item in items:
        if item.path.is_relative_to(_TESTS):
            for spec in _LEAK_FILTERS:
                item.add_marker(pytest.mark.filterwarnings(spec))


@pytest.fixture
def peak_bytes(monkeypatch):
    """peak_bytes(fn, *args): an upper bound on the bytes that fn(*args) holds at once.

    tracemalloc's peak plus the most bytes that attnscore had mapped at one
    time: tracemalloc does not see a mapping, and attnscore maps its causal
    logits block. Each mapping counts from its creation until it is freed.
    """
    real, lock = mmap.mmap, threading.Lock()
    mapped = {"live": 0, "peak": 0}

    def release(size):
        with lock:
            mapped["live"] -= size

    def mapping(*args, **kwargs):
        m = real(*args, **kwargs)
        with lock:
            mapped["live"] += len(m)
            mapped["peak"] = max(mapped["peak"], mapped["live"])
        weakref.finalize(m, release, len(m))
        return m

    monkeypatch.setattr(attnscore, "mmap", types.SimpleNamespace(mmap=mapping))

    def peak(fn, *args):
        mapped["peak"] = mapped["live"]
        tracemalloc.start()
        try:
            fn(*args)
            _, traced = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        return traced + mapped["peak"]

    return peak
