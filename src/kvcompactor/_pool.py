"""Run one independent task per (layer, head) on one thread per usable core.

numpy's elementwise kernels are single-threaded and each head's GEMMs are
too small for a second BLAS thread to pay, so heads run side by side on a
thread pool instead. While the pool runs, the loaded OpenBLAS is held to
one thread, else its workers spin on the cores the pool needs; the old
count is restored afterwards. Without OpenBLAS or with one usable core the
tasks run in order on the calling thread, BLAS untouched. Each worker holds
one task's working set: for a causal head, one logits block of at most
attnscore._LOGITS_BYTES.
"""

import ctypes
import functools
import os
import threading
from concurrent.futures import ThreadPoolExecutor

# (setter, getter) pairs: numpy's bundled 64-bit-index build, then a plain OpenBLAS
_SYMBOLS = (
    ("scipy_openblas_set_num_threads64_", "scipy_openblas_get_num_threads64_"),
    ("openblas_set_num_threads", "openblas_get_num_threads"),
)
# the BLAS thread count is process-wide: pools that overlap share one pin, and the last to leave restores it
_PIN_LOCK = threading.Lock()
_pin = {"depth": 0, "saved": 0}


def _cores() -> int:
    """Cores this process may run on."""
    return len(os.sched_getaffinity(0))


@functools.cache  # numpy, imported with this package, has loaded its BLAS already
def _openblas():
    """(set, get) thread-count functions of the loaded OpenBLAS, or None."""
    with open("/proc/self/maps", encoding="utf-8") as fh:
        paths = sorted({line.split()[-1] for line in fh if "openblas" in line.lower() and ".so" in line})
    for path in paths:
        lib = ctypes.CDLL(path)
        for set_name, get_name in _SYMBOLS:
            set_fn, get_fn = getattr(lib, set_name, None), getattr(lib, get_name, None)
            if set_fn is not None and get_fn is not None:
                set_fn.argtypes, set_fn.restype = [ctypes.c_int], None
                get_fn.argtypes, get_fn.restype = [], ctypes.c_int
                return set_fn, get_fn
    return None


def map_heads(fn, n_layers: int, n_heads: int) -> list:
    """[[fn(l, h) for h in range(n_heads)] for l in range(n_layers)], on min(usable cores, L*H) threads.

    The first task in (layer, head) order that raises re-raises here, once running tasks finish; the rest are cancelled.
    """
    heads = [(l, h) for l in range(n_layers) for h in range(n_heads)]
    try:
        workers = min(_cores(), len(heads))
        blas = _openblas() if workers > 1 else None
    except (AttributeError, OSError):  # no sched_getaffinity or no /proc: not Linux
        blas = None
    if blas is None:
        flat = [fn(l, h) for l, h in heads]
    else:
        set_threads, get_threads = blas
        with _PIN_LOCK:
            if _pin["depth"] == 0:
                _pin["saved"] = get_threads()
                set_threads(1)
            _pin["depth"] += 1
        try:
            with ThreadPoolExecutor(workers) as pool:
                flat = list(pool.map(lambda lh: fn(*lh), heads))
        finally:
            with _PIN_LOCK:
                _pin["depth"] -= 1
                if _pin["depth"] == 0:
                    set_threads(_pin["saved"])
    return [flat[l * n_heads : (l + 1) * n_heads] for l in range(n_layers)]
