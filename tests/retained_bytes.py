"""The bytes that the library's process-lifetime tables retain after a fixed
cold build set: a decompose at (3, 5) (the closed form) and at (2, 6) (the
solve), and ``path_invariants(2, 2)``.  The answers are dropped, so what
stays traced after ``gc.collect()`` is what the caches keep.

``PYTHONPATH=src python tests/retained_bytes.py`` prints the total, as
measured by ``tracemalloc``; the package is imported before tracing starts.
"""

import gc
import tracemalloc

from thrallkit.free_lie import thrall_decompose
from thrallkit.invariants import path_invariants
from thrallkit.tensors import Tensor


def retained_bytes() -> int:
    tracemalloc.start()
    for d, k in ((3, 5), (2, 6)):
        # every entry nonzero, so that every shape's projectors are applied
        thrall_decompose(Tensor(d, k, [i % 7 - 3 or 5 for i in range(d**k)]))
    path_invariants(2, 2)
    gc.collect()
    retained = tracemalloc.get_traced_memory()[0]
    tracemalloc.stop()
    return retained


if __name__ == "__main__":
    print(retained_bytes())
