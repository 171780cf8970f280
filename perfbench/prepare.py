"""Set-up worker: ``python prepare.py WORKLOAD SEED OUT_DIR``.

Does a workload's whole set-up in a fresh process, so that ``setup_s``
includes the package import a user pays: imports ``wignerlab.cli``, builds
the inputs and oracles of the first units and of the traced pass, and
pickles them, with the import time, to ``OUT_DIR/pool.pkl``.
"""

import sys
import time

if __name__ == "__main__":
    start = time.perf_counter()
    import wignerlab.cli  # noqa: F401

    import_ms = (time.perf_counter() - start) * 1e3

    import pickle
    from pathlib import Path

    import workloads

    name, seed, out = sys.argv[1], int(sys.argv[2]), Path(sys.argv[3])
    units = workloads.WORKLOADS[name].prepare(seed, out)
    (out / "pool.pkl").write_bytes(pickle.dumps({"units": units, "import_ms": import_ms}))
