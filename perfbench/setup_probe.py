"""One cold set-up, measured in a fresh interpreter.

Times ``import repro`` plus a cold ``get_estimator`` fit (empty memory
cache, no disk cache), with host-speed references before, between and
after (``hostspeed.py``), and prints ``{"import_s", "fit_s", "refs"}``.
``run.py`` starts this script several times and reports the median.

Usage: ``python3 perfbench/setup_probe.py <fit seed>``
"""

import json
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path[:0] = [str(ROOT / "src"), str(ROOT)]


def main() -> None:
    from perfbench.hostspeed import reference_s

    fit_seed = int(sys.argv[1])
    refs = [reference_s()]
    t0 = time.perf_counter()
    import repro  # noqa: F401  (the import is what is timed)
    from repro.experiments import estimator_cache
    from repro.experiments.config import BaselineConfig

    t1 = time.perf_counter()
    refs.append(reference_s())
    t2 = time.perf_counter()
    estimator_cache.get_estimator(BaselineConfig(seed=fit_seed))
    t3 = time.perf_counter()
    refs.append(reference_s())
    print(json.dumps({"import_s": t1 - t0, "fit_s": t3 - t2, "refs": refs}))


if __name__ == "__main__":
    main()
