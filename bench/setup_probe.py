"""Time one fresh-process set-up of a workload and print it as JSON.

    python3 bench/setup_probe.py <workload>

Set-up is importing numpy and sdepca, then building the workload's problems,
references and oracles, up to its first estimator call.
"""

import time

_START = time.perf_counter()

import json  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

import numpy  # noqa: E402,F401
import sdepca  # noqa: E402,F401

_IMPORTED = time.perf_counter()

import workloads  # noqa: E402

workloads.WORKLOADS[sys.argv[1]]()
_BUILT = time.perf_counter()
print(json.dumps({"import_s": _IMPORTED - _START, "setup_s": _BUILT - _START}))
