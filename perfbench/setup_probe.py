"""Set-up probe: one workload's set-up in a fresh interpreter.

``run.py`` starts this several times per run and times each start until
the JSON line arrives: interpreter start, the workload's imports and its
input build, up to the first simulated event (campaign: the first cell
dispatch).  The line itself splits that time by stage.

    python3 perfbench/setup_probe.py WORKLOAD SEED
"""

import importlib
import json
import sys
import time
from pathlib import Path

started = time.perf_counter()
HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))

import bench_scenarios  # noqa: E402  (standard library only)

workload = bench_scenarios.WORKLOADS[sys.argv[1]]
for module in workload.modules:
    importlib.import_module(module)
imported = time.perf_counter()
timings = workload.build_inputs(int(sys.argv[2]))
print(json.dumps({"import_s": imported - started, **timings}), flush=True)
