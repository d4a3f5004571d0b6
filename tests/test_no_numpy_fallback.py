"""The numpy kernels are an optional ``perf`` extra: without numpy the
package must import cleanly, report only the Python backend, silently
fall back when numpy is requested, and still allocate correctly.

Run in a subprocess with a meta-path hook blocking ``numpy`` so the test
is meaningful even on machines (like CI's main leg) that have it.
"""

from __future__ import annotations

import os
import subprocess
import sys
import textwrap
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src"

BLOCKED_RUN = textwrap.dedent(
    """
    import sys

    class _BlockNumpy:
        def find_spec(self, name, path=None, target=None):
            if name == "numpy" or name.startswith("numpy."):
                raise ImportError("numpy blocked for fallback test")
            return None

    sys.meta_path.insert(0, _BlockNumpy())
    for mod in list(sys.modules):
        if mod == "numpy" or mod.startswith("numpy."):
            del sys.modules[mod]

    from repro.network import kernels

    assert not kernels.HAVE_NUMPY, "import guard failed to trip"
    assert kernels.available_backends() == ("python",)
    # Requesting numpy without the perf extra degrades gracefully.
    assert kernels.resolve_backend("numpy") == "python"
    assert kernels.resolve_backend(None) == "python"

    from repro.network.flow import Flow
    from repro.network.policies.registry import make_allocator

    flows = [
        Flow(flow_id=i, src="s", dst="d", size=1e9,
             path=("shared",), arrival_time=float(i))
        for i in range(4)
    ]
    for name in ("fair", "fcfs", "las", "srpt"):
        rates = make_allocator(name, backend="numpy").allocate(
            flows, {"shared": 1e9}
        )
        assert set(rates) == {0, 1, 2, 3}, name
        assert abs(sum(rates.values()) - 1e9) < 1e-3, name

    print("fallback-ok")
    """
)


def test_python_backend_without_numpy():
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC)
    env.pop("REPRO_ALLOC_BACKEND", None)
    proc = subprocess.run(
        [sys.executable, "-c", BLOCKED_RUN],
        capture_output=True,
        text=True,
        env=env,
        timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    assert "fallback-ok" in proc.stdout


def test_replay_and_serve_do_not_import_numpy_eagerly():
    # Set-up time of the replay and serve paths must not pay for numpy
    # when the run does not ask for the numpy backend: the numpy kernels
    # load only when an allocator needs them, and placement scoring is
    # pure Python.
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC)
    proc = subprocess.run(
        [
            sys.executable,
            "-c",
            "import sys\n"
            "import repro.experiments.runner, repro.service.server\n"
            "assert 'numpy' not in sys.modules, 'numpy imported eagerly'\n"
            "print('lazy-ok')",
        ],
        capture_output=True,
        text=True,
        env=env,
        timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    assert "lazy-ok" in proc.stdout
