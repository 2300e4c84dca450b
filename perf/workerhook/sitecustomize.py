"""Start-up hook for the worker processes of the distributed leg.

``DistributedCoordinator`` spawns ``python -m repro serve`` with the
parent's environment, so putting this directory on ``PYTHONPATH`` is
the one way the benchmark can reach inside a worker without editing
``src/``.  It does nothing unless the benchmark asked for it:

* ``PERF_DATA_SEED`` — re-seed the source RNG after planning, exactly
  as the in-process legs do (``measure.reseed_sources``), so every
  worker records the same ``--seed``-chosen trace;
* ``PERF_TRACE_DIR`` — install the span recorders of the traced pass
  and dump them to that directory when the worker exits.
"""

import os
import sys

_seed = os.environ.get("PERF_DATA_SEED")
_trace_dir = os.environ.get("PERF_TRACE_DIR")

if _seed is not None or _trace_dir:
    sys.path.insert(
        0, os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
    )

if _seed is not None:
    from measure import reseed_sources
    from repro.live.runtime import LiveRuntime

    _submit = LiveRuntime.submit

    def _seeded_submit(self, queries, _seed=int(_seed)):
        _submit(self, queries)
        reseed_sources(self, _seed)

    LiveRuntime.submit = _seeded_submit

if _trace_dir:
    import atexit

    import tracing

    _recorder = tracing.install()
    atexit.register(
        _recorder.dump,
        os.path.join(_trace_dir, f"spans-{os.getpid()}.json"),
    )
