"""Traces the worker processes of a traced benchmark run.

Python imports ``sitecustomize`` at start-up from the first directory on
``sys.path`` that holds one.  A traced run puts this directory on the
``PYTHONPATH`` its workers inherit and names a span directory in
``PERFBENCH_WORKER_SPANS``.  Each worker then installs the same wrappers
as the traced CLI and writes its spans there when it exits.  Without
that variable this module does nothing.
"""

import atexit
import os

_directory = os.environ.get("PERFBENCH_WORKER_SPANS")
if _directory:
    import spantrace

    _tracer = spantrace.Tracer()
    spantrace.install(_tracer)
    atexit.register(
        _tracer.dump, os.path.join(_directory, f"worker-{os.getpid()}.json")
    )
