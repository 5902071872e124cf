"""Every name that the benchmark's tracer wraps still exists in sbenflow.

perfbench/tracer.py looks its functions and methods up by name when it
installs; a name deleted from the package would fail there, at benchmark
time.  This test loads the tracer's tables, without changing the tracer, and
fails in the test suite instead.
"""

import importlib
import importlib.util
import os

TRACER = os.path.join(os.path.dirname(__file__), os.pardir, "perfbench", "tracer.py")


def _tracer():
    spec = importlib.util.spec_from_file_location("perfbench_tracer", TRACER)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_every_traced_name_exists():
    tracer = _tracer()
    missing = []
    for short, table in tracer.FUNCTIONS.items():
        module = importlib.import_module(f"sbenflow.{short}")
        missing += [f"{short}.{name}" for name in table
                    if not callable(getattr(module, name, None))]
    for (short, cls_name), table in tracer.METHODS.items():
        cls = getattr(importlib.import_module(f"sbenflow.{short}"), cls_name, None)
        # install() patches cls.__dict__[name]: an inherited method would not do
        missing += [f"{short}.{cls_name}.{name}" for name in table
                    if cls is None or name not in vars(cls)]
    assert not missing, f"names the benchmark traces are gone: {missing}"
