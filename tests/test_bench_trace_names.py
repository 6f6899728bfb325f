"""Every function the benchmark tracer wraps still exists under its name.

`bench/tracer.py` rebinds the (module, qualified name) pairs in its SPANS
list when a traced run starts, and fails on a name that is gone; this test
resolves the same names without installing any wrapper.
"""

import importlib
import importlib.util
import os

TRACER = os.path.join(os.path.dirname(__file__), "..", "bench", "tracer.py")


def _load_tracer():
    spec = importlib.util.spec_from_file_location("bench_tracer", TRACER)
    mod = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(mod)
    return mod


def test_every_traced_name_resolves():
    missing = []
    for module, qualname, _ in _load_tracer().SPANS:
        owner = importlib.import_module("hopfcross." + module)
        try:
            for part in qualname.split("."):
                owner = getattr(owner, part)
        except AttributeError:
            missing.append("%s.%s" % (module, qualname))
    assert not missing, missing
