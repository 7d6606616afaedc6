"""The benchmark tracer wraps library functions by name; each must exist.

perfbench/tracing.py lists its span and counter sites as (module, class or
None, function) triples.  A rename in ``src/permtri`` should fail here, not
halfway through a traced benchmark run.
"""

import importlib
import importlib.util
from pathlib import Path

import pytest

TRACING = Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"


def _load_tracing():
    spec = importlib.util.spec_from_file_location("perfbench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


tracing = _load_tracing()
SITES = tracing.SPAN_SITES + tracing.COUNT_SITES


def test_traced_modules_import():
    for module in tracing.MODULES:
        importlib.import_module(f"permtri.{module}")


@pytest.mark.parametrize("module,owner,name", SITES,
                         ids=[f"{m}.{o + '.' if o else ''}{n}" for m, o, n in SITES])
def test_site_resolves(module, owner, name):
    mod = importlib.import_module(f"permtri.{module}")
    if owner is None:
        assert callable(getattr(mod, name, None))
    else:
        # the tracer reads the class __dict__, so an inherited name would not do
        assert callable(getattr(mod, owner).__dict__.get(name))
