"""The benchmark reaches into the library by name; each name must exist.

perfbench/tracing.py lists its span and counter sites as (module, class or
None, function) triples.  perfbench/workloads.py and run.py call
``pt.<module>.<name>``, methods of field specs and fields of inversion
traces.  A rename or removal in ``src/permtri`` should fail here, not
halfway through a benchmark run.
"""

import ast
import dataclasses
import importlib
import importlib.util
from pathlib import Path

import pytest

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"
TRACING = PERFBENCH / "tracing.py"


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


def _bench_names():
    """(module, name) of every pt.<module>.<name>, the attributes read off
    a field spec and those read off an inversion trace, in workloads.py and
    run.py.  A local bound to pt.<module> (``families = pt.families``)
    counts as that module."""
    modules, spec_attrs, trace_attrs = set(), set(), set()

    def pt_module(node):
        # "module" for pt.<module> or self.pt.<module>, else None
        if isinstance(node, ast.Attribute):
            owner = node.value
            if (isinstance(owner, ast.Name) and owner.id == "pt") or (
                    isinstance(owner, ast.Attribute) and owner.attr == "pt"):
                return node.attr
        return None

    def is_spec(node):
        # x.spec, specs[n], or a call of FieldSpec / default_spec
        if isinstance(node, ast.Call):
            node = node.func
            return isinstance(node, ast.Attribute) and node.attr in ("FieldSpec", "default_spec")
        return ((isinstance(node, ast.Attribute) and node.attr == "spec")
                or (isinstance(node, ast.Subscript) and isinstance(node.value, ast.Name)
                    and node.value.id == "specs"))

    for path in (PERFBENCH / "workloads.py", PERFBENCH / "run.py"):
        tree = ast.parse(path.read_text())
        aliases = {}
        for node in ast.walk(tree):
            if isinstance(node, ast.Assign) and len(node.targets) == 1:
                target, value = node.targets[0], node.value
                pairs = (zip(target.elts, value.elts) if isinstance(target, ast.Tuple)
                         and isinstance(value, ast.Tuple) else [(target, value)])
                for name, expr in pairs:
                    if isinstance(name, ast.Name) and pt_module(expr):
                        aliases[name.id] = pt_module(expr)
        for node in ast.walk(tree):
            if not isinstance(node, ast.Attribute):
                continue
            owner = node.value
            module = pt_module(owner) or (isinstance(owner, ast.Name) and aliases.get(owner.id))
            if module:
                modules.add((module, node.attr))
            elif is_spec(owner):
                spec_attrs.add(node.attr)
            elif isinstance(owner, ast.Name) and owner.id == "trace":
                trace_attrs.add(node.attr)
    return modules, spec_attrs, trace_attrs


BENCH_MODULE_NAMES, BENCH_SPEC_ATTRS, BENCH_TRACE_ATTRS = _bench_names()


def test_bench_names_found():
    # the parse above must see what the workloads are known to use
    assert {("families", "value_table"), ("permcheck", "check"), ("inverter", "invert"),
            ("field", "FieldSpec"), ("cli", "main")} <= BENCH_MODULE_NAMES
    assert {"exp_log_arrays", "mul_baseline", "element"} <= BENCH_SPEC_ATTRS
    assert {"epsilon", "lam", "alpha", "candidates"} <= BENCH_TRACE_ATTRS


@pytest.mark.parametrize("module,name", sorted(BENCH_MODULE_NAMES),
                         ids=[f"{m}.{n}" for m, n in sorted(BENCH_MODULE_NAMES)])
def test_bench_module_name_resolves(module, name):
    assert hasattr(importlib.import_module(f"permtri.{module}"), name)


@pytest.mark.parametrize("attr", sorted(BENCH_SPEC_ATTRS))
def test_bench_spec_attribute_resolves(attr):
    from permtri.field import FieldSpec
    assert hasattr(FieldSpec(4), attr)


def test_bench_spec_methods_work():
    from permtri.field import FieldSpec
    spec = FieldSpec(4)
    exp, log = spec.exp_log_arrays()
    assert (exp.size, log.size) == (15, 16)
    assert spec.mul_baseline(2, 8) == 3 and spec.element(5).bits == 5


@pytest.mark.parametrize("attr", sorted(BENCH_TRACE_ATTRS))
def test_bench_trace_field_resolves(attr):
    from permtri.inverter import InversionTrace
    assert attr in {f.name for f in dataclasses.fields(InversionTrace)}
