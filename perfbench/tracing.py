"""Spans and counters installed around the library's public entry points.

The tracer wraps functions from the benchmark's side; nothing in ``src/``
is edited.  A wrapped function is replaced in every permtri module that
holds a reference to it, so calls made through ``from .x import y`` names
are traced too.  Spans are kept in memory as ``[name, start_ns, end_ns,
parent]`` lists (parent is the index of the enclosing span, or -1) and are
written out once, when the run ends.

Scalar field arithmetic gets counters, not spans: a span per multiply
would cost more than the multiply.
"""

import functools
import time

MODULES = ("field", "families", "permcheck", "linalg2", "inverter", "cli")

# (module, class or None, function) wrapped with a span ...
SPAN_SITES = [
    ("field", "FieldSpec", "build_tables"),
    ("families", None, "value_table"),
    ("permcheck", None, "check"),
    ("linalg2", None, "solve_affine"),
    ("linalg2", None, "matrix_of"),
    ("inverter", None, "invert"),
    ("cli", None, "main"),
]
# ... or with a call counter.
COUNT_SITES = [("field", "FieldSpec", name) for name in ("mul", "pow", "frobenius", "inv")]


class Tracer:
    """Records spans and call counts while installed (``with tracer:``)."""

    def __init__(self, package):
        self.package = package
        self.spans = []
        self._cells = {}
        self._stack = []
        self._saved = []

    def __enter__(self):
        for module, owner, name in SPAN_SITES:
            self._replace(module, owner, name, self._span_wrapper)
        for module, owner, name in COUNT_SITES:
            self._replace(module, owner, name, self._count_wrapper)
        return self

    def __exit__(self, *exc):
        for target, attr, original in reversed(self._saved):
            setattr(target, attr, original)
        self._saved.clear()

    def _replace(self, module, owner, name, make_wrapper):
        label = f"{module}.{name}"
        mod = getattr(self.package, module)
        if owner is not None:
            cls = getattr(mod, owner)
            original = cls.__dict__[name]
            self._saved.append((cls, name, original))
            setattr(cls, name, make_wrapper(original, label))
            return
        original = getattr(mod, name)
        wrapper = make_wrapper(original, label)
        for other in (getattr(self.package, m) for m in MODULES):
            for attr, value in list(vars(other).items()):
                if value is original:
                    self._saved.append((other, attr, original))
                    setattr(other, attr, wrapper)

    def _span_wrapper(self, original, label):
        spans = self.spans
        stack = self._stack
        clock = time.perf_counter_ns

        @functools.wraps(original)
        def traced(*args, **kwargs):
            rec = [label, 0, 0, stack[-1] if stack else -1]
            stack.append(len(spans))
            spans.append(rec)
            rec[1] = clock()
            try:
                return original(*args, **kwargs)
            finally:
                rec[2] = clock()
                stack.pop()
        return traced

    def _count_wrapper(self, original, label):
        cell = self._cells.setdefault(label, [0])

        @functools.wraps(original)
        def counted(*args, **kwargs):
            cell[0] += 1
            return original(*args, **kwargs)
        return counted

    def mark(self):
        """Index of the next span, to take totals over what follows."""
        return len(self.spans)

    def counts(self):
        """Calls counted so far, by label."""
        return {label: cell[0] for label, cell in self._cells.items()}

    def totals(self, start=0):
        """{name: (total_s, self_s, calls)} over the spans from index ``start``.

        Self time is a span's duration minus that of its child spans.
        """
        spans = self.spans[start:]
        child_ns = [0] * len(spans)
        for _, t0, t1, parent in spans:
            if parent >= start:
                child_ns[parent - start] += t1 - t0
        out = {}
        for (name, t0, t1, _), kids in zip(spans, child_ns):
            total, own, calls = out.get(name, (0, 0, 0))
            out[name] = (total + t1 - t0, own + t1 - t0 - kids, calls + 1)
        return {name: (total / 1e9, own / 1e9, calls)
                for name, (total, own, calls) in out.items()}

    def durations(self, name, start=0):
        """Durations in seconds of the spans called ``name``, in call order."""
        return [(t1 - t0) / 1e9 for n, t0, t1, _ in self.spans[start:] if n == name]

    def top_level_s(self, start=0):
        """Seconds covered by spans with no traced parent."""
        return sum(t1 - t0 for _, t0, t1, parent in self.spans[start:] if parent < 0) / 1e9

    def to_json(self):
        return {"spans": [{"name": n, "start_ns": t0, "end_ns": t1, "parent": p}
                          for n, t0, t1, p in self.spans],
                "counts": self.counts()}
