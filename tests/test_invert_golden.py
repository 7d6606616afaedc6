"""``permtri invert --trace`` stdout, pinned byte for byte.

The golden file holds, for three seeded values a per instance, the command
line, its stdout and stderr and its exit code: every valid instance with
21 <= n <= 32 (the byte-sliced route) and the F1, F2 and F6 instances with
n <= 12 (the log tables).  It also holds experiment mode (--force-params)
for F1 with k = 2 and 5 and every excluded F6 pair (m, k) with n <= 12 and
1 <= k <= n - 1: three values a = f(x) for seeded x, plus one seeded a,
per case.  Regenerate it only for an intended output change, with

    PYTHONPATH=src python tests/test_invert_golden.py
"""

import contextlib
import io
import os
import random

from permtri.cli import main
from permtri.families import (FamilyId, FamilyParams, enumerate_instances, enumerate_params,
                               instantiate, trinomial_bits)

GOLDEN = os.path.join(os.path.dirname(__file__), "data", "invert_trace_golden.txt")
SEED = 9
VALUES_PER_INSTANCE = 3


def _argv(inst, a, *extra):
    m = [] if inst.params.m is None else ["--m", str(inst.params.m)]
    return ["invert", "--family", inst.family.value, "--k", str(inst.params.k),
            *m, "--a", hex(a), *extra, "--trace"]


def forced_instances():
    valid_f6 = {p for _, p in enumerate_params(FamilyId.F6, 12)}
    excluded_f6 = [FamilyParams(k=k, m=m) for m in (1, 2, 3) for k in range(1, 4 * m)
                   if FamilyParams(k=k, m=m) not in valid_f6]
    for family, params in ([(FamilyId.F1, FamilyParams(k=k)) for k in (2, 5)]
                           + [(FamilyId.F6, p) for p in excluded_f6]):
        yield instantiate(family, params, enforce_hypotheses=False)


def golden_argvs():
    wide = [inst for inst in enumerate_instances(32) if inst.n >= 21]
    narrow = list(enumerate_instances(12, (FamilyId.F1, FamilyId.F2, FamilyId.F6)))
    rng = random.Random(SEED)
    for inst in wide + narrow:
        for _ in range(VALUES_PER_INSTANCE):
            yield _argv(inst, rng.randrange(inst.spec.order))
    for inst in forced_instances():
        for _ in range(VALUES_PER_INSTANCE):
            x = rng.randrange(inst.spec.order)
            yield _argv(inst, trinomial_bits(inst.spec, inst.exponents, x), "--force-params")
        yield _argv(inst, rng.randrange(inst.spec.order), "--force-params")


def render() -> str:
    out = io.StringIO()
    for argv in golden_argvs():
        out.write("$ permtri " + " ".join(argv) + "\n")
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(out):
            rc = main(argv)
        out.write(f"exit {rc}\n")
    return out.getvalue()


def test_invert_trace_matches_golden_file():
    with open(GOLDEN, encoding="utf-8", newline="") as fh:
        golden = fh.read()
    assert render() == golden


if __name__ == "__main__":
    os.makedirs(os.path.dirname(GOLDEN), exist_ok=True)
    with open(GOLDEN, "w", encoding="utf-8", newline="") as fh:
        fh.write(render())
