"""``permtri invert --trace`` stdout, pinned byte for byte.

The golden file holds, for three seeded values a per instance, the command
line and its stdout: every valid instance with 21 <= n <= 32 (the
byte-sliced route) and the F1, F2 and F6 instances with n <= 12 (the log
tables).  Regenerate it only for an intended output change, with

    PYTHONPATH=src python tests/test_invert_golden.py
"""

import contextlib
import io
import os
import random

from permtri.cli import main
from permtri.families import FamilyId, enumerate_instances

GOLDEN = os.path.join(os.path.dirname(__file__), "data", "invert_trace_golden.txt")
SEED = 9
VALUES_PER_INSTANCE = 3


def golden_argvs():
    wide = [inst for inst in enumerate_instances(32) if inst.n >= 21]
    narrow = list(enumerate_instances(12, (FamilyId.F1, FamilyId.F2, FamilyId.F6)))
    rng = random.Random(SEED)
    for inst in wide + narrow:
        m = [] if inst.params.m is None else ["--m", str(inst.params.m)]
        for _ in range(VALUES_PER_INSTANCE):
            a = rng.randrange(inst.spec.order)
            yield ["invert", "--family", inst.family.value, "--k", str(inst.params.k),
                   *m, "--a", hex(a), "--trace"]


def render() -> str:
    out = io.StringIO()
    for argv in golden_argvs():
        out.write("$ permtri " + " ".join(argv) + "\n")
        with contextlib.redirect_stdout(out):
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
