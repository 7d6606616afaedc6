"""Negative controls: every correctness gate must count these as failures.

Run from the root of a checkout (the search fixture takes about 25 s):

    python3 -m pytest perfbench -q
"""

import io
import sys
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parent))

import run  # noqa: E402
import workloads  # noqa: E402

pt = run.load_permtri()


def one_pass(work, ops):
    tally = run.Tally()
    run.run_pass(work, ops, tally, [])
    return tally.attempted, tally.failed


def test_verify_gate_counts_forced_f1_k2_as_failed(tmp_path):
    work = workloads.VerifySweep(pt, 0, tmp_path)
    good = pt.families.instantiate("F1", k=1)
    forced = pt.families.instantiate("F1", k=2, enforce_hypotheses=False)
    assert forced.n == 6
    assert one_pass(work, [[good]]) == (1, 0)
    assert one_pass(work, [[good, forced]]) == (1, 1)


def test_verify_reference_holds_under_another_modulus(tmp_path):
    # The gate compares seeded moduli against default-modulus reports.
    work = workloads.VerifySweep(pt, 0, tmp_path)
    other = list(pt.field.irreducibles(8))[3]
    assert other != pt.field.DEFAULT_MODULI[8]
    inst = pt.families.instantiate("F6", k=3, m=2, spec=pt.field.FieldSpec(8, other))
    assert one_pass(work, [[inst]]) == (1, 0)


def test_invert_gate_counts_tampered_inverse_as_failed(tmp_path):
    work = workloads.make("invert-table", pt, 0, tmp_path)
    state = work.setup()
    ops = work.pass_ops(state)[:50]
    assert one_pass(work, ops) == (50, 0)

    class Tampered(type(work)):
        def run(self, op):
            x, trace = super().run(op)
            return x + x.spec.one, trace      # x ^ 1
    tampered = Tampered(pt, 0, tmp_path, work.name, work.lo, work.hi)
    assert one_pass(tampered, ops) == (50, 50)


def test_invert_gate_counts_inversion_error_as_failed(tmp_path):
    work = workloads.make("invert-wide", pt, 0, tmp_path)

    class Raising(type(work)):
        def run(self, op):
            raise pt.inverter.NoValidCandidateError("injected")
    raising = Raising(pt, 0, tmp_path, work.name, work.lo, work.hi)
    ops = work.pass_ops(work.setup())[:3]
    assert one_pass(raising, ops) == (3, 3)


@pytest.fixture(scope="module")
def search_output(tmp_path_factory):
    work = workloads.SearchN9(pt, 1, tmp_path_factory.mktemp("search"))
    rc, out, _ = work.run(work.argv)
    assert rc == 0
    return out.getvalue()


def replaying(tmp_path, text, seed=1):
    """A search workload whose 'run' returns ``text`` as the CLI output."""
    class Replay(workloads.SearchN9):
        def run(self, argv):
            out = io.StringIO(text)
            out.seek(0, io.SEEK_END)
            return 0, out, 0
    return Replay(pt, seed, tmp_path)


def test_search_gate_accepts_real_output(tmp_path, search_output):
    assert workloads.search_problems(search_output, 1) == []
    work = replaying(tmp_path, search_output)
    assert one_pass(work, work.pass_ops(None) * 2) == (2, 0)


@pytest.mark.parametrize("cut", [0.5, 0.999999])
def test_search_gate_counts_truncated_csv_as_failed(tmp_path, search_output, cut):
    truncated = search_output[:int(len(search_output) * cut)]
    assert workloads.search_problems(truncated, 1)
    work = replaying(tmp_path, truncated)
    assert one_pass(work, work.pass_ops(None)) == (1, 1)


def test_search_gate_counts_changed_bytes_as_failed(tmp_path, search_output):
    # Rows out of order fail the structure check.
    lines = search_output.split("\n")
    lines[2], lines[3] = lines[3], lines[2]
    assert workloads.search_problems("\n".join(lines), 1)
    # Output that passes the structure check but differs from the bytes
    # recorded earlier for the same seed fails the digest check.
    relabelled = search_output.replace(",false,,,", ",false,F3,1,", 1)
    assert relabelled != search_output
    assert workloads.search_problems(relabelled, 1) == []
    first = replaying(tmp_path, search_output)
    assert one_pass(first, first.pass_ops(None)) == (1, 0)
    later = replaying(tmp_path, relabelled)
    assert one_pass(later, later.pass_ops(None)) == (1, 1)
