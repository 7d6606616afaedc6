"""The benchmark's four workloads: seeded inputs, set-up, operations, gates.

Each workload is a closed loop: one caller sends an operation, waits for
its result, checks it outside the timed call, then sends the next.  An
operation is what a user waits for: the whole 54-instance sweep, one
search, or one inversion.  Operations are grouped in passes: one sweep,
one search, or ``INVERT_PASS_OPS`` inversions.

A workload object offers

* ``setup()``: the state every pass needs (fresh field specs, warm tables
  and caches); the runner times it and repeats it;
* ``pass_ops(state)``: the operations of the next pass, drawn from the
  seed and built before timing starts;
* ``run(op)``: the timed call into the library;
* ``gate(op, result)``: True when the result is correct;
* ``observe(op, result, seconds, obs)``: per-layer facts taken from a
  traced pass's results.

``op_errors`` lists the exceptions that count as a failed operation
instead of ending the run.
"""

import hashlib
import io
import itertools
import json
import random
import time
from contextlib import redirect_stdout
from pathlib import Path

HERE = Path(__file__).resolve().parent
REFERENCE_PATH = HERE / "reference_verify.json"

SWEEP_MAX_N = 20          # the log-table limit: value_table is vectorised up to here
WIDE_MAX_N = 32
MODULUS_CHOICES = 4       # the seed picks among the first few irreducibles per degree
INVERT_PASS_OPS = 1000

SEARCH_N = 9
SEARCH_SAMPLES = 64       # the CLI default
SEARCH_MODULUS = 0x203    # pinned default modulus of degree 9
SEARCH_PERMUTATIONS = 13392
SEARCH_LABELLED_ROWS = ("71,64,1,true,F1,3,", "71,57,1,true,F2,3,")


def instance_label(inst) -> str:
    m = "" if inst.params.m is None else f" m={inst.params.m}"
    return f"{inst.family.value} k={inst.params.k}{m}"


def family_instances(pt, lo, hi, spec_for):
    """Every valid instance with lo <= n <= hi, in family then parameter order."""
    families = pt.families
    return [families.instantiate(family, params, spec_for(n))
            for family in families.FamilyId
            for n, params in families.enumerate_params(family, hi) if n >= lo]


# --------------------------------------------------------------------------
# gates (shared with the negative controls in test_gates.py)
# --------------------------------------------------------------------------

def load_reference():
    return json.loads(REFERENCE_PATH.read_text())


def verify_ok(reference, inst, report) -> bool:
    """The report equals the one recorded for this instance under the
    default moduli.  Missing count, witness, fixed points and cycle type
    do not depend on the modulus: a change of modulus conjugates f by a
    field isomorphism."""
    expected = reference.get(instance_label(inst))
    return expected is not None and report.to_json_dict() == expected


def invert_ok(pt, inst, a, x) -> bool:
    """x is a preimage of a, re-evaluated with ``families.evaluate``."""
    return pt.families.evaluate(inst, x) == a


def search_problems(text: str, seed: int) -> list[str]:
    """What is wrong with one ``search --n 9`` CSV (empty when correct)."""
    problems = []
    if not text.endswith("\n"):
        problems.append("output does not end with a newline")
    lines = text.split("\n")[:-1]
    header = (f"# permtri search n={SEARCH_N} modulus=0x{SEARCH_MODULUS:x} "
              f"seed={seed} samples={SEARCH_SAMPLES}")
    if lines[:2] != [header, "e1,e2,e3,is_permutation,family,k,m"]:
        problems.append("header lines differ")
    limit = (1 << SEARCH_N) - 1
    previous = None
    permutations = 0
    for number, line in enumerate(lines[2:], start=3):
        fields = line.split(",")
        try:
            triple = tuple(int(v) for v in fields[:3])
        except ValueError:
            triple = ()
        if (len(fields) != 7 or len(triple) != 3 or fields[3] not in ("true", "false")
                or not limit > triple[0] > triple[1] > triple[2] >= 1):
            problems.append(f"line {number} is malformed: {line!r}")
            break
        if previous is not None and triple <= previous:
            problems.append(f"line {number} is not above the line before it")
            break
        previous = triple
        permutations += fields[3] == "true"
    if permutations != SEARCH_PERMUTATIONS:
        problems.append(f"{permutations} permutation rows, expected {SEARCH_PERMUTATIONS}")
    rows = set(lines[2:])
    problems.extend(f"row {row!r} is missing" for row in SEARCH_LABELLED_ROWS
                    if row not in rows)
    return problems


# --------------------------------------------------------------------------
# workloads
# --------------------------------------------------------------------------

class VerifySweep:
    """value_table then check on all 54 valid instances with n <= 20."""

    name = "verify-sweep"
    op_errors = ()

    def __init__(self, pt, seed, out_dir):
        self.pt = pt
        self.rng = random.Random(seed)
        field = pt.field
        self.moduli = {}
        for n in range(2, SWEEP_MAX_N + 1):
            if seed == 0:
                self.moduli[n] = field.DEFAULT_MODULI[n]
            else:
                choices = list(itertools.islice(field.irreducibles(n), MODULUS_CHOICES))
                self.moduli[n] = self.rng.choice(choices)
        self.reference = load_reference()

    def setup(self):
        specs = {}

        def spec_for(n):
            if n not in specs:
                specs[n] = self.pt.field.FieldSpec(n, self.moduli[n])
                specs[n].exp_log_arrays()
            return specs[n]
        return family_instances(self.pt, 2, SWEEP_MAX_N, spec_for)

    def pass_ops(self, state):
        sweep = list(state)
        self.rng.shuffle(sweep)
        return [sweep]

    def run(self, sweep):
        families, permcheck = self.pt.families, self.pt.permcheck
        return [permcheck.check(families.value_table(inst), inst.spec) for inst in sweep]

    def gate(self, sweep, reports):
        return all(verify_ok(self.reference, inst, report)
                   for inst, report in zip(sweep, reports, strict=True))

    def observe(self, sweep, reports, seconds, obs):
        for inst in sweep:
            obs["elements"] += inst.spec.order
            obs["op_n"].append(inst.n)


class InvertStream:
    """A seeded stream of invert(inst, a): family uniform, then one of its
    instances with lo <= n <= hi, then a uniform in the field."""

    def __init__(self, pt, seed, out_dir, name, lo, hi):
        self.pt = pt
        self.name = name
        self.lo, self.hi = lo, hi
        self.rng = random.Random(seed)
        self.op_errors = (pt.inverter.InversionError,)

    def setup(self):
        specs = {}

        def spec_for(n):
            if n not in specs:
                specs[n] = self.pt.field.FieldSpec(n)
            return specs[n]
        by_family = {}
        for inst in family_instances(self.pt, self.lo, self.hi, spec_for):
            by_family.setdefault(inst.family, []).append(inst)
            # builds the log tables (n <= 20) and the other lazy caches
            self.pt.inverter.invert(inst, inst.spec.element(2))
        return list(by_family.values())

    def pass_ops(self, state):
        rng = self.rng
        ops = []
        for _ in range(INVERT_PASS_OPS):
            inst = rng.choice(rng.choice(state))
            ops.append((inst, inst.spec.element(rng.randrange(inst.spec.order))))
        return ops

    def run(self, op):
        return self.pt.inverter.invert(*op)

    def gate(self, op, result):
        inst, a = op
        return invert_ok(self.pt, inst, a, result[0])

    def observe(self, op, result, seconds, obs):
        inst, a = op
        family = inst.family.value
        obs["family_us"].setdefault(family, []).append(seconds * 1e6)
        if result is None:
            return
        trace = result[1]
        obs["inverted"] += 1
        obs["candidates"] += len(trace.candidates)
        if a.bits == 0:
            return
        if family == "F1" and trace.epsilon.bits == 0:
            obs["F1_eps0"] += 1
        elif family == "F2":
            lam = trace.lam.bits
            mul = inst.spec.mul_baseline      # not counted by the tracer
            if mul(mul(lam, lam), lam) ^ lam ^ 1 == 0:
                obs["F2_lam7"] += 1
        elif family == "F4" and trace.alpha.bits == 0:
            obs["F4_alpha0"] += 1


class _Capture(io.StringIO):
    """Captured stdout that notes when the first write (the header) came."""

    first_write_ns = None

    def write(self, s):
        if self.first_write_ns is None:
            self.first_write_ns = time.perf_counter_ns()
        return super().write(s)


class SearchN9:
    """``permtri search --n 9`` with the workload seed, stdout captured."""

    name = "search-n9"
    op_errors = ()

    def __init__(self, pt, seed, out_dir):
        self.pt = pt
        self.seed = seed
        self.argv = ["search", "--n", str(SEARCH_N), "--seed", str(seed)]
        self.digest_path = out_dir / f"search-n{SEARCH_N}-seed{seed}.sha256"
        self.digest = None

    def setup(self):
        # fresh degree-9 tables, and one small search so every lazy path has run
        self.pt.field.default_spec.cache_clear()
        self.pt.field.default_spec(SEARCH_N).exp_log_arrays()
        with redirect_stdout(io.StringIO()):
            self.pt.cli.main(["search", "--n", "5"])
        return None

    def pass_ops(self, state):
        return [self.argv]

    def run(self, argv):
        out = _Capture()
        start = time.perf_counter_ns()
        with redirect_stdout(out):
            rc = self.pt.cli.main(argv)
        return rc, out, start

    def gate(self, argv, result):
        rc, out, _ = result
        text = out.getvalue()
        if rc != 0 or search_problems(text, self.seed):
            return False
        return self.same_as_before(text)

    def same_as_before(self, text) -> bool:
        """The output matches every earlier output for this seed, within the
        run and across runs in this checkout."""
        digest = hashlib.sha256(text.encode()).hexdigest()
        if self.digest is None:
            if self.digest_path.exists():
                self.digest = self.digest_path.read_text().strip()
            else:
                self.digest_path.write_text(digest + "\n")
                self.digest = digest
        return digest == self.digest

    def observe(self, argv, result, seconds, obs):
        rc, out, start = result
        header_ns = out.first_write_ns or start
        obs["first_row_s"] += (header_ns - start) / 1e9
        obs["rows_s"] += seconds - (header_ns - start) / 1e9
        lines = out.getvalue().split("\n")[2:-1]
        mult = (1 << SEARCH_N) - 1
        obs["triples"] += (mult - 1) * (mult - 2) * (mult - 3) // 6
        obs["survivors"] += len(lines)
        obs["confirmed"] += sum(1 for line in lines if ",true," in line)


def make(name, pt, seed, out_dir):
    if name == "verify-sweep":
        return VerifySweep(pt, seed, out_dir)
    if name == "invert-table":
        return InvertStream(pt, seed, out_dir, name, 2, SWEEP_MAX_N)
    if name == "invert-wide":
        return InvertStream(pt, seed, out_dir, name, SWEEP_MAX_N + 1, WIDE_MAX_N)
    if name == "search-n9":
        return SearchN9(pt, seed, out_dir)
    raise ValueError(f"unknown workload {name!r}")


NAMES = ("verify-sweep", "invert-table", "invert-wide", "search-n9")
