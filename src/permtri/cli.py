"""Command-line front end: verify, invert, search, gcd-suite, families, bench.

Exit codes: 0 success (for ``verify``: the map permutes), 1 checked but not
a permutation, 2 parameter or hypothesis errors, 3 budget guard tripped
(override with --force), 4 inversion produced no valid candidate.

All verdict-bearing output is deterministic: JSON objects have fixed key
order and the search CSV is byte-identical for a fixed seed.  Evaluation
runs on one thread; the ``--threads`` flag of ``verify`` and ``search`` is
accepted and ignored.
"""

import argparse
import json
import sys
import time

import numpy as np

from .families import (
    ConditionViolatedError,
    DegreeMismatchError,
    FamilyId,
    check_gcd_identities,
    enumerate_params,
    instantiate,
    trinomial_at_logs,
    value_table,
)
from .field import TABLE_DEGREE_LIMIT, FieldSpec, default_spec
from .inverter import InversionError, invert
from .permcheck import BudgetExceededError, check, guard_budget, sample_points

SEARCH_DEGREE_LIMIT = 14
DEFAULT_SEED = 1
DEFAULT_SAMPLES = 64
THREADS_HELP = "accepted and ignored: evaluation runs on one thread"


def _parse_modulus(text: str) -> FieldSpec:
    try:
        bits = int(text, 16)
    except ValueError:
        raise ValueError(f"modulus {text!r} is not valid hex") from None
    n = bits.bit_length() - 1
    return FieldSpec(n, bits)


def _instance(args):
    spec = _parse_modulus(args.modulus) if args.modulus else None
    return instantiate(args.family, k=args.k, m=args.m, spec=spec,
                       enforce_hypotheses=not getattr(args, "force_params", False))


def _cmd_verify(args) -> int:
    inst = _instance(args)
    guard_budget(inst.spec, args.force, "exhaustive check")
    report = check(value_table(inst), inst.spec, force=True)
    print(inst.to_json())
    print(json.dumps(report.to_json_dict()))
    if args.force_params:
        return 0   # excluded-parameter experiment: data only, no pass/fail
    return 0 if report.is_permutation else 1


def _cmd_invert(args) -> int:
    inst = _instance(args)
    a = inst.spec.from_hex(args.a)
    x, trace = invert(inst, a)
    print(str(x))
    if args.trace:
        print(json.dumps(trace.to_json_dict()))
    return 0


def _family_triples(n: int, spec: FieldSpec):
    # reduced, strictly descending exponent triples of every family at this n
    mult = spec.order - 1
    table = {}
    for family in FamilyId:
        for n_found, params in enumerate_params(family, n):
            if n_found != n:
                continue
            inst = instantiate(family, params, spec)
            triple = tuple(sorted(inst.reduced_exponents(), reverse=True))
            if len(set(triple)) == 3 and triple[0] <= mult - 1 and triple not in table:
                table[triple] = (family.value, params.k, params.m)
    return table


def _search_survivors(spec: FieldSpec, sample_count: int, seed: int):
    """Quick-reject every exponent triple against seeded sample points and
    return the survivors in canonical ascending order."""
    mult = spec.order - 1
    exp_np, log_np = spec.exp_log_arrays()
    pts = np.array(sample_points(spec, sample_count, seed), dtype=np.uint32)
    zero_sampled = bool((pts == 0).any())
    nz = pts[pts != 0]
    logs = log_np[nz].astype(np.uint64)
    # P[e-1] = f_e over the sampled points, f_e(x) = x^e
    P = exp_np[(np.arange(1, mult, dtype=np.uint64)[:, None] * logs[None, :]) % mult]

    def survivors_for(e1: int):
        # one e1 block per call, so its arrays are freed before the next
        e2s = np.arange(2, e1, dtype=np.int64)
        counts = e2s - 1
        total = int(counts.sum())
        e2_arr = np.repeat(e2s, counts)
        offsets = np.concatenate(([0], np.cumsum(counts)[:-1]))
        e3_arr = np.arange(total, dtype=np.int64) - np.repeat(offsets, counts) + 1
        vals = P[e1 - 1][None, :] ^ P[e2_arr - 1] ^ P[e3_arr - 1]
        if zero_sampled:
            vals = np.concatenate([vals, np.zeros((total, 1), dtype=vals.dtype)], axis=1)
        vs = np.sort(vals, axis=1)
        clean = ~(vs[:, 1:] == vs[:, :-1]).any(axis=1)
        return [(e1, int(e2_arr[i]), int(e3_arr[i])) for i in np.nonzero(clean)[0]]

    return [row for e1 in range(3, mult) for row in survivors_for(e1)]


def _cmd_search(args) -> int:
    if args.n < 2:
        raise ValueError("--n must be >= 2")
    if args.n > SEARCH_DEGREE_LIMIT and not args.force:
        raise BudgetExceededError(
            f"full enumeration at n={args.n} exceeds the n <= "
            f"{SEARCH_DEGREE_LIMIT} budget (rerun with --force)")
    spec = _parse_modulus(args.modulus) if args.modulus else default_spec(args.n)
    if spec.n != args.n:
        raise DegreeMismatchError(f"modulus has degree {spec.n}, --n is {args.n}")
    exp_np, log_np = spec.exp_log_arrays()
    logs = log_np[1:].astype(np.uint64)
    fam_map = _family_triples(args.n, spec)
    survivors = _search_survivors(spec, args.samples, args.seed)

    stream = open(args.out, "w", newline="") if args.out else sys.stdout
    try:
        stream.write(f"# permtri search n={args.n} modulus=0x{spec.modulus:x} "
                     f"seed={args.seed} samples={args.samples}\n")
        stream.write("e1,e2,e3,is_permutation,family,k,m\n")
        for e1, e2, e3 in survivors:
            # full check over the domain: f(0) = 0, so the values at the
            # nonzero points must be distinct and avoid 0
            counts = np.bincount(trinomial_at_logs(exp_np, logs, (e1, e2, e3)),
                                 minlength=spec.order)
            perm = counts[0] == 0 and int(counts.max()) == 1
            fam, k, m = fam_map.get((e1, e2, e3), ("", "", ""))
            m = "" if m is None else m
            stream.write(f"{e1},{e2},{e3},{str(perm).lower()},{fam},{k},{m}\n")
    finally:
        if args.out:
            stream.close()
    return 0


def _cmd_gcd_suite(args) -> int:
    if not 2 <= args.n_max <= 64:
        raise ValueError("--n-max must be in [2, 64]")
    rows = []
    for family in FamilyId:
        for n, params in enumerate_params(family, args.n_max):
            for name, holds in check_gcd_identities(family, params):
                rows.append({"family": family.value, "k": params.k,
                             "m": params.m, "n": n,
                             "identity": name, "holds": holds})
    if args.json:
        print(json.dumps(rows))
    else:
        for r in rows:
            m = "" if r["m"] is None else f" m={r['m']}"
            print(f"{r['family']} k={r['k']}{m} n={r['n']}  {r['identity']}  "
                  f"{str(r['holds']).lower()}")
    return 0 if all(r["holds"] for r in rows) else 1


def _cmd_families(args) -> int:
    out = []
    for family in FamilyId:
        entry = {"id": family.value, "formula": family.formula,
                 "constraint": family.constraint}
        if args.n_max:
            entry["params"] = [
                {"n": n, "k": p.k, "m": p.m}
                for n, p in enumerate_params(family, args.n_max)
            ]
        out.append(entry)
    if args.json:
        print(json.dumps(out))
    else:
        for entry in out:
            print(f"{entry['id']}: {entry['formula']}   [{entry['constraint']}]")
            for p in entry.get("params", []):
                m = "" if p["m"] is None else f", m={p['m']}"
                print(f"    n={p['n']}: k={p['k']}{m}")
    return 0


def _cmd_bench(args) -> int:
    if args.reps < 1:
        raise ValueError("--reps must be >= 1")
    inst = _instance(args)
    spec = inst.spec
    if spec.n <= TABLE_DEGREE_LIMIT:
        spec.build_tables()
    verify_ns = None
    for _ in range(args.reps):
        t0 = time.perf_counter_ns()
        check(value_table(inst), spec, force=True)
        dt = time.perf_counter_ns() - t0
        verify_ns = dt if verify_ns is None else min(verify_ns, dt)
    count = 1 << min(spec.n, 16)
    per_op = None
    for _ in range(args.reps):
        t0 = time.perf_counter_ns()
        for bits in range(count):
            invert(inst, spec.element(bits % spec.order))
        dt = (time.perf_counter_ns() - t0) / count
        per_op = dt if per_op is None else min(per_op, dt)
    print(json.dumps({"verify_ns": verify_ns, "invert_ns_per_op": per_op}))
    return 0


def _add_instance_flags(p, need_a=False):
    p.add_argument("--family", required=True, choices=[f.value for f in FamilyId])
    p.add_argument("--k", type=int, required=True)
    p.add_argument("--m", type=int, default=None)
    p.add_argument("--modulus", default=None, metavar="0xHEX")
    p.add_argument("--force-params", action="store_true", dest="force_params",
                   help="bypass the family hypotheses (experiment mode)")
    if need_a:
        p.add_argument("--a", required=True, metavar="0xHEX")


def _parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="permtri",
        description="Permutation trinomials over F_{2^n}: verify, invert, search.")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("verify", help="exhaustively verify one family instance")
    _add_instance_flags(p)
    p.add_argument("--threads", type=int, default=1, help=THREADS_HELP)
    p.add_argument("--force", action="store_true", help="override the budget guard")
    p.set_defaults(func=_cmd_verify)

    p = sub.add_parser("invert", help="compute the preimage of a value")
    _add_instance_flags(p, need_a=True)
    p.add_argument("--trace", action="store_true", help="also print the inversion trace")
    p.set_defaults(func=_cmd_invert)

    p = sub.add_parser("search", help="enumerate exponent triples and test each")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--samples", type=int, default=DEFAULT_SAMPLES)
    p.add_argument("--seed", type=int, default=DEFAULT_SEED)
    p.add_argument("--out", default=None, metavar="PATH")
    p.add_argument("--modulus", default=None, metavar="0xHEX")
    p.add_argument("--threads", type=int, default=1, help=THREADS_HELP)
    p.add_argument("--force", action="store_true", help="override the budget guard")
    p.set_defaults(func=_cmd_search)

    p = sub.add_parser("gcd-suite", help="evaluate every proof gcd identity")
    p.add_argument("--n-max", type=int, default=32, dest="n_max")
    p.add_argument("--json", action="store_true")
    p.set_defaults(func=_cmd_gcd_suite)

    p = sub.add_parser("families", help="list the six families")
    p.add_argument("--n-max", type=int, default=None, dest="n_max")
    p.add_argument("--json", action="store_true")
    p.set_defaults(func=_cmd_families)

    p = sub.add_parser("bench", help="time verification and inversion")
    _add_instance_flags(p)
    p.add_argument("--reps", type=int, default=3)
    p.set_defaults(func=_cmd_bench)

    return parser


def main(argv=None) -> int:
    args = _parser().parse_args(argv)
    try:
        return args.func(args)
    except (ConditionViolatedError, DegreeMismatchError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except BudgetExceededError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    except InversionError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 4


if __name__ == "__main__":
    sys.exit(main())
