"""Command-line front end: verify, invert, search, gcd-suite, families.

Exit codes: 0 success (for ``verify``: the map permutes), 1 checked but not
a permutation, 2 parameter or hypothesis errors (also ``search --force``
above the log-table limit), 3 budget guard tripped (override with
--force), 4 inversion produced no valid candidate.

All verdict-bearing output is deterministic: JSON objects have fixed key
order and the search CSV is byte-identical for a fixed seed.  ``verify``
runs on one thread; ``search`` decides its e1 blocks on one worker thread
per CPU in the process's affinity set, and its output is the same on any
number of CPUs.  The ``--threads`` flag of both is accepted and ignored.
``search`` screens a pair table of sampled powers per e1 in fixed tiles,
confirms the survivors in batches and writes each e1 block's rows, in
ascending e1, as soon as the block and every earlier one are decided.
"""

import argparse
import json
import os
import sys
import threading
from collections import deque
from contextlib import closing, nullcontext

from .families import (
    ConditionViolatedError,
    DegreeMismatchError,
    FamilyId,
    check_gcd_identities,
    enumerate_params,
    instantiate,
    value_table,
)
from .field import FieldSpec, default_spec
from .inverter import InversionError, invert
from .permcheck import BudgetExceededError, check, guard_budget, sample_points

SEARCH_DEGREE_LIMIT = 10
N_MAX_LIMIT = 64       # largest --n-max of gcd-suite and families
SCREEN_TILE = 4096     # pair rows per screen step
CONFIRM_BATCH = 4096   # survivors per confirm step
CONFIRM_HEAD = 128     # points a confirm step checks before the whole field
DEFAULT_SEED = 1
DEFAULT_SAMPLES = 64
THREADS_HELP = ("accepted and ignored: verify runs on one thread, search on every CPU "
                "in the affinity set, with the same output either way")


def _parse_modulus(text: str) -> FieldSpec:
    try:
        bits = int(text, 16)
    except ValueError:
        raise ValueError(f"modulus {text!r} is not valid hex") from None
    return FieldSpec(bits.bit_length() - 1, bits)


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
    x, trace = invert(inst, inst.spec.from_hex(args.a))
    print(str(x))
    if args.trace:
        print(json.dumps(trace.to_json_dict()))
    return 0


def _family_tags(n: int, spec: FieldSpec):
    # "family,k,m" CSV tail of every family instance's reduced, strictly
    # descending exponent triple at this n (the first instance wins)
    table = {}
    for family in FamilyId:
        for params in [p for n_found, p in enumerate_params(family, n) if n_found == n]:
            inst = instantiate(family, params, spec)
            triple = tuple(sorted(inst.reduced_exponents(), reverse=True))
            if len(set(triple)) == 3 and triple[0] < spec.order - 1 and triple not in table:
                table[triple] = f"{family.value},{params.k},{'' if params.m is None else params.m}"
    return table


def _distinct_rows(vals):
    # sorts a C-contiguous 2-D array's rows in place; True where a row has no repeat
    import numpy as np
    vals.sort(axis=1)
    same = np.empty(vals.shape, dtype=bool)
    np.equal(vals.ravel()[1:], vals.ravel()[:-1], out=same.ravel()[:-1])
    same[:, -1] = False   # each row's last pair straddles two rows
    return ~same.any(axis=1)


def _search_blocks(spec: FieldSpec, sample_count: int, seed: int):
    """Screen every triple e1 > e2 > e3 >= 1 on seeded sample points and fully check the
    survivors.  Set-up runs now; the iterator yields (e1, rows, is_perm) per e1 in
    ascending order, where rows index the pairs (e2, e3) in ascending (e2, e3) order."""
    import numpy as np
    mult = spec.order - 1
    exp_np, log_np = spec.exp_log_arrays()
    # pow[e-1, x] = x^e for e in [1, 2^n - 2] and every x (0^e = 0); at least
    # 16 bits wide, since numpy sorts uint16 rows far faster than uint8 rows
    pow_ = np.zeros((mult - 1, spec.order), np.uint16 if spec.n <= 16 else np.uint32)
    pow_[:, 1:] = exp_np[np.outer(np.arange(1, mult), log_np[1:]) % mult]
    cols = np.ascontiguousarray(pow_[:, sample_points(spec, sample_count, seed)])
    # pair[r] = x^e2 + x^e3 over e2 > e3 >= 1 in ascending (e2, e3) order,
    # so the e1 block is its prefix of the rows with e2 < e1
    i2, i3 = np.tril_indices(max(mult - 2, 0), -1)
    pair = cols[i2] ^ cols[i3]
    tile = SCREEN_TILE
    local = threading.local()

    # worker threads run block() and call numpy only: nothing here touches a
    # FieldSpec or any other library function
    def block(e1):
        work = getattr(local, "work", None)
        if work is None:
            work = local.work = np.empty((tile, cols.shape[1]), cols.dtype)
        size = (e1 - 1) * (e1 - 2) // 2
        keep = np.empty(size, dtype=bool)
        for s in range(0, size, tile):
            t = min(tile, size - s)
            keep[s:s + t] = _distinct_rows(
                np.bitwise_xor(pair[s:s + t], cols[e1 - 1], out=work[:t]))
        rows = np.flatnonzero(keep)
        # full check: f permutes iff its values over the whole field are
        # distinct; most survivors already collide on the first points
        is_perm = np.zeros(rows.size, dtype=bool)
        for s in range(0, rows.size, CONFIRM_BATCH):
            tri = rows[s:s + CONFIRM_BATCH]
            for table in (pow_[:, :CONFIRM_HEAD], pow_):
                tri = tri[_distinct_rows(table[i2[tri]] ^ table[i3[tri]] ^ table[e1 - 1])]
            is_perm[np.searchsorted(rows, tri)] = True
        return e1, rows, is_perm

    workers = (len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity")
               else os.cpu_count() or 1)
    largest = (mult - 2) * (mult - 3) // 2

    def blocks():
        if workers == 1 or largest <= tile:
            # a pool costs more than it saves when no block spans two tiles
            for e1 in range(3, mult):
                yield block(e1)
            return
        # imported here: only a multi-CPU search needs the pool, and loading it
        # costs every other command about 0.6 MB of resident memory
        from concurrent.futures import ThreadPoolExecutor
        pool = ThreadPoolExecutor(workers)
        try:
            pending = deque()
            for e1 in range(3, mult):
                pending.append(pool.submit(block, e1))
                if len(pending) >= 2 * workers:
                    yield pending.popleft().result()
            while pending:
                yield pending.popleft().result()
        finally:
            pool.shutdown(cancel_futures=True)
    return blocks()


def _block_text(e1, rows, is_perm, pair_text, tagged):
    # the CSV rows of one e1 block; tagged lists (pair row, "family,k,m")
    import numpy as np
    if not rows.size:
        return ""
    lead = f"{e1},"
    # each row's verdict and family columns, then the next row's e1 column
    ends = np.array([f"false,,,\n{lead}", f"true,,,\n{lead}"], dtype=object)[
        is_perm.view(np.uint8)]
    for r, tag in tagged:
        i = np.searchsorted(rows, r)
        if i < rows.size and rows[i] == r:
            ends[i] = f"{'true' if is_perm[i] else 'false'},{tag}\n{lead}"
    ends[-1] = ends[-1][:-len(lead)]
    parts = np.empty(2 * rows.size, dtype=object)
    parts[0::2] = pair_text[rows]
    parts[1::2] = ends
    return lead + "".join(parts.tolist())


def _cmd_search(args) -> int:
    import numpy as np
    if args.n < 2:
        raise ValueError("--n must be >= 2")
    if args.n > SEARCH_DEGREE_LIMIT and not args.force:
        raise BudgetExceededError(
            f"full enumeration at n={args.n} exceeds the n <= {SEARCH_DEGREE_LIMIT} budget "
            f"(n = {SEARCH_DEGREE_LIMIT} takes about 20 s on two cores and each further "
            f"degree at least 8 times as long; rerun with --force)")
    spec = _parse_modulus(args.modulus) if args.modulus else default_spec(args.n)
    if spec.n != args.n:
        raise DegreeMismatchError(f"modulus has degree {spec.n}, --n is {args.n}")
    tagged = {}
    for (e1, e2, e3), tag in _family_tags(args.n, spec).items():
        tagged.setdefault(e1, []).append(((e2 - 1) * (e2 - 2) // 2 + e3 - 1, tag))
    # set-up first: it refuses n > 20 before the pair texts below could fill memory
    blocks = _search_blocks(spec, args.samples, args.seed)
    # "e2,e3," of every pair row, in the screen's ascending (e2, e3) order
    nums = [f"{e}," for e in range(1, spec.order - 2)]
    pair_text = np.array([a + b for i, a in enumerate(nums[1:], 1) for b in nums[:i]],
                         dtype=object)
    with closing(blocks), \
            open(args.out, "w", newline="") if args.out else nullcontext(sys.stdout) as stream:
        stream.write(f"# permtri search n={args.n} modulus=0x{spec.modulus:x} "
                     f"seed={args.seed} samples={args.samples}\n"
                     "e1,e2,e3,is_permutation,family,k,m\n")
        for e1, rows, is_perm in blocks:
            stream.write(_block_text(e1, rows, is_perm, pair_text, tagged.get(e1, ())))
    return 0


def _cmd_gcd_suite(args) -> int:
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

    return parser


def main(argv=None) -> int:
    args = _parser().parse_args(argv)
    try:
        if getattr(args, "n_max", None) is not None and not 2 <= args.n_max <= N_MAX_LIMIT:
            raise ValueError(f"--n-max must be in [2, {N_MAX_LIMIT}]")
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
