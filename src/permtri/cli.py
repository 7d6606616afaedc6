"""Command-line front end: verify, invert, search, gcd-suite, families.

Exit codes: 0 success (for ``verify``: the map permutes), 1 checked but not
a permutation, 2 parameter or hypothesis errors (also ``search --force``
above the log-table limit, and a ``search --out`` path that cannot be
written), 3 budget guard tripped (override with --force), 4 inversion
produced no valid candidate.

All verdict-bearing output is deterministic: JSON objects have fixed key
order and the search CSV is byte-identical for a fixed seed.  ``verify``
runs on one thread; ``search`` screens its tiles on one worker thread per
CPU in the process's affinity set, and its output is the same on any
number of CPUs.  The ``--threads`` flag of both is accepted and ignored.
``search`` screens and confirms a set of triples that meets every Frobenius
orbit, since the doubled triple's trinomial is the square of the triple's,
confirms each survivor by the orbits of its values at 0 and one point per
orbit of the field, records each survivor's whole orbit in a one-bit-per-
triple map in CSV order and each permuting orbit in a sorted array of
ranks, and once every orbit is decided writes the rows in ascending e1 from
the integer triples, through one ``"e,"`` text per exponent.
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
DEFAULT_SEED = 1
DEFAULT_SAMPLES = 64
THREADS_HELP = ("accepted and ignored: verify runs on one thread, search screens on "
                "every CPU in the affinity set, with the same output either way")


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


def _orbit_units(lead, tile: int):
    """Tiles of triples e1 > e2 > e3 >= 1 that meet every Frobenius orbit.

    A triple's least exponent L is a coset leader and the other two lie in cosets
    led by L or more, so each orbit's member with the least ascending tuple is
    among them; some orbits are met more than once.  Given lead[e], the leader of
    each exponent's cyclotomic coset, yields (L, cand, a, b): the triples are
    (L, cand[j], cand[i]) for the pairs (j, i) of rows a <= r < b of
    np.tril_indices(len(cand), -1).
    """
    import numpy as np
    for L in np.flatnonzero(lead == np.arange(lead.size))[1:].tolist():
        cand = np.flatnonzero(lead >= L)[1:]   # cosets led by L or more, less L
        total = cand.size * (cand.size - 1) // 2
        for a in range(0, total, tile):
            yield L, cand, a, min(a + tile, total)


def _screen(spec: FieldSpec, sample_count: int, seed: int):
    """Screen a cover of the Frobenius orbits of triples e1 > e2 > e3 >= 1 on seeded
    sample points and fully check the survivors.  Yields (triples, is_perm) per tile,
    where triples holds the surviving triples' exponents, one row each, in no order
    within a row.

    f_{2e} = (f_e)^2 and squaring is injective, so a whole orbit shares the sample
    screen's outcome and the verdict."""
    import numpy as np
    n, mult = spec.n, spec.order - 1
    exp_np, log_np = spec.exp_log_arrays()
    # lead[e] = min(e * 2^j mod 2^n - 1), the leader of e's cyclotomic coset
    e = np.arange(mult)
    lead = e.copy()
    for _ in range(n - 1):
        e = e * 2 % mult
        np.minimum(lead, e, out=lead)
    # at least 16 bits wide, since numpy sorts uint16 rows far faster than uint8 rows
    dtype = np.uint16 if n <= 16 else np.uint32

    def powers(points):
        # powers(points)[e, j] = points[j]^e for 0 < e < 2^n - 1, with 0^e = 0
        points = np.asarray(points)
        table = exp_np[np.outer(np.arange(mult), log_np[points]) % mult].astype(dtype)
        table[:, points == 0] = 0
        return table

    cols = powers(sample_points(spec, sample_count, seed))
    # f at 0 and at one point g^L per nonzero orbit; v's orbit id is lead[log v]
    # and 0's is 2^n - 1
    confirm = powers(np.append(0, exp_np[np.flatnonzero(lead == np.arange(mult))]))
    orbit_id = lead[log_np].astype(dtype)
    orbit_id[0] = mult
    # the pairs of the largest candidate list, leader 1's; every other leader's
    # pairs are a prefix
    i2, i3 = np.tril_indices(max(mult - 2, 0), -1)
    tile = SCREEN_TILE
    local = threading.local()

    def units():
        last = None
        for L, cand, a, b in _orbit_units(lead, tile):
            if cand is not last:
                last, cand_cols = cand, cols[cand]
                with_leader = cand_cols ^ cols[L]
            yield L, cand, cand_cols, with_leader, a, b

    # worker threads run unit() and call numpy only: nothing here touches a
    # FieldSpec or any other library function
    def unit(args):
        L, cand, cand_cols, with_leader, a, b = args
        work = getattr(local, "work", None)
        if work is None:
            work = local.work = np.empty((tile, cols.shape[1]), cols.dtype)
        vals = work[:b - a]
        j, i = i2[a:b], i3[a:b]
        # row r is pair (j, i) = (i2[r], i3[r]): j's row, leader included, XOR i's row
        np.take(with_leader, j, axis=0, out=vals)
        vals ^= cand_cols[i]
        keep = _distinct_rows(vals)
        tri = np.empty((int(keep.sum()), 3), np.int64)
        tri[:, 0], tri[:, 1], tri[:, 2] = cand[j[keep]], cand[i[keep]], L
        # exact, as f fixes 0 and commutes with squaring (permcheck docstring): f
        # permutes iff its values there are distinct and lie in distinct orbits
        vals = confirm[tri[:, 0]]
        vals ^= confirm[tri[:, 1]]
        vals ^= confirm[tri[:, 2]]
        rows = np.flatnonzero(_distinct_rows(vals))
        is_perm = np.zeros(tri.shape[0], dtype=bool)
        is_perm[rows[_distinct_rows(orbit_id[vals[rows]])]] = True
        return tri, is_perm

    workers = (len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity")
               else os.cpu_count() or 1)
    if workers == 1 or (mult - 2) * (mult - 3) // 2 <= tile:
        # a pool costs more than it saves when every leader fits in one tile
        yield from map(unit, units())
        return
    # imported here: only a multi-CPU search needs the pool, and loading it
    # costs every other command about 0.6 MB of resident memory
    from concurrent.futures import ThreadPoolExecutor
    pool = ThreadPoolExecutor(workers)
    try:
        pending = deque()
        for args in units():
            pending.append(pool.submit(unit, args))
            if len(pending) >= 2 * workers:
                yield pending.popleft().result()
        while pending:
            yield pending.popleft().result()
    finally:
        pool.shutdown(cancel_futures=True)


def _search_blocks(spec: FieldSpec, sample_count: int, seed: int):
    """Screen and check every triple e1 > e2 > e3 >= 1 through a cover of its
    Frobenius orbits, then yield (e1, e2, e3, is_perm) per e1 in ascending order, with
    arrays over the block's surviving pairs (e2, e3) in ascending order."""
    import numpy as np
    mult = spec.order - 1
    # a triple's rank is C(e1 - 1, 3) + C(e2 - 1, 2) + e3 - 1, so each e1 block is
    # the run of C(e1 - 1, 2) ranks from C(e1 - 1, 3), in the CSV's order
    e = np.arange(mult, dtype=np.int64)
    c3, c2 = (e - 1) * (e - 2) * (e - 3) // 6, (e - 1) * (e - 2) // 2
    # one bit per surviving triple, and the ranks of the permuting ones
    found = np.zeros((int(c3[-1] + c2[-1]) + 7) // 8, np.uint8)
    perms, held, count = [np.zeros(0, np.int64)], [], 0

    def mark():
        # notes every member of the orbits of the held triples; an orbit met
        # twice is noted twice, the same way
        tri, is_perm = (np.concatenate(part) for part in zip(*held))
        a, b, c = tri.T
        for _ in range(spec.n):
            e1, e3 = np.maximum(np.maximum(a, b), c), np.minimum(np.minimum(a, b), c)
            rank = c3[e1] + c2[a + b + c - e1 - e3] + e3 - 1
            np.bitwise_or.at(found, rank >> 3, np.left_shift(1, rank & 7).astype(np.uint8))
            perms.append(rank[is_perm])
            a, b, c = a * 2 % mult, b * 2 % mult, c * 2 % mult
        held.clear()

    # tiles are marked in groups of about SCREEN_TILE triples: few calls
    # when few survive, and about one tile's memory when all do
    with closing(_screen(spec, sample_count, seed)) as tiles:
        for tri, is_perm in tiles:
            held.append((tri, is_perm))
            count += len(tri)
            if count >= SCREEN_TILE:
                mark()
                count = 0
    if held:
        mark()
    perms = np.unique(np.concatenate(perms))
    for e1 in range(3, mult):
        start, end = int(c3[e1]), int(c3[e1] + c2[e1])
        bits = np.unpackbits(found[start >> 3:(end + 7) >> 3], bitorder="little")
        rows = np.flatnonzero(bits[start & 7:][:end - start].view(bool))
        # every permuting triple survives the screen, so its rank is in rows
        lo, hi = np.searchsorted(perms, (start, end))
        is_perm = np.zeros(rows.size, dtype=bool)
        is_perm[np.searchsorted(rows, perms[lo:hi] - start)] = True
        # row r is the pair with the largest e2 such that C(e2 - 1, 2) <= r
        e2 = np.searchsorted(c2[2:], rows, side="right") + 1
        yield e1, e2, rows - c2[e2] + 1, is_perm


def _block_text(e1, e2, e3, is_perm, num_text, tagged):
    # the CSV rows of a nonempty run of one e1 block; tagged maps (e2, e3) to a tag
    import numpy as np
    lead = f"{e1},"
    # each row's verdict and family columns, then the next row's e1 column
    ends = np.array([f"false,,,\n{lead}", f"true,,,\n{lead}"], dtype=object)[
        is_perm.view(np.uint8)]
    for (b, c), tag in tagged.items():
        for i in np.flatnonzero((e2 == b) & (e3 == c)).tolist():
            ends[i] = f"{'true' if is_perm[i] else 'false'},{tag}\n{lead}"
    ends[-1] = ends[-1][:-len(lead)]
    parts = np.empty(3 * e2.size, dtype=object)
    parts[0::3], parts[1::3], parts[2::3] = num_text[e2], num_text[e3], ends
    return lead + "".join(parts.tolist())


def _cmd_search(args) -> int:
    import numpy as np
    if args.n < 2:
        raise ValueError("--n must be >= 2")
    if args.samples < 1:
        raise ValueError("--samples must be >= 1")
    if args.n > SEARCH_DEGREE_LIMIT and not args.force:
        raise BudgetExceededError(
            f"full enumeration at n={args.n} exceeds the n <= {SEARCH_DEGREE_LIMIT} budget "
            f"(n = {SEARCH_DEGREE_LIMIT} takes about 6 s on two cores and each further "
            f"degree at least 8 times as long; no row is written until the whole search "
            f"ends; n = 11 took about 125 s and 280 MB peak RSS, and n = 12 needs about "
            f"17 min and 1.7 GB; rerun with --force)")
    spec = _parse_modulus(args.modulus) if args.modulus else default_spec(args.n)
    if spec.n != args.n:
        raise DegreeMismatchError(f"modulus has degree {spec.n}, --n is {args.n}")
    tagged = {}
    for (e1, e2, e3), tag in _family_tags(args.n, spec).items():
        tagged.setdefault(e1, {})[e2, e3] = tag
    spec.build_tables()   # refuses n > 20 before the output file is opened
    try:
        out = open(args.out, "w", newline="") if args.out else nullcontext(sys.stdout)
    except OSError as exc:
        raise ValueError(f"cannot write {args.out}: {exc}") from None
    with out as stream:
        blocks = _search_blocks(spec, args.samples, args.seed)
        num_text = np.array([f"{e}," for e in range(spec.order - 1)], dtype=object)
        with closing(blocks):
            stream.write(f"# permtri search n={args.n} modulus=0x{spec.modulus:x} "
                         f"seed={args.seed} samples={args.samples}\n"
                         "e1,e2,e3,is_permutation,family,k,m\n")
            for e1, e2, e3, is_perm in blocks:
                # in runs of SCREEN_TILE rows, so the text in flight stays small
                for a in range(0, e2.size, SCREEN_TILE):
                    b = a + SCREEN_TILE
                    stream.write(_block_text(e1, e2[a:b], e3[a:b], is_perm[a:b], num_text,
                                             tagged.get(e1, {})))
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
