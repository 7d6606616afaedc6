import functools
import hashlib
import itertools
import json
import resource
import subprocess
import sys
import threading
import tracemalloc

import numpy as np
import pytest

from permtri import cli, permcheck
from permtri.cli import main
from permtri.families import instantiate, value_table
from permtri.field import FieldSpec, default_spec, irreducibles
from permtri.permcheck import check, sample_points
from oracles import (_naive_powers, e1_block_search_csv, frobenius_orbit_representatives,
                     naive_search_csv, naive_verdict)


def run(capsys, *args):
    rc = main(list(args))
    captured = capsys.readouterr()
    return rc, captured.out, captured.err


class TestVerify:
    def test_valid_instance_exit0(self, capsys):
        rc, out, _ = run(capsys, "verify", "--family", "F1", "--k", "3")
        assert rc == 0
        inst_line, report_line = out.splitlines()
        inst = json.loads(inst_line)
        report = json.loads(report_line)
        assert inst["n"] == 9 and inst["id"] == "F1"
        assert report["is_permutation"] is True
        assert report["witness"] is None
        assert sum(length * count for length, count in report["cycle_type"]) == 512

    def test_excluded_k_exit2_cites_hypothesis(self, capsys):
        rc, _, err = run(capsys, "verify", "--family", "F1", "--k", "2")
        assert rc == 2
        assert "mod 3" in err

    def test_modulus_override_same_verdict(self, capsys):
        rc1, out1, _ = run(capsys, "verify", "--family", "F6", "--m", "2", "--k", "3")
        rc2, out2, _ = run(capsys, "verify", "--family", "F6", "--m", "2", "--k", "3",
                           "--modulus", "0x11D")
        assert rc1 == rc2 == 0
        rep1 = json.loads(out1.splitlines()[1])
        rep2 = json.loads(out2.splitlines()[1])
        assert rep1["is_permutation"] == rep2["is_permutation"] is True
        # value tables differ across representations even though the verdict agrees
        assert json.loads(out1.splitlines()[0])["modulus"] == "0x11b"
        assert json.loads(out2.splitlines()[0])["modulus"] == "0x11d"

    def test_force_params_experiment_mode(self, capsys):
        rc, out, _ = run(capsys, "verify", "--family", "F1", "--k", "2",
                         "--force-params")
        assert rc == 0    # data only, no pass/fail semantics
        report = json.loads(out.splitlines()[1])
        assert report["is_permutation"] is False
        assert report["missing_count"] == 36

    def test_force_params_rejects_m_outside_f6(self, capsys):
        for family in ("F1", "F2", "F3", "F4", "F5"):
            for command in (["verify"], ["invert", "--a", "0x1"]):
                rc, out, err = run(capsys, *command, "--family", family, "--k", "1",
                                   "--m", "3", "--force-params")
                assert (rc, out) == (2, "") and "takes no parameter m" in err, (family, command)

    def test_budget_guard_exit3(self, capsys):
        rc, _, err = run(capsys, "verify", "--family", "F6", "--m", "8", "--k", "1")
        assert rc == 3 and "budget" in err

    def test_threads_identical_output(self, capsys):
        rc1, out1, _ = run(capsys, "verify", "--family", "F4", "--k", "4")
        rc2, out2, _ = run(capsys, "verify", "--family", "F4", "--k", "4",
                           "--threads", "8")
        assert rc1 == rc2 == 0 and out1 == out2

    def test_bad_modulus_exit2(self, capsys):
        rc, _, err = run(capsys, "verify", "--family", "F1", "--k", "1",
                         "--modulus", "0xF")   # reducible
        assert rc == 2
        rc, _, err = run(capsys, "verify", "--family", "F1", "--k", "1",
                         "--modulus", "0x11B")  # wrong degree for n=3
        assert rc == 2
        rc, _, err = run(capsys, "verify", "--family", "F1", "--k", "1",
                         "--modulus", "zz")
        assert rc == 2 and "not valid hex" in err

    @pytest.mark.parametrize("argv", [
        ["verify", "--family", "F4", "--k", "3", "--modulus=-0x11b"],
        ["search", "--n", "8", "--modulus=-0x11b"],
    ], ids=["verify", "search"])
    def test_negative_modulus_exit2_without_hanging(self, argv, src_env):
        proc = subprocess.run([sys.executable, "-m", "permtri.cli", *argv], env=src_env,
                              capture_output=True, text=True, timeout=60)
        assert proc.returncode == 2
        assert "nonnegative" in proc.stderr


class TestInvert:
    def test_f1_worked_example(self, capsys):
        rc, out, _ = run(capsys, "invert", "--family", "F1", "--k", "1", "--a", "0x2")
        assert rc == 0 and out.strip() == "0x5"

    def test_f3_fixes_one(self, capsys):
        rc, out, _ = run(capsys, "invert", "--family", "F3", "--k", "1", "--a", "0x1")
        assert rc == 0 and out.strip() == "0x1"

    def test_f5_zero(self, capsys):
        rc, out, _ = run(capsys, "invert", "--family", "F5", "--k", "2", "--a", "0x0")
        assert rc == 0 and out.strip() == "0x0"

    def test_trace_output(self, capsys):
        rc, out, _ = run(capsys, "invert", "--family", "F1", "--k", "1",
                         "--a", "0x2", "--trace")
        assert rc == 0
        lines = out.splitlines()
        assert lines[0] == "0x5"
        trace = json.loads(lines[1])
        assert trace["chosen"] == "0x5"
        assert trace["epsilon"] == "0x0"
        assert trace["candidates"] == ["0x5"]

    def test_bad_inputs_exit2(self, capsys):
        rc, _, _ = run(capsys, "invert", "--family", "F1", "--k", "1", "--a", "zz")
        assert rc == 2
        rc, _, _ = run(capsys, "invert", "--family", "F1", "--k", "1", "--a", "0x9")
        assert rc == 2    # out of range for n=3

    def test_unreachable_value_exit4_under_forced_params(self, capsys):
        # F1 with excluded k=2 is not onto; pick a value outside the image
        inst = instantiate("F1", k=2, enforce_hypotheses=False)
        values = set(int(v) for v in value_table(inst))
        missing = min(set(range(inst.spec.order)) - values)
        rc, _, err = run(capsys, "invert", "--family", "F1", "--k", "2",
                         "--force-params", "--a", hex(missing))
        assert rc == 4 and "no candidate" in err

    def test_zeta1_zero_exit4_names_excluded_k(self, capsys):
        # zeta1 = 0 on 9 of the 63 nonzero a at the excluded k = 2 (n = 6)
        rc, out, err = run(capsys, "invert", "--family", "F2", "--k", "2",
                           "--force-params", "--a", "0xf")
        assert (rc, out) == (4, "")
        assert err == ("error: zeta1 = 0 at a=0xf: reachable only for the excluded"
                       " k = 2 (mod 3), here k=2\n")


class TestSearch:
    def test_n6_has_no_family_rows_and_is_deterministic(self, capsys, tmp_path):
        out_a = tmp_path / "a.csv"
        out_b = tmp_path / "b.csv"
        rc, _, _ = run(capsys, "search", "--n", "6", "--out", str(out_a))
        assert rc == 0
        rc, _, _ = run(capsys, "search", "--n", "6", "--out", str(out_b),
                       "--threads", "4")
        assert rc == 0
        assert out_a.read_bytes() == out_b.read_bytes()
        lines = out_a.read_text().splitlines()
        assert lines[0].startswith("# permtri search n=6")
        assert "seed=1" in lines[0]
        assert lines[1] == "e1,e2,e3,is_permutation,family,k,m"
        for line in lines[2:]:
            e1, e2, e3, perm, fam, k, m = line.split(",")
            assert int(e1) > int(e2) > int(e3) >= 1
            assert perm in ("true", "false")
            assert fam == k == m == ""   # no family admits n = 6

    def test_stdout_matches_file(self, capsys, tmp_path):
        rc, out, _ = run(capsys, "search", "--n", "4")
        assert rc == 0
        path = tmp_path / "s.csv"
        rc, _, _ = run(capsys, "search", "--n", "4", "--out", str(path))
        assert rc == 0
        assert out == path.read_text()

    def test_custom_seed_recorded(self, capsys):
        rc, out, _ = run(capsys, "search", "--n", "4", "--seed", "77",
                         "--samples", "10")
        assert rc == 0
        assert "seed=77 samples=10" in out.splitlines()[0]

    def test_budget_guard(self, capsys):
        rc, _, err = run(capsys, "search", "--n", "15")
        assert rc == 3 and "budget" in err
        rc, out, err = run(capsys, "search", "--n", "1")
        assert rc == 2 and ">= 2" in err and out == ""
        rc, out, err = run(capsys, "search", "--n", "9", "--modulus", "0x11B")
        assert rc == 2 and "degree 8" in err and out == ""

    def test_force_above_table_limit_exits_2_before_allocating(self, src_env):
        # build_tables refuses n > 20 before the output file is opened and
        # before any per-exponent array is built; under a 2 GiB address-space
        # limit a search set up first ends in MemoryError (its bit map alone
        # would be about 1.9e17 bytes at n = 21)
        def limit():
            resource.setrlimit(resource.RLIMIT_AS, (2 << 30, 2 << 30))
        proc = subprocess.run([sys.executable, "-m", "permtri.cli", "search", "--n", "21",
                               "--force"], env=src_env, capture_output=True, text=True,
                              timeout=60, preexec_fn=limit)
        assert proc.returncode == 2 and proc.stdout == ""
        assert "log tables limited to n <= 20" in proc.stderr

    def test_budget_guard_n11(self, capsys):
        rc, out, err = run(capsys, "search", "--n", "11")
        assert rc == 3 and "budget" in err and out == ""

    def test_family_tagged_rows_reinstantiate(self, capsys):
        # a family tag on a row must reproduce that row's reduced triple
        rc, out, _ = run(capsys, "search", "--n", "8")
        assert rc == 0
        tagged = 0
        for line in out.splitlines()[2:]:
            e1, e2, e3, perm, fam, k, m = line.split(",")
            if not fam:
                continue
            tagged += 1
            inst = instantiate(fam, k=int(k), m=int(m) if m else None)
            triple = tuple(sorted(inst.reduced_exponents(), reverse=True))
            assert triple == (int(e1), int(e2), int(e3))
            assert perm == "true"
        assert tagged == 6   # F4 k=3, F5 k=3, F6 m=2 k in {1,3,5,7}

    def test_search_rows_verified_against_check(self, capsys):
        # every row's verdict must match an independent exhaustive check
        rc, out, _ = run(capsys, "search", "--n", "5")
        assert rc == 0
        spec = default_spec(5)
        spec.build_tables()
        rows = [line.split(",") for line in out.splitlines()[2:]]
        assert rows
        for e1, e2, e3, perm, *_ in rows[:200]:
            f = lambda e: e ** int(e1) + e ** int(e2) + e ** int(e3)
            assert check(f, spec).is_permutation == (perm == "true")

    def test_n8_verdicts_match_naive_check(self, capsys):
        rc, out, _ = run(capsys, "search", "--n", "8")
        assert rc == 0
        spec = default_spec(8)
        rows = [line.split(",") for line in out.splitlines()[2:]]
        assert any(perm == "true" for _, _, _, perm, *_ in rows)
        for e1, e2, e3, perm, *_ in rows:
            assert naive_verdict(spec, int(e1), int(e2), int(e3)) == (perm == "true")

    @pytest.mark.parametrize("tile", [None, 5, 3], ids=["default", "small", "tiled"])
    @pytest.mark.parametrize("n", range(2, 7))
    def test_csv_matches_naive_oracle(self, capsys, monkeypatch, n, tile):
        # "small" confirms in many small tiles; "tiled" screens each leader in
        # many tiles; both on a pool of two workers
        if tile is not None:
            monkeypatch.setattr(cli, "SCREEN_TILE", tile)
            force_pool(monkeypatch)
        # samples >= 2^n draw the whole field, 0 included
        for seed in (0, 1, 7):
            for samples in (1, 3, 64, 1 << n, 300):
                rc, out, _ = run(capsys, "search", "--n", str(n), "--seed", str(seed),
                                 "--samples", str(samples))
                assert rc == 0
                assert out == naive_search_csv(default_spec(n), samples, seed)

    @pytest.mark.parametrize("pooled", [False, True], ids=["inline", "pool"])
    @pytest.mark.parametrize("choice", [0, 1], ids=["default", "second"])
    @pytest.mark.parametrize("n", range(3, 9))
    def test_csv_matches_e1_block_oracle(self, capsys, monkeypatch, n, choice, pooled):
        # the former screen decided every triple of each e1 block on its own;
        # "pool" also cuts the screened triples into 500-row tiles
        modulus = list(itertools.islice(irreducibles(n), 2))[choice]
        if pooled:
            force_pool(monkeypatch)
            monkeypatch.setattr(cli, "SCREEN_TILE", 500)
        else:
            monkeypatch.setattr(cli.os, "sched_getaffinity", lambda pid: {0}, raising=False)
        for seed in (0, 1, 7):
            for samples in (1, 3, 64, 1 << n):
                rc, out, _ = run(capsys, "search", "--n", str(n), "--modulus", hex(modulus),
                                 "--seed", str(seed), "--samples", str(samples))
                assert rc == 0
                assert digest(out) == e1_block_digest(n, modulus, samples, seed), \
                    (seed, samples)

    def test_unwritable_out_exits_2_before_the_search(self, capsys, monkeypatch, tmp_path):
        def no_search(*args):
            raise AssertionError("the search was set up")

        monkeypatch.setattr(cli, "_search_blocks", no_search)
        path = tmp_path / "missing" / "x.csv"
        rc, out, err = run(capsys, "search", "--n", "5", "--out", str(path))
        assert (rc, out) == (2, "")
        assert err.startswith("error: ") and str(path) in err and "\n" == err[-1]

    def test_write_error_is_not_a_parameter_error(self, monkeypatch):
        # only an --out path that cannot be opened exits 2; a write that fails
        # part-way (a closed pipe, a full disk) is not a parameter error
        class ClosedPipe:
            def write(self, text):
                raise BrokenPipeError(32, "Broken pipe")

        monkeypatch.setattr(sys, "stdout", ClosedPipe())
        with pytest.raises(BrokenPipeError):
            main(["search", "--n", "5"])

    def test_bad_samples_exit2_without_creating_out(self, capsys, tmp_path):
        path = tmp_path / "x.csv"
        rc, out, err = run(capsys, "search", "--n", "5", "--samples", "0", "--out", str(path))
        assert (rc, out, err) == (2, "", "error: --samples must be >= 1\n")
        assert not path.exists()

    def test_survivor_store_memory(self, monkeypatch, tmp_path):
        # with one sample every triple survives the screen; the survivors are
        # kept one bit per triple, so the peak may exceed the 64-sample run's
        # by that map and one confirm step's values at 0 and the orbit points,
        # not by a store of C(254, 3) survivors.  One CPU: the peak does not
        # depend on timing.
        monkeypatch.setattr(cli.os, "sched_getaffinity", lambda pid: {0}, raising=False)
        default_spec(8).build_tables()
        peaks = {}
        for samples in (64, 1):
            tracemalloc.start()
            try:
                assert main(["search", "--n", "8", "--samples", str(samples),
                             "--out", str(tmp_path / f"s{samples}.csv")]) == 0
                peaks[samples] = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
        lines = (tmp_path / "s1.csv").read_text().count("\n")
        assert lines == 2 + 254 * 253 * 252 // 6
        bit_map = 254 * 253 * 252 // 6 // 8
        # 0 and one point of each of the 35 Frobenius orbits of F_256^*
        points = 1 + int(np.count_nonzero(coset_leaders(8) == np.arange(255)))
        confirm = 2 * cli.SCREEN_TILE * points * 2   # two uint16 blocks
        assert peaks[1] <= peaks[64] + bit_map + confirm, peaks

    @pytest.mark.parametrize("seed,digest", [
        (0, "caf8093cdb2cf0435782ebc0feb8e4d1f5acdcb17beda78c91ed4b5203502f93"),
        (1, "2a93b4bea6ab1827801218acf27052e5c01c3a58758c4e9566474b260b5ae529"),
    ])
    def test_n9_output_pinned(self, capsys, seed, digest):
        # the benchmark's search-n9 output, as first written by the
        # single-threaded search
        rc, out, _ = run(capsys, "search", "--n", "9", "--seed", str(seed))
        assert rc == 0
        assert hashlib.sha256(out.encode()).hexdigest() == digest


def digest(text):
    return hashlib.sha256(text.encode()).hexdigest()


@functools.lru_cache(maxsize=None)
def e1_block_digest(n, modulus, samples, seed):
    return digest(e1_block_search_csv(FieldSpec(n, modulus), samples, seed))


def coset_leaders(n):
    """lead[e] = min(e * 2^j mod 2^n - 1), the leader of e's cyclotomic coset."""
    mult = (1 << n) - 1
    return np.array([min(e * (1 << j) % mult for j in range(n)) for e in range(mult)])


def tile_triples(n, tile=cli.SCREEN_TILE):
    """(L, x, y) arrays of the triples (x, y, L) of each tile _orbit_units yields."""
    pairs = None
    for L, cand, a, b in cli._orbit_units(coset_leaders(n), tile):
        if pairs is None or pairs[0] is not cand:
            pairs = cand, *np.tril_indices(cand.size, -1)
        yield L, cand[pairs[1][a:b]], cand[pairs[2][a:b]]


class TestFrobeniusOrbits:
    @pytest.mark.parametrize("n", range(2, 10))
    def test_tiles_cover_triples(self, n):
        # the tiles meet every orbit of the C(2^n - 2, 3) triples, some of
        # them more than once: each tile triple is strictly descending, its
        # least exponent leads a cyclotomic coset and the other two lie in
        # cosets led by no less, and the tile triples' orbits cover every triple
        mult = (1 << n) - 1
        total = (mult - 1) * (mult - 2) * (mult - 3) // 6
        lead = coset_leaders(n)
        covered = np.zeros(total, dtype=bool)
        count = 0
        met = set()
        for L, x, y in tile_triples(n):
            assert lead[L] == L
            assert (x > y).all() and (y > L).all()
            assert (lead[x] >= L).all() and (lead[y] >= L).all()
            orbit = np.stack([np.full_like(x, L), y, x])
            for _ in range(n):
                e3, e2, e1 = np.sort(orbit, axis=0)
                covered[(e1 - 1) * (e1 - 2) * (e1 - 3) // 6
                        + (e2 - 1) * (e2 - 2) // 2 + e3 - 1] = True
                orbit = orbit * 2 % mult
            count += x.size
            if n <= 7:
                met.update(zip([L] * x.size, y.tolist(), x.tolist()))
        assert covered.all()
        if n <= 7:
            assert frobenius_orbit_representatives(n) <= met
        if n == 9:
            assert count == 2518870   # 2,442,112 orbits

    @pytest.mark.parametrize("n", range(3, 7))
    def test_doubling_keeps_screen_and_verdict(self, n):
        # f_{2e} = f_e^2 and squaring is injective: a triple and its doubled
        # triple collide on the same sample points and permute together
        spec = default_spec(n)
        mult = spec.order - 1
        power = _naive_powers(spec)
        samples = [sample_points(spec, count, seed) for count, seed in ((3, 0), (5, 7), (64, 1))]

        def passes(triple, points):
            e1, e2, e3 = triple
            return len({power[e1][x] ^ power[e2][x] ^ power[e3][x] for x in points}) == len(points)

        for triple in itertools.combinations(range(mult - 1, 0, -1), 3):
            doubled = tuple(sorted((2 * e % mult for e in triple), reverse=True))
            for points in samples:
                assert passes(triple, points) == passes(doubled, points), (triple, points)
            assert naive_verdict(spec, *triple) == naive_verdict(spec, *doubled), triple


def force_pool(monkeypatch):
    # the search sizes its pool from the process's CPU affinity set: two workers
    monkeypatch.setattr(cli.os, "sched_getaffinity", lambda pid: {0, 1}, raising=False)


def within(seconds, fn):
    """fn() on a helper thread; fails if it has not returned after `seconds`,
    and re-raises what it raised."""
    box = {}

    def body():
        try:
            box["value"] = fn()
        except BaseException as exc:   # handed back to the caller below
            box["error"] = exc

    helper = threading.Thread(target=body, daemon=True)
    helper.start()
    helper.join(seconds)
    assert not helper.is_alive(), f"still running after {seconds} s"
    if "error" in box:
        raise box["error"]
    return box.get("value")


class TestSearchPool:
    def test_closing_early_joins_the_pool(self, monkeypatch):
        force_pool(monkeypatch)
        baseline = threading.active_count()

        def first_tile():
            tiles = cli._screen(default_spec(8), 64, 1)
            triples, is_perm = next(tiles)
            assert threading.active_count() > baseline + 1   # the pool is running
            tiles.close()
            return set(triples[:, 2].tolist())

        assert within(60, first_tile) == {1}   # leader 1's first tile
        assert threading.active_count() == baseline

    def test_worker_error_surfaces_and_joins_the_pool(self, capsys, monkeypatch):
        force_pool(monkeypatch)
        distinct_rows = cli._distinct_rows
        calls = []
        lock = threading.Lock()

        def failing(vals):
            with lock:
                calls.append(threading.current_thread())
                late = len(calls) > 40
            if late and threading.current_thread() is not threading.main_thread():
                raise RuntimeError("worker failed")
            return distinct_rows(vals)

        monkeypatch.setattr(cli, "_distinct_rows", failing)
        baseline = threading.active_count()
        with pytest.raises(RuntimeError, match="worker failed"):
            within(60, lambda: main(["search", "--n", "8"]))
        assert threading.active_count() == baseline

    @pytest.mark.parametrize("cpus,pooled", [(2, True), (None, False)])
    def test_worker_count_without_affinity(self, monkeypatch, cpus, pooled):
        # without sched_getaffinity the pool is sized by os.cpu_count(), and
        # an unknown count (None) means one worker, so no pool
        monkeypatch.delattr(cli.os, "sched_getaffinity", raising=False)
        monkeypatch.setattr(cli.os, "cpu_count", lambda: cpus)
        baseline = threading.active_count()

        def first_tile():
            tiles = cli._screen(default_spec(8), 64, 1)
            triples, _ = next(tiles)
            running = threading.active_count() > baseline + 1   # + 1: this helper
            tiles.close()
            return set(triples[:, 2].tolist()), running

        assert within(60, first_tile) == ({1}, pooled)
        assert threading.active_count() == baseline

    def test_workers_stay_off_the_library(self, capsys, monkeypatch):
        force_pool(monkeypatch)
        seen = []

        def recording(original):
            def wrapper(*args, **kwargs):
                seen.append((original.__name__, threading.current_thread()))
                return original(*args, **kwargs)
            return wrapper

        for name in ("mul", "pow", "frobenius", "inv"):
            monkeypatch.setattr(FieldSpec, name, recording(getattr(FieldSpec, name)))
        sampler = recording(permcheck.sample_points)
        monkeypatch.setattr(permcheck, "sample_points", sampler)
        monkeypatch.setattr(cli, "sample_points", sampler)
        workers = set()
        distinct_rows = cli._distinct_rows

        def noting(vals):
            workers.add(threading.current_thread())
            return distinct_rows(vals)

        monkeypatch.setattr(cli, "_distinct_rows", noting)
        rc, out, _ = run(capsys, "search", "--n", "8")
        assert rc == 0
        assert threading.main_thread() not in workers   # the screen ran on the pool
        assert ("sample_points", threading.main_thread()) in seen
        assert all(thread is threading.main_thread() for _, thread in seen)


class TestGcdSuite:
    def test_all_true_exit0(self, capsys):
        rc, out, _ = run(capsys, "gcd-suite", "--n-max", "32")
        assert rc == 0
        lines = out.splitlines()
        assert lines and all(line.endswith("true") for line in lines)
        assert any("F1 k=4" in line and "gcd(2^(2k+1)-4" in line for line in lines)
        assert any("F6 k=11 m=3" in line and "gcd(d, 2^n-1)" in line for line in lines)

    def test_json_mode(self, capsys):
        rc, out, _ = run(capsys, "gcd-suite", "--n-max", "16", "--json")
        assert rc == 0
        rows = json.loads(out)
        assert all(r["holds"] for r in rows)
        assert {r["family"] for r in rows} == {"F1", "F2", "F4", "F6"}

    def test_n_max_guard(self, capsys):
        rc, _, _ = run(capsys, "gcd-suite", "--n-max", "65")
        assert rc == 2

    def test_n_max_range_message(self, capsys):
        for n_max in ("1", "65"):
            rc, out, err = run(capsys, "gcd-suite", "--n-max", n_max)
            assert (rc, out, err) == (2, "", "error: --n-max must be in [2, 64]\n")


class TestFamiliesCmd:
    def test_lists_all_six(self, capsys):
        rc, out, _ = run(capsys, "families", "--json")
        assert rc == 0
        entries = json.loads(out)
        assert [e["id"] for e in entries] == ["F1", "F2", "F3", "F4", "F5", "F6"]

    def test_enumeration(self, capsys):
        rc, out, _ = run(capsys, "families", "--n-max", "8", "--json")
        entries = json.loads(out)
        f6 = next(e for e in entries if e["id"] == "F6")
        assert f6["params"] == [{"n": 4, "k": 1, "m": 1}, {"n": 4, "k": 3, "m": 1},
                                {"n": 8, "k": 1, "m": 2}, {"n": 8, "k": 3, "m": 2},
                                {"n": 8, "k": 5, "m": 2}, {"n": 8, "k": 7, "m": 2}]
        rc, out, _ = run(capsys, "families", "--n-max", "8")
        lines = out.splitlines()
        assert rc == 0 and len(lines) == 6 + 16
        assert lines[-7:] == [
            "F6: x^d + x^(2^2m) + x, d = sum(2^ik, i=0..2m)   "
            "[n = 4m, k odd, 1 <= k <= n-1, gcd(m, k) = 1]",
            "    n=4: k=1, m=1", "    n=4: k=3, m=1", "    n=8: k=1, m=2",
            "    n=8: k=3, m=2", "    n=8: k=5, m=2", "    n=8: k=7, m=2"]
        assert lines[:2] == ["F1: x^(2^2k+2^k-1) + x^(2^2k) + x   "
                             "[n = 3k, k >= 1, k != 2 (mod 3)]", "    n=3: k=1"]

    @pytest.mark.parametrize("n_max", ["0", "1", "65"])
    def test_n_max_out_of_range_exit2(self, capsys, n_max):
        # --n-max has gcd-suite's range: unbounded, a large value filled memory
        for mode in ((), ("--json",)):
            rc, out, err = run(capsys, "families", "--n-max", n_max, *mode)
            assert (rc, out, err) == (2, "", "error: --n-max must be in [2, 64]\n")

    def test_n_max_64_output_pinned(self, capsys):
        rc, out, _ = run(capsys, "families", "--n-max", "64", "--json")
        assert rc == 0
        assert hashlib.sha256(out.encode()).hexdigest() == \
            "68f7037bc5ea6002c612336b597ae3619ac212d6faefec54bd8c81ad975d905e"


class TestConsoleScript:
    def test_installed_entry_point(self, src_env):
        proc = subprocess.run(
            [sys.executable, "-m", "permtri.cli", "invert",
             "--family", "F1", "--k", "1", "--a", "0x2"],
            env=src_env, capture_output=True, text=True, timeout=120)
        assert proc.returncode == 0
        assert proc.stdout.strip() == "0x5"

    def test_unknown_family_exit2(self, src_env):
        proc = subprocess.run(
            [sys.executable, "-m", "permtri.cli", "verify",
             "--family", "F9", "--k", "1"],
            env=src_env, capture_output=True, text=True, timeout=120)
        assert proc.returncode == 2
