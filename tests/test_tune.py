"""Tests for the repro.tune subsystem: space, cache, executor, CLI, and
the cache-delegating kernel selection in the registry."""

from __future__ import annotations

import dataclasses
import json
import struct
import tempfile
from types import SimpleNamespace

import parallel_oracle
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import tune
from repro.eval.harness import exo_parallel_breakdown, machine_context
from repro.isa.machine import CARMEL, RVV_EDGE_VLEN128
from repro.isa.targets import ISA_TARGETS, machine_fingerprint, target
from repro.tune.cache import (
    TuneCache,
    TunedBreakdown,
    cache_key,
    record_from_breakdown,
)
from repro.tune.executor import run_jobs
from repro.tune.space import (
    TuneJob,
    candidate_tiles,
    enumerate_space,
    enumerate_tiles,
    fallback_tile,
    problem_set,
)
from repro.ukernel.registry import select_kernel_for

FAMILY4 = target("neon").family  # the paper's lanes=4 grid, (8, 12)...(1, 4)


class TestSpace:
    def test_tiles_respect_problem_bounds(self):
        tiles = enumerate_tiles(FAMILY4, 6, 50)
        assert tiles
        assert all(mr <= 6 and nr <= 50 for mr, nr in tiles)

    def test_deterministic_order_largest_area_first(self):
        tiles = enumerate_tiles(FAMILY4, 1024, 1024)
        assert tiles == enumerate_tiles(FAMILY4, 1024, 1024)
        areas = [mr * nr for mr, nr in tiles]
        assert areas == sorted(areas, reverse=True)
        assert tiles[0] == (8, 12)

    def test_vla_adds_clamped_tail_variants(self):
        packed = enumerate_tiles(FAMILY4, 6, 50)
        vla = enumerate_tiles(FAMILY4, 6, 50, vla=True)
        assert (6, 12) not in packed
        assert (6, 12) in vla
        assert set(packed) <= set(vla)

    def test_fallback_respects_bounds_packed(self):
        assert fallback_tile(FAMILY4, 3, 2) == (1, 4)
        assert fallback_tile(FAMILY4, 6, 2) == (4, 4)

    def test_fallback_is_exact_on_vla(self):
        assert fallback_tile(FAMILY4, 3, 2, vla=True) == (3, 2)
        assert fallback_tile(FAMILY4, 100, 2, vla=True) == (8, 2)

    def test_candidate_tiles_never_empty(self):
        assert candidate_tiles(FAMILY4, 2, 2) == ((1, 4),)

    def test_enumerate_space_is_reproducible(self):
        problems = ((96, 96, 96), (64, 48, 64))
        jobs = enumerate_space(("rvv128", "neon"), problems)
        assert jobs == enumerate_space(("rvv128", "neon"), problems)
        assert {j.isa for j in jobs} == {"neon", "rvv128"}

    def test_enumerate_space_all_covers_registry(self):
        from repro.isa.targets import ISA_TARGETS

        jobs = enumerate_space(("all",), ((256, 256, 256),))
        assert {j.isa for j in jobs} == set(ISA_TARGETS)

    def test_problem_set_specs(self):
        assert problem_set("square") == tune.DEFAULT_SQUARES
        assert (12544, 64, 147) in problem_set("dnn")
        assert problem_set("64x48x64,8x8x8") == ((64, 48, 64), (8, 8, 8))
        with pytest.raises(ValueError):
            problem_set("64x48")


def _record(total=111.0, **overrides):
    record = {
        "compute_cycles": 100.0,
        "pack_cycles": 10.0,
        "c_stall_cycles": 1.0,
        "dram_limit_cycles": 50.0,
        "flops": 2 * 64 * 48 * 64,
        "freq_ghz": 2.3,
        "total_cycles": total,
        "gflops": 8.1,
    }
    record.update(overrides)
    return record


class TestCache:
    def test_key_is_stable_and_content_addressed(self):
        k1 = cache_key(CARMEL, (8, 12), (256, 256, 256))
        k2 = cache_key(CARMEL, (8, 12), (256, 256, 256))
        assert k1 == k2 and hash(k1) == hash(k2)
        assert cache_key(CARMEL, (8, 8), (256, 256, 256)) != k1
        assert cache_key(CARMEL, (8, 12), (256, 256, 512)) != k1
        assert cache_key(CARMEL, (8, 12), (256, 256, 256), threads=2) != k1

    def test_machine_parameters_invalidate_the_key(self):
        base = cache_key(CARMEL, (8, 12), (256, 256, 256))
        faster = dataclasses.replace(CARMEL, freq_ghz=2.4)
        assert machine_fingerprint(faster) != machine_fingerprint(CARMEL)
        assert cache_key(faster, (8, 12), (256, 256, 256)) != base

    def test_fingerprint_is_memoized_by_value(self):
        copy = dataclasses.replace(CARMEL)
        assert copy is not CARMEL
        assert machine_fingerprint(copy) is machine_fingerprint(CARMEL)

    def test_target_cache_key_fields(self):
        fields = target("rvv128").cache_key_fields()
        assert fields["isa"] == "rvv128"
        assert fields["vlen"] == 128
        assert fields["machine"] == machine_fingerprint(RVV_EDGE_VLEN128)

    def test_roundtrip_and_miss_counting(self, tmp_path):
        cache = TuneCache(tmp_path)
        key = cache_key(CARMEL, (8, 12), (64, 48, 64))
        assert cache.get(key) is None
        record = _record()
        cache.put([(key, record)])
        assert cache.get(key) == record
        assert (cache.hits, cache.misses) == (1, 1)
        assert len(cache) == 1
        assert cache.log_path("neon").is_file()

    def test_corrupt_entry_reads_as_miss(self, tmp_path):
        key = cache_key(CARMEL, (8, 12), (64, 48, 64))
        TuneCache(tmp_path).put([(key, _record())])
        TuneCache(tmp_path).log_path("neon").write_text("{not json\n")
        assert TuneCache(tmp_path).get(key) is None

    def test_corrupt_entry_counts_as_invalidation(self, tmp_path):
        key = cache_key(CARMEL, (8, 12), (64, 48, 64))
        incomplete = {"key": key.payload(), "record": {"total_cycles": 1.0}}
        TuneCache(tmp_path).log_path("neon").write_text(
            json.dumps(incomplete) + "\n{not json\n"
        )
        cache = TuneCache(tmp_path)
        assert cache.get(key) is None
        assert cache.invalidations == 2
        assert cache.stats() == {
            "cache_hits": 0,
            "cache_misses": 1,
            "cache_invalidations": 2,
        }
        assert "invalidations=2" in repr(cache)

    def test_put_rejects_an_incomplete_record(self, tmp_path):
        cache = TuneCache(tmp_path)
        key = cache_key(CARMEL, (8, 12), (64, 48, 64))
        with pytest.raises(ValueError, match="incomplete"):
            cache.put([(key, {"total_cycles": 1.0})])
        assert len(cache) == 0

    def test_torn_last_line_invalidates_only_itself(self, tmp_path):
        keys = [cache_key(CARMEL, (8, 12), (64, 48, k)) for k in (8, 16, 24)]
        TuneCache(tmp_path).put(
            (key, _record(total=float(i))) for i, key in enumerate(keys)
        )
        log = TuneCache(tmp_path).log_path("neon")
        data = log.read_bytes()
        log.write_bytes(data[: len(data) - 20])  # an interrupted append
        cache = TuneCache(tmp_path)
        assert [cache.get(key) for key in keys[:2]] == [
            _record(total=0.0),
            _record(total=1.0),
        ]
        assert cache.get(keys[2]) is None
        assert cache.invalidations == 1
        # the next append starts on a fresh line: the torn line stays
        # one bad line and the re-priced entry reads back
        cache.put([(keys[2], _record(total=2.0))])
        fresh = TuneCache(tmp_path)
        assert fresh.get(keys[2]) == _record(total=2.0)
        assert fresh.invalidations == 1
        assert len(fresh) == 3

    def test_duplicate_key_later_line_wins(self, tmp_path):
        key = cache_key(CARMEL, (8, 12), (64, 48, 64))
        cache = TuneCache(tmp_path)
        cache.put([(key, _record(total=1.0))])
        cache.put([(key, _record(total=2.0))])
        assert cache.get(key) == _record(total=2.0)
        fresh = TuneCache(tmp_path)
        assert fresh.get(key) == _record(total=2.0)
        assert len(fresh) == 1
        assert len(cache.log_path("neon").read_text().splitlines()) == 2

    @settings(max_examples=40, deadline=None)
    @given(
        st.lists(
            st.tuples(
                st.lists(
                    st.floats(allow_nan=False), min_size=7, max_size=7
                ),
                st.integers(min_value=0, max_value=2**62),
            ),
            min_size=1,
            max_size=6,
        )
    )
    def test_fresh_instance_reads_records_bit_for_bit(self, components):
        fields = sorted(TuneCache.RECORD_FIELDS - {"flops"}) + ["gflops"]
        entries = [
            (
                cache_key(CARMEL, (8, 12), (64, 48, k + 1)),
                dict(zip(fields, floats), flops=flops),
            )
            for k, (floats, flops) in enumerate(components)
        ]
        with tempfile.TemporaryDirectory() as root:
            TuneCache(root).put(entries)
            fresh = TuneCache(root)
            for key, record in entries:
                got = fresh.get(key)
                assert got.keys() == record.keys()
                for name, value in record.items():
                    assert type(got[name]) is type(value)
                    if isinstance(value, float):
                        assert struct.pack("<d", got[name]) == struct.pack(
                            "<d", value
                        )
                    else:
                        assert got[name] == value
            assert fresh.invalidations == 0

    def test_two_instances_never_serve_a_wrong_record(self, tmp_path):
        keys = [cache_key(CARMEL, (8, 12), (64, 48, k)) for k in range(1, 9)]
        truth = {key: _record(total=float(key.k)) for key in keys}
        a, b = TuneCache(tmp_path), TuneCache(tmp_path)
        a.put([(keys[0], truth[keys[0]])])
        assert b.get(keys[0]) == truth[keys[0]]  # b reads the log now
        for i, key in enumerate(keys[1:], start=1):
            writer, reader = (a, b) if i % 2 else (b, a)
            writer.put([(key, truth[key])])
            # the other instance read the log before this append: a
            # miss, never another key's record
            assert reader.get(key) in (None, truth[key])
            assert writer.get(key) == truth[key]
        b.put([(keys[1], truth[keys[1]])])  # b re-prices what it missed
        fresh = TuneCache(tmp_path)
        assert {key: fresh.get(key) for key in keys} == truth
        assert fresh.invalidations == 0

    def test_old_layout_entry_is_ignored(self, tmp_path):
        key = cache_key(CARMEL, (8, 12), (64, 48, 64))
        old = tmp_path / "neon" / f"{'0' * 64}.json"
        old.parent.mkdir()
        old.write_text(json.dumps({"key": key.payload(), "record": _record()}))
        cache = TuneCache(tmp_path)
        assert cache.get(key) is None
        assert len(cache) == 0
        assert cache.invalidations == 0

    def test_cached_breakdown_reproduces_totals(self, registry):
        from repro.eval.harness import exo_gemm_breakdown
        from repro.tune.cache import (
            breakdown_from_record,
            record_from_breakdown,
        )

        b = exo_gemm_breakdown(96, 96, 96, main=(8, 12))
        record = json.loads(json.dumps(record_from_breakdown(b)))
        cached = breakdown_from_record(record)
        assert cached.total_cycles == b.total_cycles
        assert cached.gflops == b.gflops
        assert cached.seconds == b.seconds


class TestExecutor:
    PROBLEMS = ((96, 96, 96), (64, 48, 64))

    def test_serial_records_in_job_order(self):
        jobs = enumerate_space(("neon",), self.PROBLEMS)
        records = run_jobs(jobs)
        assert len(records) == len(jobs)
        assert all(r["total_cycles"] > 0 for r in records)

    def test_warm_cache_run_performs_zero_breakdown_calls(self, tmp_path):
        cache = TuneCache(tmp_path)
        jobs = enumerate_space(("neon", "rvv128"), self.PROBLEMS)
        cold = run_jobs(jobs, cache=cache)
        assert cache.misses == len(jobs)
        tune.reset_breakdown_calls()
        warm = run_jobs(jobs, cache=cache)
        assert tune.breakdown_calls() == 0
        assert warm == cold

    def test_parallel_matches_serial_exactly(self, tmp_path):
        jobs = enumerate_space(("neon",), self.PROBLEMS)
        serial = run_jobs(jobs)
        parallel = run_jobs(jobs, workers=2, cache=TuneCache(tmp_path))
        assert parallel == serial

    @pytest.mark.parametrize("workers", [0, 2])
    def test_one_put_per_chunk(self, tmp_path, monkeypatch, workers):
        from repro.tune.executor import _chunk_indices

        jobs = enumerate_space(("neon", "rvv128"), self.PROBLEMS)
        puts = []
        real_put = TuneCache.put

        def counting_put(self, entries):
            entries = list(entries)
            puts.append(len(entries))
            return real_put(self, entries)

        monkeypatch.setattr(TuneCache, "put", counting_put)
        run_jobs(jobs, workers=workers, cache=TuneCache(tmp_path))
        if workers:
            chunks = _chunk_indices(range(len(jobs)), jobs, workers)
        else:
            chunks = [("neon", None), ("rvv128", None)]  # one per ISA
        assert len(puts) == len(chunks)
        assert sum(puts) == len(jobs)
        assert len(TuneCache(tmp_path)) == len(jobs)


class TestThreadedParity:
    """Batched tune records against per-job oracles, bit for bit.

    A chunk prices all its threaded jobs in one grid batch; each record
    must equal the scalar threaded model of ``tests/parallel_oracle.py``
    and the one-request ``exo_parallel_breakdown`` of the same job (and
    a serial record the oracle's scalar ``exo_gemm_breakdown``), down to
    the JSON bytes.
    """

    #: the perfbench tune-cold residues: m mod 16 in {5, 11} and
    #: n mod 48 in {7, 26}, so every tile above 1 x 1 leaves edges.  At
    #: four threads the 3x1 and 4x1 grids of these shapes tie on wall
    #: clock for several tiles of every ISA but rvv128 while their DRAM
    #: ceilings differ, so a wrong tie-break changes the record.
    RAGGED = ((21, 103, 97), (27, 74, 131), (21, 74, 97))

    @staticmethod
    def _oracles(job):
        ctx = machine_context(target(job.isa).machine)
        args = (job.m, job.n, job.k)
        if job.threads == 1:
            return [
                parallel_oracle.exo_gemm_breakdown(
                    *args, main=job.tile, ctx=ctx
                )
            ]
        return [
            parallel_oracle.exo_parallel_breakdown(
                *args, job.threads, ctx=ctx, main=job.tile
            ),
            exo_parallel_breakdown(*args, job.threads, ctx=ctx, main=job.tile),
        ]

    def _check(self, jobs, workers):
        records = run_jobs(jobs, workers=workers)
        assert len(records) == len(jobs)
        for job, record in zip(jobs, records):
            got = json.dumps(record, sort_keys=True)
            for oracle in self._oracles(job):
                want = record_from_breakdown(oracle)
                assert got == json.dumps(want, sort_keys=True), job

    @pytest.mark.parametrize("workers", [0, 2])
    def test_ragged_shapes(self, workers):
        jobs = enumerate_space(("all",), self.RAGGED, threads=(2, 4))
        assert {job.isa for job in jobs} == set(ISA_TARGETS)
        self._check(jobs, workers)

    @pytest.mark.parametrize("threads", [2, 4])
    @pytest.mark.parametrize("workers", [0, 2])
    def test_one_spec_chunks(self, workers, threads):
        # one job per ISA: every chunk holds a single threaded spec
        jobs = [
            TuneJob(isa, *target(isa).main_tile, 96, 96, 96, threads=threads)
            for isa in sorted(ISA_TARGETS)
        ]
        self._check(jobs, workers)

    @pytest.mark.parametrize("workers", [0, 2])
    def test_chunk_mixing_serial_and_threaded_specs(self, workers):
        jobs = enumerate_space(
            ("all",),
            ((64, 48, 64), (53, 103, 40), (96, 96, 96)),
            threads=(1, 2, 4),
        )
        assert {job.threads for job in jobs} == {1, 2, 4}
        self._check(jobs, workers)

    def test_serial_records_match_the_scalar_model(self):
        """A ``threads=1`` job is priced as the one-slice grid, next to
        threaded jobs in the same grid batches; its record must still be
        the scalar serial model's, field for field — the cross-check
        ``tune --verify`` relies on.  The two large shapes round off
        under a part/whole rescale of the whole-GEMM terms."""
        problems = self.RAGGED + ((946, 2773, 897), (2375, 1128, 1846))
        jobs = enumerate_space(("all",), problems, threads=(1, 4))
        records = run_jobs(jobs, workers=0)
        serial = 0
        for job, record in zip(jobs, records):
            if job.threads != 1:
                continue
            serial += 1
            ctx = machine_context(target(job.isa).machine)
            want = record_from_breakdown(
                parallel_oracle.exo_gemm_breakdown(
                    job.m, job.n, job.k, main=job.tile, ctx=ctx
                )
            )
            assert record.keys() == want.keys()
            for field in want:
                assert record[field] == want[field], (job, field)
        assert serial >= len(problems) * len(ISA_TARGETS)


class TestSweep:
    @pytest.mark.smoke
    @pytest.mark.parametrize("isa", sorted(ISA_TARGETS))
    def test_sweep_agrees_with_serial_selection(self, isa):
        problems = ((96, 96, 96),)
        artifact = tune.sweep((isa,), problems)
        machine = target(isa).machine
        for m, n, k in problems:
            tuned, entry = tune.best_kernel(artifact, isa, m, n, k)
            shape, breakdown = select_kernel_for(m, n, k, machine=machine)
            assert tuned == shape
            assert entry["total_cycles"] == breakdown.total_cycles

    def test_artifact_roundtrip(self, tmp_path):
        artifact = tune.sweep(("neon",), ((64, 48, 64),))
        path = tune.save_artifact(artifact, tmp_path / "art.json")
        assert tune.load_artifact(path) == artifact

    def test_cli_cold_then_warm(self, tmp_path, capsys):
        from repro.tune.__main__ import main

        args = [
            "--machines", "neon",
            "--shapes", "64x48x64",
            "--workers", "0",
            "--cache-dir", str(tmp_path / "tunecache"),
            "--out", str(tmp_path / "art.json"),
        ]
        assert main([*args, "--verify"]) == 0
        cold = tune.load_artifact(tmp_path / "art.json")
        # warm run WITHOUT --verify, so the counter assertion is strict:
        # --verify itself re-models serially outside the counter
        assert main(args) == 0
        assert tune.breakdown_calls() == 0
        warm = tune.load_artifact(tmp_path / "art.json")
        # cache statistics are per-sweep deltas: the cold run evaluated
        # everything, the warm run answered entirely from the cache
        assert cold["cache_misses"] > 0 and cold["cache_hits"] == 0
        assert warm["cache_hits"] > 0 and warm["cache_misses"] == 0
        assert warm["cache_invalidations"] == 0
        strip = lambda art: {  # noqa: E731
            k: v for k, v in art.items() if not k.startswith("cache_")
        }
        assert strip(warm) == strip(cold)
        out = capsys.readouterr().out
        assert "agrees with serial select_kernel_for" in out

    def test_cli_verify_checks_threaded_winners(
        self, tmp_path, monkeypatch, capsys
    ):
        from repro.eval import harness
        from repro.tune.__main__ import main

        args = [
            "--machines", "neon",
            "--shapes", "64x48x64,53x103x40",
            "--threads", "2,4",
            "--no-cache",
            "--out", str(tmp_path / "art.json"),
            "--verify",
        ]
        assert main(args) == 0
        assert "threaded winner's cycles match" in capsys.readouterr().out
        fresh = harness.exo_parallel_breakdown

        def one_cycle_off(*args, **kwargs):
            total = fresh(*args, **kwargs).total_cycles
            return SimpleNamespace(total_cycles=total + 1.0)

        monkeypatch.setattr(harness, "exo_parallel_breakdown", one_cycle_off)
        assert main(args) == 1
        assert "MISMATCH neon 64x48x64@t2" in capsys.readouterr().err

    def test_cli_rejects_unknown_machine(self, tmp_path):
        from repro.tune.__main__ import main

        assert main(["--machines", "vax", "--out", str(tmp_path / "a")]) == 2


class TestSelectKernelFor:
    def test_tie_breaks_smallest_area_then_lexicographic(self, monkeypatch):
        # every tile of area >= 32 ties; of those, 4x8 and 8x4 share
        # the smallest area, and 4x8 is first lexicographically
        monkeypatch.setattr(
            "repro.eval.harness.exo_gemm_breakdowns",
            lambda cells, **kw: [
                SimpleNamespace(
                    total_cycles=1000.0 if mr * nr >= 32 else 2000.0
                )
                for _, _, _, (mr, nr) in cells
            ],
        )
        shape, _ = select_kernel_for(64, 64, 64, machine=CARMEL)
        assert shape == (4, 8)

    def test_fallback_respects_bounds_on_packed_simd(self):
        shape, breakdown = select_kernel_for(6, 2, 64)
        assert shape == (4, 4)
        assert breakdown.total_cycles > 0

    def test_fallback_uses_vla_tail_path_on_rvv(self):
        shape, breakdown = select_kernel_for(
            3, 2, 64, machine=RVV_EDGE_VLEN128
        )
        assert shape == (3, 2)
        assert breakdown.total_cycles > 0

    def test_delegates_to_active_cache(self, tmp_path, monkeypatch):
        from repro.eval import harness

        machine = target("rvv128").machine
        with tune.using(TuneCache(tmp_path)) as cache:
            first = select_kernel_for(96, 96, 96, machine=machine)
            assert len(cache) > 0
            calls = {"n": 0}
            real = harness.exo_gemm_breakdowns

            def counting(cells, **kwargs):
                calls["n"] += len(cells)
                return real(cells, **kwargs)

            monkeypatch.setattr(harness, "exo_gemm_breakdowns", counting)
            second = select_kernel_for(96, 96, 96, machine=machine)
        assert tune.active_cache() is None
        assert calls["n"] == 0
        assert second[0] == first[0]
        assert isinstance(second[1], TunedBreakdown)
        assert second[1].total_cycles == first[1].total_cycles

    def test_cached_and_uncached_selection_agree(self, tmp_path):
        uncached = select_kernel_for(256, 256, 256, machine=CARMEL)
        with tune.using(tmp_path / "tunecache"):
            cold = select_kernel_for(256, 256, 256, machine=CARMEL)
            warm = select_kernel_for(256, 256, 256, machine=CARMEL)
        assert cold[0] == uncached[0] == warm[0]
        assert warm[1].total_cycles == uncached[1].total_cycles


def _job(isa="neon", mr=8, nr=12, m=64, n=48, k=64):
    return TuneJob(isa=isa, mr=mr, nr=nr, m=m, n=n, k=k)


class TestJob:
    def test_tile_and_problem_views(self):
        job = _job()
        assert job.tile == (8, 12)
        assert job.problem == (64, 48, 64)
