"""The static-analysis subsystem: verifier, linter, CLI, tune gate.

Four angles on ``repro.analysis``:

* **positive / fuzz** — every tile the tune-space enumerator can
  propose, on every registered backend, generates a kernel that
  passes :func:`repro.analysis.verify_kernel` (hypothesis samples the
  cross-product; the memoized ``tile_report`` keeps repeats free);
* **negative** — deliberately corrupted kernels fail with exactly the
  named error codes (out-of-bounds window, clobbered accumulator,
  register over-allocation, wrong instruction count);
* **linter** — each DET code fires on a minimal reproducer, waivers
  suppress findings only when they name the code *and* give a reason;
* **integration** — the ``repro-check`` CLI exit codes, and the tuner
  dropping (and recording) candidates whose kernel fails
  verification.
"""

from __future__ import annotations

import dataclasses
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.analysis import (
    ERROR_CODES,
    LINT_CODES,
    filter_verified_jobs,
    lint_file,
    lint_paths,
    tile_report,
    verify_kernel,
    verify_plan,
    verify_target,
    verify_tile,
)
from repro.analysis.__main__ import main as check_main
from repro.core.loopir import Call, For, Interval, WindowExpr, update
from repro.isa.machine import CARMEL
from repro.isa.targets import ISA_TARGETS, target
from repro.sim.pipeline import trace_from_kernel
from repro.tune.space import candidate_tiles

# ---------------------------------------------------------------------------
# positive: the whole tune space verifies, on every backend


def _tune_space_pairs():
    """Every (isa, mr, nr) the space enumerator can propose."""
    pairs = []
    for isa in sorted(ISA_TARGETS):
        t = target(isa)
        for m, n in ((96, 96), (256, 256), (13, 20)):
            for mr, nr in candidate_tiles(t, m, n):
                if (isa, mr, nr) not in pairs:
                    pairs.append((isa, mr, nr))
    return pairs


_PAIRS = _tune_space_pairs()


@given(st.sampled_from(_PAIRS))
@settings(max_examples=len(_PAIRS), deadline=None)
def test_every_tune_space_candidate_verifies(pair):
    isa, mr, nr = pair
    report = tile_report(isa, mr, nr)
    assert report.ok, (
        f"{isa} {mr}x{nr} fails verification:\n"
        + "\n".join(str(f) for f in report.findings)
    )


@pytest.mark.parametrize("isa", sorted(ISA_TARGETS))
def test_verify_target_covers_family_and_vla_tails(isa):
    reports = verify_target(isa)
    assert reports, f"{isa} produced no reports"
    bad = [r for r in reports if not r.ok]
    assert not bad, "\n".join(
        f"{r.name}: {f}" for r in bad for f in r.findings
    )
    if target(isa).vla:
        # the ragged tiles exercise the reduced-AVL vsetvl tail plans
        assert any(r.name.startswith("vla_") for r in reports)


def test_a_tile_is_a_plan_only_with_several_parts():
    # the 1-row tile runs the one row kernel Neon runs, and reports so
    assert [k.name for _, k in target("rvv128").tile_parts(1, 12)] == [
        "uk_1x12_f32_row"
    ]
    assert verify_tile("rvv128", 1, 12).name == "uk_1x12_f32_row"
    assert verify_tile("neon", 1, 12).name == "uk_1x12_f32_row"
    assert len(target("rvv128").tile_parts(5, 12)) == 2
    assert verify_tile("rvv128", 5, 12).name == "vla_5x12"


# ---------------------------------------------------------------------------
# negative: corrupted kernels fail with the named codes


def _neon_kernel():
    return target("neon").get(8, 12)


def _buffer_label(sym) -> str:
    return str(sym).split("#")[0]


def _rewrite_calls(stmts, fn):
    """Rebuild a statement tree, mapping ``fn`` over every Call."""
    out = []
    for s in stmts:
        if isinstance(s, For):
            out.append(
                update(s, body=type(s.body)(_rewrite_calls(s.body, fn)))
            )
        elif isinstance(s, Call):
            out.append(fn(s))
        else:
            out.append(s)
    return type(stmts)(out)


def _with_body(kernel, bad_ir):
    # replace() leaves the cached trace behind: it belongs to the old body
    return dataclasses.replace(kernel, proc=type(kernel.proc)(bad_ir))


def test_out_of_bounds_window_is_E_OOB_ACCESS():
    kernel = _neon_kernel()
    ir = kernel.proc.ir
    done = []

    def shift_ac_window(call):
        # slide the first packed-A load window past the tile edge
        if done:
            return call
        args = []
        for a in call.args:
            if (
                not done
                and isinstance(a, WindowExpr)
                and _buffer_label(a.name) == "Ac"
            ):
                idx = list(a.idx)
                for i, d in enumerate(idx):
                    if isinstance(d, Interval):
                        idx[i] = update(
                            d,
                            lo=update(d.lo, val=6),
                            hi=update(d.hi, val=10),
                        )
                        done.append(True)
                        break
                a = update(a, idx=tuple(idx))
            args.append(a)
        return update(call, args=type(call.args)(args))

    bad_ir = update(ir, body=_rewrite_calls(ir.body, shift_ac_window))
    assert done
    report = verify_kernel(_with_body(kernel, bad_ir))
    assert report.codes == ("E_OOB_ACCESS",)


def test_clobbered_accumulator_is_E_ACC_CLOBBER():
    kernel = _neon_kernel()
    ir = kernel.proc.ir

    acc_window = []

    def find_fma(stmts):
        for s in stmts:
            if isinstance(s, For):
                find_fma(s.body)
            elif isinstance(s, Call) and not acc_window:
                wins = [
                    a for a in s.args if isinstance(a, WindowExpr)
                ]
                if len(wins) >= 3:
                    acc_window.append(wins[0])

    find_fma(ir.body)
    assert acc_window, "no FMA call found"

    done = []

    def redirect_load(call):
        # point the first A-register load at an accumulator register
        if done:
            return call
        args = list(call.args)
        for i, a in enumerate(args):
            if (
                isinstance(a, WindowExpr)
                and _buffer_label(a.name) == "A_reg"
            ):
                point, interval = a.idx
                args[i] = update(
                    a,
                    name=acc_window[0].name,
                    idx=(point, point, interval),
                )
                done.append(True)
                return update(call, args=type(call.args)(args))
        return call

    bad_ir = update(ir, body=_rewrite_calls(ir.body, redirect_load))
    assert done
    report = verify_kernel(_with_body(kernel, bad_ir))
    # the load overwrites a live accumulator, and the FMA now reads an
    # A register nothing ever wrote
    assert "E_ACC_CLOBBER" in report.codes
    assert "E_UNDEF_READ" in report.codes


def test_register_overallocation_is_E_REG_PRESSURE():
    narrow = dataclasses.replace(CARMEL, vector_registers=16)
    report = verify_kernel(_neon_kernel(), machine=narrow)
    assert report.codes == ("E_REG_PRESSURE",)


def test_wrong_instruction_count_is_E_COUNT_DRIFT():
    kernel = _neon_kernel()
    trace = trace_from_kernel(kernel)
    doctored = dataclasses.replace(kernel)
    doctored.trace = dataclasses.replace(trace, ops=trace.ops[:-4])
    report = verify_kernel(doctored)
    assert report.codes == ("E_COUNT_DRIFT",)


def test_census_agrees_with_timing_model_trace():
    """The verifier's static census is the trace the model prices."""
    kernel = _neon_kernel()
    derived = dataclasses.replace(kernel)
    derived.trace = trace_from_kernel(kernel)
    assert verify_kernel(derived).ok
    assert trace_from_kernel(derived) is kernel.trace


def _rvv_parts(mr, nr):
    return target("rvv128").tile_parts(mr, nr)


def test_vla_parts_that_tile_the_rows_verify():
    report = verify_plan(_rvv_parts(7, 12), 7, 12)
    assert report.name == "vla_7x12"
    assert report.ok, [str(f) for f in report.findings]


def test_vla_parts_are_held_to_the_machine_register_file():
    """The plan's machine is every part's register budget."""
    t = target("rvv128")
    narrow = dataclasses.replace(t.machine, vector_registers=8)
    report = verify_plan(_rvv_parts(7, 12), 7, 12, machine=narrow)
    assert report.codes == ("E_REG_PRESSURE",)
    assert len(report.findings) == 2
    assert all("holds 8" in str(f) for f in report.findings)
    assert verify_plan(_rvv_parts(7, 12), 7, 12, machine=t.machine).ok


def test_vla_parts_with_a_gap_are_E_PLAN_COVER():
    (body, tail) = _rvv_parts(7, 12)
    shifted = [body, (tail[0] + 1, tail[1])]
    report = verify_plan(shifted, 8, 12)
    assert report.codes == ("E_PLAN_COVER",)
    assert "rows [4, 5) are uncovered" in str(report.findings[0])


def test_vla_parts_short_of_mr_are_E_PLAN_COVER():
    (body, _) = _rvv_parts(7, 12)
    report = verify_plan([body], 7, 12)
    assert report.codes == ("E_PLAN_COVER",)
    assert "parts cover 4 rows of the 7-row tile" in str(report.findings[0])


def test_error_catalogue_is_complete():
    produced = {
        "E_OOB_ACCESS",
        "E_ACC_CLOBBER",
        "E_UNDEF_READ",
        "E_REG_PRESSURE",
        "E_COUNT_DRIFT",
        "E_PLAN_COVER",
    }
    assert produced <= set(ERROR_CODES)
    assert all(ERROR_CODES[code] for code in ERROR_CODES)


def test_identity_caches_serve_only_their_own_proc(monkeypatch):
    """A cache entry left by a freed proc whose ``id`` a live proc now
    has must not be served: each entry pins and checks its proc."""
    from repro.analysis import verifier
    from repro.analysis.verifier import Finding
    from repro.core import effects

    fma = target("neon").lib["fmla_lane"].ir
    stranger = target("neon").lib["load"].ir
    kinds = effects.classify_formals(fma)
    monkeypatch.setitem(
        effects._classify_cache, id(fma), (stranger, {"bogus": "write"})
    )
    assert effects.classify_formals(fma) == kinds
    monkeypatch.setitem(
        verifier._instr_checked,
        id(fma),
        (stranger, [Finding("E_OOB_ACCESS", "stale")]),
    )
    assert verifier._verify_instr_proc(fma) == []


# ---------------------------------------------------------------------------
# determinism linter


def _lint_source(tmp_path: Path, source: str):
    f = tmp_path / "sample.py"
    f.write_text(source)
    return lint_file(f)


def _codes(findings):
    return [f.code for f in findings]


def test_det101_wall_clock(tmp_path):
    findings = _lint_source(
        tmp_path,
        "import time\n"
        "def f():\n"
        "    return time.time()\n",
    )
    assert _codes(findings) == ["DET101"]
    assert findings[0].line == 3


def test_det101_sees_through_import_aliases(tmp_path):
    findings = _lint_source(
        tmp_path,
        "from time import perf_counter as clock\n"
        "def f():\n"
        "    return clock()\n",
    )
    assert _codes(findings) == ["DET101"]


def test_det102_unseeded_random(tmp_path):
    findings = _lint_source(
        tmp_path,
        "import random\n"
        "a = random.random()\n"
        "rng = random.Random()\n"
        "ok = random.Random(42)\n",
    )
    assert _codes(findings) == ["DET102", "DET102"]


def test_det103_set_iteration(tmp_path):
    findings = _lint_source(
        tmp_path,
        "for x in {1, 2, 3}:\n"
        "    print(x)\n"
        "names = list({'b', 'a'})\n"
        "ok = sorted({'b', 'a'})\n",
    )
    assert _codes(findings) == ["DET103", "DET103"]


def test_det104_unsorted_json(tmp_path):
    findings = _lint_source(
        tmp_path,
        "import json\n"
        "def f(d):\n"
        "    bad = json.dumps(d)\n"
        "    ok1 = json.dumps(d, sort_keys=True)\n"
        "    ok2 = json.dumps({'literal': 1})\n"
        "    return bad, ok1, ok2\n",
    )
    assert _codes(findings) == ["DET104"]
    assert findings[0].line == 3


def test_det105_blocking_in_async(tmp_path):
    findings = _lint_source(
        tmp_path,
        "import time\n"
        "async def f():\n"
        "    time.sleep(1)\n"
        "def g():\n"
        "    time.sleep(1)\n",
    )
    # sync sleep in async code only; the sync function is fine
    assert _codes(findings) == ["DET105"]
    assert findings[0].line == 3


def test_waiver_suppresses_named_code(tmp_path):
    findings = _lint_source(
        tmp_path,
        "import time\n"
        "t = time.time()  # det: ok DET101 (test fixture)\n",
    )
    assert findings == []


def test_waiver_requires_reason(tmp_path):
    findings = _lint_source(
        tmp_path,
        "import time\n"
        "t = time.time()  # det: ok DET101\n",
    )
    assert _codes(findings) == ["DET101"]


def test_waiver_only_covers_named_codes(tmp_path):
    findings = _lint_source(
        tmp_path,
        "import time, random\n"
        "t = (time.time(), random.random())"
        "  # det: ok DET101 (fixture)\n",
    )
    assert _codes(findings) == ["DET102"]


def test_syntax_error_is_DET100(tmp_path):
    findings = _lint_source(tmp_path, "def broken(:\n")
    assert _codes(findings) == ["DET100"]


def test_lint_paths_recurses_and_sorts(tmp_path):
    (tmp_path / "pkg").mkdir()
    (tmp_path / "pkg" / "b.py").write_text(
        "import time\nt = time.time()\n"
    )
    (tmp_path / "pkg" / "a.py").write_text(
        "import random\nr = random.random()\n"
    )
    findings = lint_paths([tmp_path])
    assert _codes(findings) == ["DET102", "DET101"]
    assert findings[0].path.endswith("a.py")


def test_repo_sources_are_lint_clean():
    """The tree the CI job lints has no unwaived findings."""
    pkg = Path(__file__).resolve().parent.parent / "src" / "repro"
    findings = lint_paths([pkg])
    assert findings == [], "\n".join(str(f) for f in findings)


def test_lint_catalogue_documents_every_code():
    assert set(LINT_CODES) == {
        "DET101",
        "DET102",
        "DET103",
        "DET104",
        "DET105",
    }


# ---------------------------------------------------------------------------
# CLI


def test_cli_verify_one_tile():
    assert check_main(
        ["verify", "--isa", "neon", "--tiles", "8x12"]
    ) == 0


def test_cli_verify_vla_tail_plan():
    assert check_main(
        ["verify", "--isa", "rvv128", "--tiles", "7x12"]
    ) == 0


def test_cli_verify_rejects_bad_tile_spec():
    assert check_main(
        ["verify", "--isa", "neon", "--tiles", "8by12"]
    ) == 2


def test_cli_verify_rejects_unknown_isa():
    assert check_main(["verify", "--isa", "sparc"]) == 2


def test_cli_lint_exit_codes(tmp_path):
    dirty = tmp_path / "dirty.py"
    dirty.write_text("import time\nt = time.time()\n")
    clean = tmp_path / "clean.py"
    clean.write_text("x = 1\n")
    assert check_main(["lint", str(clean)]) == 0
    assert check_main(["lint", str(dirty)]) == 1


# ---------------------------------------------------------------------------
# the tune gate


def test_filter_verified_jobs_drops_failing_tile(monkeypatch):
    from repro import analysis
    from repro.tune.space import enumerate_space

    jobs = enumerate_space(["neon"], [(96, 96, 96)])
    assert jobs

    bad_tile = (jobs[0].mr, jobs[0].nr)

    def fake_report(isa, mr, nr):
        report = analysis.Report(name=f"{isa}-{mr}x{nr}")
        if (mr, nr) == bad_tile:
            report.add("E_OOB_ACCESS", "injected failure")
        return report

    monkeypatch.setattr(analysis, "tile_report", fake_report)
    kept, rejected = filter_verified_jobs(jobs)
    assert ("neon",) + bad_tile in rejected
    assert rejected[("neon",) + bad_tile].codes == ("E_OOB_ACCESS",)
    assert all((j.mr, j.nr) != bad_tile for j in kept)
    assert len(kept) + sum(
        1 for j in jobs if (j.mr, j.nr) == bad_tile
    ) == len(jobs)


def test_sweep_records_rejected_tiles(monkeypatch):
    from repro import analysis, tune

    bad_tile = []

    def fake_report(isa, mr, nr):
        if not bad_tile:
            bad_tile.append((mr, nr))
        report = analysis.Report(name=f"{isa}-{mr}x{nr}")
        if (mr, nr) == bad_tile[0]:
            report.add("E_REG_PRESSURE", "injected failure")
        return report

    monkeypatch.setattr(analysis, "tile_report", fake_report)
    artifact = tune.sweep(["neon"], [(96, 96, 96)])
    mr, nr = bad_tile[0]
    assert artifact["rejected_tiles"] == {
        f"neon:{mr}x{nr}": ["E_REG_PRESSURE"]
    }
    winner = artifact["machines"]["neon"]["best"]["96x96x96"]
    assert tuple(winner["kernel"]) != (mr, nr)


def test_clean_sweep_artifact_has_no_rejection_key():
    from repro import tune

    artifact = tune.sweep(["neon"], [(96, 96, 96)])
    assert "rejected_tiles" not in artifact
    assert artifact["machines"]["neon"]["best"]["96x96x96"]
