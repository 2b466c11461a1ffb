"""Tests of the benchmark itself.  Run from the repository root:

    python3 -m pytest perfbench/tests
"""

import dataclasses
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parents[1]
ROOT = BENCH.parent
sys.path.insert(0, str(BENCH))

import run  # noqa: E402
import spans  # noqa: E402
import workloads  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
TINY = {"check": 8, "identities": 20, "export": 12}  # --rows / --max-n of the smoke jobs


@pytest.fixture
def at_root(monkeypatch):
    monkeypatch.chdir(ROOT)
    run.OUT_DIR.mkdir(parents=True, exist_ok=True)


def tiny_jobs(workload: str) -> list[workloads.Job]:
    """One job of each command the workload uses, shrunk."""
    by_command = {}
    for job in workloads.make_jobs(workload, 3):
        by_command.setdefault(job.command, dataclasses.replace(job, size=TINY[job.command]))
    return list(by_command.values())


def cold_env() -> dict:
    return {**os.environ, "PYTHONPATH": str(ROOT / "src")}


@pytest.mark.parametrize("workload", sorted(workloads.GENERATORS))
def test_job_list_is_a_pure_function_of_workload_and_seed(workload):
    first, again = workloads.make_jobs(workload, 11), workloads.make_jobs(workload, 11)
    assert first == again
    assert workloads.jobs_hash(first) == workloads.jobs_hash(again)
    # Another seed deals the same jobs in another order, so that every
    # seed's list costs the same.
    other = workloads.make_jobs(workload, 12)
    assert workloads.jobs_hash(other) != workloads.jobs_hash(first)
    assert sorted(map(repr, other)) == sorted(map(repr, first))


def test_job_sizes_stay_in_their_ranges():
    for seed in range(20):
        for job in workloads.make_jobs("verify", seed):
            if job.command == "identities":
                assert workloads.IDENTITY_MAX_N[0] <= job.size <= workloads.IDENTITY_MAX_N[1]
            else:
                assert 40 <= job.size <= 120
        # No transform job may need --force, whose row guard is 40.
        assert all(18 <= j.size <= 40 for j in workloads.make_jobs("transform", seed))
        assert all(200 <= j.size <= 450 for j in workloads.make_jobs("export", seed))


def test_percentile_and_tail_choice():
    values = [float(v) for v in range(1, 101)]
    assert run.percentile(values, 50) == pytest.approx(50.5)
    assert run.percentile(values, 90) == pytest.approx(90.1)
    assert run.percentile([3.0], 90) == 3.0
    assert run.tail_percent(21) == 50
    assert run.tail_percent(40) == 75
    assert run.tail_percent(114) == 90
    assert run.tail_percent(200) == 95
    assert run.tail_percent(5) == 50


def test_reference_seconds_scale_by_the_calibrations_around_each_sample():
    ref = run.CALIBRATION_REF_S
    timed = [(0, 1.0), (-1, 0.5), (3, 2.0)]
    calibrations = [ref, 3 * ref, ref, ref]
    assert run.reference_seconds(timed, calibrations) == pytest.approx([0.5, 0.25, 2.0])


def test_self_time_on_synthetic_spans():
    root = spans.Span(1, "cli.main", 0.0, 10.0, None, 0)
    sweep = spans.Span(2, "identities.check_order3_wardlah", 1.0, 6.0, 1, 0)
    build = spans.Span(3, "triangles.value", 2.0, 4.0, 2, 0, tag=1)
    export = spans.Span(4, "bfile.render_bfile", 7.0, 9.0, 1, 0)
    hits = spans.Leaf(2, "triangles.value", 0, 40, 0.25)
    arith = spans.Leaf(3, "exact_arith.factorial", 0, 9, 0.5)
    s = spans.summarize([root, sweep, build, export], [hits, arith])
    assert s.root_s == 10.0
    assert s.self_s[("cli.main", 0)] == pytest.approx(3.0)
    assert s.self_s[("identities.check_order3_wardlah", 0)] == pytest.approx(2.75)
    assert s.self_s[("triangles.value", 1)] == pytest.approx(1.5)
    assert s.self_s[("triangles.value", 0)] == pytest.approx(0.25)
    assert s.calls_of("triangles.value") == 41
    assert s.layer_self() == pytest.approx(
        {"cli": 3.0, "identities": 2.75, "triangles": 1.75, "exact_arith": 0.5, "bfile": 2.0}
    )
    assert sum(s.layer_self().values()) == pytest.approx(s.root_s)
    assert s.entry_s["identities"] == pytest.approx(5.0)
    assert s.entry_s["triangles"] == pytest.approx(2.25)


def test_covered_merges_overlapping_children():
    parent = spans.Span(1, "a.f", 0.0, 10.0, None, 0)
    kids = [spans.Span(2, "b.g", 1.0, 4.0, 1, 0), spans.Span(3, "b.h", 3.0, 5.0, 1, 0),
            spans.Span(4, "b.k", 9.0, 12.0, 1, 0)]
    assert spans.covered(parent, kids) == pytest.approx(5.0)


def test_tracer_rebinds_imported_names(at_root):
    _, modules = run.load_package(ROOT)
    identities, triangles = modules["identities"], modules["triangles"]
    original, transform = triangles.value, triangles.partition_transform
    tracer = run.make_tracer(modules)
    tracer.install(list(modules.values()))
    try:
        assert identities.value is not original and identities.value.__wrapped__ is original
        assert triangles.partition_transform.__wrapped__ is transform
        triangles.clear_caches()
        assert identities.check_order3_wardlah(8).passed
    finally:
        tracer.uninstall()
    assert identities.value is original and triangles.value is original
    s = spans.summarize(tracer.spans, tracer.leaves)
    assert s.calls_of("triangles.value") > 0
    assert s.calls_of("triangles.value", 1) >= 1  # the first lookup builds rows
    assert sum(s.layer_self().values()) == pytest.approx(s.root_s)


def test_gate_rejects_wrong_output():
    check = workloads.Job("check", 5, "ward-lah", ("recurrence", "explicit"))
    good = "PASS equivalence-ward-lah-recurrence~explicit [0<=k<=n<=5] cases=21 skipped=0\n"
    assert check.verdict([0], [good], "", 0) == (21, "")
    assert check.verdict([1], [good], "", 0)[1]
    assert check.verdict([0], [good.replace("PASS", "FAIL")], "", 0)[1]
    assert check.verdict([0], [good.replace("cases=21", "cases=20")], "", 0)[1]
    assert check.verdict([0], [""], "", 0)[1]
    ident = workloads.Job("identities", 20)
    lines = [f"PASS {name} [r] cases={c} skipped={k}"
             for name, (c, k) in workloads.expected_identity_cases(20).items()]
    assert ident.verdict([0], ["\n".join(lines)], "", 0)[1] == ""
    assert ident.verdict([0], ["\n".join(lines[1:])], "", 0)[1]


def test_export_gate_counts_a_corrupted_bfile(at_root):
    job = workloads.Job("export", 12, "ward2", ("recurrence",))

    def corrupt(path: Path) -> None:
        lines = path.read_text().splitlines()
        index, value = lines[40].split()
        lines[40] = f"{index} {int(value) + 1}"
        path.write_text("\n".join(lines) + "\n")

    _, _, cases, reason = run.run_cold(job, cold_env())
    assert reason == "" and cases == 2 * 78
    _, _, cases, reason = run.run_cold(job, cold_env(), tamper=corrupt)
    assert reason and cases == 0


@pytest.mark.parametrize("workload", sorted(workloads.GENERATORS))
def test_smoke_run_of_each_workload(workload, at_root, tmp_path):
    jobs = tiny_jobs(workload)
    cold = run.cold_run(workload, jobs, 1, ROOT)
    assert cold["correct"] and cold["failed"] == 0, cold["failures"]
    assert set(cold["metrics"]) == {m["name"] for m in SPEC["end_to_end"]}
    assert all(v > 0 for v in cold["metrics"].values())

    traced = run.traced_run(jobs, ROOT, tmp_path / "spans.json")
    assert traced["correct"] and traced["failed"] == 0, traced["failures"]
    assert set(traced["metrics"]) == {m["name"] for m in SPEC["per_layer"]}
    assert json.loads((tmp_path / "spans.json").read_text())["spans"]


def test_spec_names_the_workloads():
    assert [w["name"] for w in SPEC["workloads"]] == ["verify", "transform", "export"]
    assert set(run.PASS_SECONDS) == set(workloads.GENERATORS)


def test_refuses_to_run_without_the_source(tmp_path):
    out = subprocess.run(
        [sys.executable, str(BENCH / "run.py"), "--workload", "verify", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert out.returncode != 0
    assert '"correct"' not in out.stdout
