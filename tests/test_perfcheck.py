"""The perf-regression gate: measurement protocol and decision rule."""

from __future__ import annotations

import glob
import json
import multiprocessing
import os
import tempfile

import pytest

from repro.obs import perfcheck
from repro.obs.perfcheck import Scenario, calibrate, check, measure


def _toy_scenarios(order_log=None):
    def make(name):
        def setup():
            return name

        def run(state):
            if order_log is not None:
                order_log.append(state)
            total = 0
            for i in range(2_000):  # ~50us: big enough to time, cheap enough for CI
                total += i
            return total

        return Scenario(name, setup, run)

    return [make("alpha"), make("beta")]


# -- measure -----------------------------------------------------------------
def test_measure_interleaves_round_robin_with_warmup(monkeypatch):
    log = []
    monkeypatch.setattr(perfcheck, "calibrate", lambda: log.append("spin") or 1.0)
    result = measure(_toy_scenarios(log), reps=3)
    # warmup (alpha, beta), then three interleaved rounds, each closed by
    # one calibration spin
    assert log == ["alpha", "beta"] + ["alpha", "beta", "spin"] * 3
    for name in ("alpha", "beta"):
        stats = result["scenarios"][name]
        assert len(stats["samples"]) == 3
        assert stats["median_s"] >= 0
        assert stats["mad_s"] >= 0
    assert result["calibration_s"] == 1.0


def test_measure_inject_slowdown_scales_samples():
    def setup():
        return None

    def run(state):
        t = 0
        for i in range(20_000):
            t += i

    base = measure([Scenario("s", setup, run)], reps=5)
    slowed = measure([Scenario("s", setup, run)], reps=5, inject_slowdown=3.0)
    ratio = slowed["scenarios"]["s"]["median_s"] / base["scenarios"]["s"]["median_s"]
    assert ratio > 1.8, f"injected 3x slowdown only measured as {ratio:.2f}x"


def test_calibrate_returns_positive_seconds():
    assert calibrate(iters=10_000) > 0


# -- check -------------------------------------------------------------------
def _result(medians, mads=None, calibration=1.0):
    mads = mads or {}
    return {
        "calibration_s": calibration,
        "scenarios": {
            name: {"samples": [m], "median_s": m, "mad_s": mads.get(name, 0.0)}
            for name, m in medians.items()
        },
    }


def test_check_passes_when_within_tolerance():
    baseline = _result({"a": 0.100})
    current = _result({"a": 0.110})
    report = check(current, baseline, rel_tol=0.35, mad_multiplier=4.0)
    assert report["ok"]
    assert not report["scenarios"]["a"]["regressed"]


def test_check_fails_on_clear_regression():
    baseline = _result({"a": 0.100})
    current = _result({"a": 0.250})
    report = check(current, baseline)
    assert not report["ok"]
    assert report["scenarios"]["a"]["regressed"]
    assert report["scenarios"]["a"]["ratio"] == pytest.approx(2.5)


def test_check_rescales_baseline_by_cpu_speed_ratio():
    # Same workload on a machine the calibration says is 2x slower: the
    # doubled median must NOT count as a regression.
    baseline = _result({"a": 0.100}, calibration=0.050)
    current = _result({"a": 0.200}, calibration=0.100)
    report = check(current, baseline)
    assert report["speed_ratio"] == pytest.approx(2.0)
    assert report["ok"], report


def test_check_mad_slack_absorbs_noisy_scenarios():
    baseline = _result({"a": 0.100}, mads={"a": 0.020})
    # 1.55x the baseline: over the 35% rel_tol alone, inside rel_tol + 4*MAD.
    current = _result({"a": 0.155})
    report = check(current, baseline)
    assert report["ok"], report["scenarios"]["a"]


def test_check_mad_slack_does_not_grow_with_the_slowdown():
    # A 3x slowdown triples the current MAD with the median; the slack is
    # sized by the relative MAD (10%), so the limit stays at 1.75x.
    baseline = _result({"a": 0.100}, mads={"a": 0.010})
    current = _result({"a": 0.300}, mads={"a": 0.030})
    report = check(current, baseline)
    assert report["scenarios"]["a"]["limit_s"] == pytest.approx(0.175)
    assert not report["ok"]


def test_check_new_and_missing_scenarios_never_fail_the_gate():
    baseline = _result({"a": 0.1, "gone": 0.1})
    current = _result({"a": 0.1, "fresh": 0.1})
    report = check(current, baseline)
    assert report["ok"]
    assert report["missing_from_baseline"] == ["fresh"]
    assert report["missing_from_current"] == ["gone"]


# -- the scenario list --------------------------------------------------------
def test_scenario_names_match_the_committed_baseline():
    """A scenario missing from the baseline is reported NEW and never
    fails the gate, so every built scenario must have a committed entry
    (and every entry a scenario).  Building the list runs nothing."""
    names = [scenario.name for scenario in perfcheck.scenarios()]
    assert len(names) == len(set(names))
    path = perfcheck.default_baseline_path()
    with open(path, encoding="utf-8") as handle:
        baseline = json.load(handle)
    assert set(baseline) >= {"calibration_s", "reps", "scenarios"}
    assert sorted(names) == sorted(baseline["scenarios"])


def test_measure_tears_down_fabric_workers_and_the_l2_directory():
    """The process fabric's forked workers and the L2 scenario's temporary
    directory do not outlive :func:`measure`."""
    names = ("solve_inline", "solve_process", "l2_warm_get")
    chosen = [s for s in perfcheck.scenarios() if s.name in names]
    assert sorted(s.name for s in chosen) == sorted(names)
    l2_dirs = set(glob.glob(os.path.join(tempfile.gettempdir(), "perfcheck_l2_*")))
    children = set(multiprocessing.active_children())
    result = measure(chosen, reps=1)
    assert sorted(result["scenarios"]) == sorted(names)
    assert set(multiprocessing.active_children()) <= children
    assert set(glob.glob(os.path.join(tempfile.gettempdir(), "perfcheck_l2_*"))) <= l2_dirs


def test_measure_tears_down_after_a_failing_rep():
    torn = []

    def fail(state):
        raise RuntimeError("rep failed")

    scenario = Scenario("s", lambda: "state", fail, teardown=torn.append)
    with pytest.raises(RuntimeError, match="rep failed"):
        measure([scenario], reps=1)
    assert torn == ["state"]


# -- CLI ---------------------------------------------------------------------
def test_main_update_then_pass_then_injected_failure(tmp_path, monkeypatch):
    monkeypatch.setattr(perfcheck, "scenarios", _toy_scenarios)
    monkeypatch.setattr(perfcheck, "_CALIBRATION_ITERS", 10_000)
    baseline_path = str(tmp_path / "BENCH_perfcheck.json")

    assert perfcheck.main(["--update", "--baseline", baseline_path, "--reps", "3"]) == 0
    document = json.load(open(baseline_path, encoding="utf-8"))
    assert document["reps"] == 3
    assert sorted(document["scenarios"]) == ["alpha", "beta"]

    report_path = str(tmp_path / "report.json")
    # Generous tolerance: this step checks CLI plumbing, not noise
    # sensitivity, and microsecond toy scenarios jitter under suite load.
    monkeypatch.setattr(perfcheck, "REL_TOL", 3.0)
    code = perfcheck.main(
        ["--baseline", baseline_path, "--reps", "3", "--json", report_path]
    )
    assert code == 0
    report = json.load(open(report_path, encoding="utf-8"))
    assert report["ok"]

    # Toy scenarios run in microseconds; a massive injected slowdown must
    # trip the gate deterministically.
    code = perfcheck.main(
        ["--baseline", baseline_path, "--reps", "3", "--inject-slowdown", "10000"]
    )
    assert code == 1


def test_main_missing_baseline_exits_2(tmp_path, monkeypatch):
    monkeypatch.setattr(perfcheck, "scenarios", _toy_scenarios)
    code = perfcheck.main(["--baseline", str(tmp_path / "absent.json"), "--reps", "2"])
    assert code == 2
    # A file without a flat scenario table is no baseline either.
    stale = tmp_path / "modes.json"
    stale.write_text(json.dumps({"modes": {"quick": {"scenarios": {}}}}))
    assert perfcheck.main(["--baseline", str(stale), "--reps", "2"]) == 2


# -- baseline resolution ------------------------------------------------------
def test_default_baseline_path_walks_up_from_cwd(tmp_path, monkeypatch):
    bench = tmp_path / "benchmarks"
    bench.mkdir()
    (bench / "BENCH_perfcheck.json").write_text("{}")
    nested = tmp_path / "a" / "b"
    nested.mkdir(parents=True)
    monkeypatch.chdir(nested)
    assert perfcheck.default_baseline_path() == str(bench / "BENCH_perfcheck.json")


def test_default_baseline_path_prefers_existing_dir_for_update(tmp_path, monkeypatch):
    # No baseline file yet: the nearest existing benchmarks/ directory is
    # where --update will create one.
    bench = tmp_path / "benchmarks"
    bench.mkdir()
    monkeypatch.chdir(tmp_path)
    monkeypatch.setattr(perfcheck, "__file__", str(tmp_path / "pkg" / "perfcheck.py"))
    assert perfcheck.default_baseline_path() == str(bench / "BENCH_perfcheck.json")


def test_main_outside_checkout_exits_2_with_clear_error(tmp_path, monkeypatch, capsys):
    """A pip-installed package outside any checkout must say so instead of
    the misleading 'run --update first'."""
    monkeypatch.setattr(perfcheck, "scenarios", _toy_scenarios)
    # Simulate site-packages: no benchmarks/ above the module or the CWD.
    monkeypatch.setattr(
        perfcheck, "__file__", str(tmp_path / "site-packages" / "repro" / "perfcheck.py")
    )
    monkeypatch.chdir(tmp_path)
    assert perfcheck.default_baseline_path() is None
    code = perfcheck.main(["--reps", "1"])
    assert code == 2
    err = capsys.readouterr().err
    assert "not a repo checkout" in err
    assert "--baseline" in err


def test_cli_registered_under_python_dash_m_repro(capsys):
    from repro.__main__ import main as repro_main

    with pytest.raises(SystemExit):
        repro_main(["perfcheck", "--help"])
    out = capsys.readouterr().out
    assert "--inject-slowdown" in out
