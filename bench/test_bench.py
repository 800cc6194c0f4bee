"""Tests of the benchmark itself: every check rejects a wrong answer.

Run from the repository root with ``python -m pytest bench/test_bench.py``.
"""

import json
import sys
from pathlib import Path

import numpy as np
import pytest

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))

import mplf  # noqa: E402

import checks  # noqa: E402
import radial  # noqa: E402
import reference  # noqa: E402
import run  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402


@pytest.fixture(scope="module")
def study():
    wl = workloads.FeederStudy(seed=0, out_dir=None)
    state = wl.setup()
    return wl, state, wl.op(state)


def failures_of(wl, state, result):
    c = checks.Checker()
    wl.check(state, result, c)
    return c.failures


def test_feeder_study_answers_pass(study):
    assert failures_of(*study) == []


def test_residual_check_rejects_perturbed_voltage(study):
    wl, state, result = study
    feeder, s_wye, s_delta, _ = wl.data.refs["ieee37"]
    v = result["ieee37"][3].v
    c = checks.Checker()
    checks.residual(c, feeder, v, s_wye, s_delta, "exact")
    assert c.failures == []
    signs = np.random.default_rng(0).choice([-1.0, 1.0], size=v.size)
    checks.residual(c, feeder, v + 1e-6 * signs, s_wye, s_delta, "perturbed")
    assert len(c.failures) == 1


def test_sweep_check_rejects_perturbed_voltage(study):
    wl, state, result = study
    sweep = result["ieee123"][4]
    original = sweep.solutions[7].v
    sweep.solutions[7].v = original + 1e-6
    try:
        assert any("kappa=" in msg for msg in failures_of(wl, state, result))
    finally:
        sweep.solutions[7].v = original


@pytest.mark.parametrize("which", [1, 2])  # the theorem-2 and recentered intervals
def test_endpoint_check_rejects_moved_endpoint(study, which):
    wl, state, result = study
    t1, t2, recentered, base_sol, sweep = result["ieee37"]
    intervals = [t1, t2, recentered]
    lo, hi = intervals[which]
    intervals[which] = (lo, hi + 2 * workloads.TOL_KAPPA)
    moved = {**result, "ieee37": (*intervals, base_sol, sweep)}
    assert failures_of(wl, state, moved)


def test_closed_form_endpoint_matches_bisection(study):
    wl, _, result = study
    for name in workloads.FEEDERS:
        feeder, _, _, xi_ref = wl.data.refs[name]
        t2 = result[name][1]
        want = reference.t2_ray_interval(feeder, feeder.w, 0.0, xi_ref, workloads.INTERVAL_BOUNDS)
        assert abs(t2[1] - want[1]) <= 4e-4
        # delta connections put gamma(w) at sqrt(3)/2, not 1
        assert feeder.gamma(feeder.w) == pytest.approx(np.sqrt(3) / 2, abs=1e-4)


def test_cli_check_rejects_changed_byte(tmp_path):
    wl = workloads.CliArtifacts(seed=0, out_dir=tmp_path)
    result = wl.op(None)
    assert failures_of(wl, None, result) == []
    assert wl.digests is not None
    assert failures_of(wl, None, wl.op(None)) == []
    target = wl.dir / "ieee37_solve.json"
    data = bytearray(target.read_bytes())
    at = data.index(b'"re": ') + 7
    data[at] = ord("7") if data[at] != ord("7") else ord("3")
    target.write_bytes(bytes(data))
    assert failures_of(wl, None, result) == ["ieee37_solve.json: artifact bytes differ from the first op"]
    wl.close()


def test_strict_json_rejects_nan():
    c = checks.Checker()
    assert checks.strict_json(c, b'{"a": 1.0}', "ok") == {"a": 1.0}
    assert checks.strict_json(c, b'{"a": NaN}', "nan") is None
    assert len(c.failures) == 1


def test_radial_generator_is_deterministic():
    net1, inj1, _ = radial.radial_documents(11)
    net2, inj2, _ = radial.radial_documents(11)
    assert json.dumps([net1, inj1]) == json.dumps([net2, inj2])
    net3, _, _ = radial.radial_documents(12)
    assert json.dumps(net3) != json.dumps(net1)


def test_radial_make_up():
    for seed in (3, 4):
        net, inj, feeder = radial.radial_documents(seed)
        assert (feeder.n_phases, feeder.n_delta) == (1242, 363)
        buses = net["buses"][1:]
        assert sum(1 for b in buses if b.get("delta_connections")) == 125
        assert {len(b["phases"]) for b in buses} == {1, 2, 3}
        kappa = feeder.gamma(feeder.w) ** 2 / (4 * feeder.xi(*feeder.injections(inj)))
        assert kappa == pytest.approx(radial.KAPPA_T2, rel=1e-12)


def test_radial_check_rejects_perturbed_solution():
    wl = workloads.Radial1200(seed=5, out_dir=None)
    result = wl.op(None)
    assert failures_of(wl, None, result) == []
    sol = result[3]
    sol.v = sol.v + 1e-6
    assert any("reference residual" in msg for msg in failures_of(wl, None, result))


@pytest.fixture(scope="module")
def tracer():
    tracer = tracing.Tracer()
    tracer.install()  # rebinds mplf's functions for the rest of the test run
    return tracer


@pytest.fixture(scope="module")
def ieee37():
    model = mplf.network_from_file(mplf.datafiles.bundled_path("ieee37_network.json"))
    inj = mplf.injections_from_file(
        mplf.datafiles.bundled_path("ieee37_injections_mixed.json"), model
    )
    return model, mplf.zero_load_voltage(model), inj


def test_tracer_sees_calls_bound_by_name(tracer, ieee37):
    inj = ieee37[2]
    # a fresh model, so that its lazy inverse is built while traced
    model = mplf.network_from_file(mplf.datafiles.bundled_path("ieee37_network.json"))
    profile = mplf.zero_load_voltage(model)
    tracer.op = 0
    mplf.feasible_interval(model, profile, (profile.w, mplf.InjectionSet.zeros(model)), inj)
    tracer.op = None
    metrics = tracer.metrics([0])
    assert metrics["analysis.interval_probes"] == metrics["certify.theorem2_calls"] > 0
    assert metrics["certify.xi_calls"] == 2 * metrics["certify.theorem2_calls"]
    assert metrics["netmodel.yll_inverse_s"] > 0.0
    assert all(value >= 0.0 for value in metrics.values())


def test_calls_made_by_checks_are_not_traced(tracer, ieee37):
    model, profile, inj = ieee37

    class Probe:
        def op(self, state):
            return mplf.solve_fixed_point(model, profile, inj)

        def check(self, state, result, c):
            mplf.solve_fixed_point(model, profile, inj)
            mplf.check_theorem2(model, profile, (profile.w, mplf.InjectionSet.zeros(model)), inj)

    peaks = []
    _, raised, bad = run.run_op(Probe(), None, [], peaks, tracer, op=7)
    assert not raised and not bad and len(peaks) == 1
    metrics = tracer.metrics([7])
    assert metrics["certify.theorem2_calls"] == 0
    assert tracer.per_op()[7][("powerflow.solve", "calls")] == 1
