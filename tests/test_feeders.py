"""Checks on the bundled IEEE feeder conversions.

Endpoint values here are regression pins for this conversion; the
paper-scale comparisons live in the acceptance suite.
"""

import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import mplf
from mplf.datafiles import bundled_path

REPO = Path(__file__).resolve().parents[1]


@pytest.fixture(scope="module")
def feeder37():
    model = mplf.network_from_file(bundled_path("ieee37_network.json"))
    return model, mplf.zero_load_voltage(model)


@pytest.fixture(scope="module")
def feeder123():
    model = mplf.network_from_file(bundled_path("ieee123_network.json"))
    return model, mplf.zero_load_voltage(model)


class TestFeeder37:
    def test_structure(self, feeder37):
        model, _ = feeder37
        assert model.index.bus_count == 36  # 37 nodes including the slack
        assert model.n_phases == 108
        assert model.n_delta == 32
        assert model.slack_phases == "abc"

    def test_total_load_matches_published(self, feeder37):
        model, _ = feeder37
        inj = mplf.injections_from_file(bundled_path("ieee37_injections.json"), model)
        total = inj.s_delta.sum() * (1e6 / 3) / 1e3  # back to kW
        assert total.real == pytest.approx(-2457, abs=0.5)
        assert total.imag == pytest.approx(-1201, abs=0.5)
        assert inj.s_wye.sum() == 0

    def test_solves_and_matches_newton(self, feeder37):
        model, profile = feeder37
        inj = mplf.injections_from_file(bundled_path("ieee37_injections.json"), model)
        sol = mplf.solve_fixed_point(model, profile, inj)
        assert sol.converged
        assert 0.90 <= np.abs(sol.v).min() <= 1.0
        nw = mplf.newton_oracle(model, inj, v_init=sol.v)
        assert np.abs(sol.v - nw.v).max() <= 1e-8

    def test_certified_interval_regression(self, feeder37):
        model, profile = feeder37
        inj = mplf.injections_from_file(bundled_path("ieee37_injections.json"), model)
        base = (profile.w, mplf.InjectionSet.zeros(model))
        lo, hi = mplf.feasible_interval(
            model, profile, base, inj, theorem=1, kappa_bounds=(-10, 10)
        )
        assert hi == pytest.approx(3.40, abs=0.01)
        assert lo == pytest.approx(-3.40, abs=0.01)

    def test_mixed_adds_wye_sources(self, feeder37):
        model, _ = feeder37
        mixed = mplf.injections_from_file(bundled_path("ieee37_injections_mixed.json"), model)
        idx = model.index.phase_index
        assert mixed.s_wye[idx[("701", "a")]] == -0.05 - 0.02j
        assert mixed.s_wye[idx[("742", "c")]] == 0.04
        assert mixed.s_wye[idx[("735", "b")]] == 0.03 + 0.01j


class TestFeeder123:
    def test_structure(self, feeder123):
        model, _ = feeder123
        assert model.n_phases == 244
        assert model.n_delta == 13
        # merged switch/regulator aliases must not appear
        ids = set(model.index.bus_ids)
        assert not {"149", "152", "135", "160", "197"} & ids
        assert {"13", "18", "60", "97", "610", "300", "450", "250"} <= ids

    def test_total_load_matches_published(self, feeder123):
        model, _ = feeder123
        inj = mplf.injections_from_file(bundled_path("ieee123_injections.json"), model)
        total = (inj.s_wye.sum() + inj.s_delta.sum()) * (1e6 / 3) / 1e3
        assert total.real == pytest.approx(-3490, abs=0.5)
        assert total.imag == pytest.approx(-1920, abs=0.5)

    def test_phase_subsets_mixed(self, feeder123):
        model, _ = feeder123
        sizes = {len(p) for p in model.index.phases_per_bus}
        assert sizes == {1, 2, 3}
        idx = model.index.phase_index
        assert ("2", "b") in idx and ("2", "a") not in idx
        assert ("27", "a") in idx and ("27", "c") in idx and ("27", "b") not in idx

    def test_solves_and_matches_newton(self, feeder123):
        model, profile = feeder123
        inj = mplf.injections_from_file(bundled_path("ieee123_injections.json"), model)
        sol = mplf.solve_fixed_point(model, profile, inj)
        assert sol.converged
        assert 0.88 <= np.abs(sol.v).min() <= 1.0
        nw = mplf.newton_oracle(model, inj, v_init=sol.v)
        assert np.abs(sol.v - nw.v).max() <= 1e-8

    def test_certified_interval_regression(self, feeder123):
        model, profile = feeder123
        mixed = mplf.injections_from_file(bundled_path("ieee123_injections_mixed.json"), model)
        base = (profile.w, mplf.InjectionSet.zeros(model))
        lo, hi = mplf.feasible_interval(
            model, profile, base, mixed, theorem=1, kappa_bounds=(-10, 10)
        )
        assert hi == pytest.approx(1.11, abs=0.01)
        assert lo == pytest.approx(-1.11, abs=0.01)


CONVERTERS = [
    ("convert_ieee37.py",
     ["ieee37_network.json", "ieee37_injections.json", "ieee37_injections_mixed.json"]),
    ("convert_ieee123.py",
     ["ieee123_network.json", "ieee123_injections.json", "ieee123_injections_mixed.json"]),
]


def convert(script, out_dir, *args):
    """Run a converter into ``out_dir``, any warning an error."""
    out = subprocess.run(
        [sys.executable, "-W", "error", str(REPO / "feeder-data" / script), "--out-dir", str(out_dir),
         *args],
        capture_output=True,
        text=True,
    )
    assert out.returncode == 0, out.stderr


class TestConverterReproducibility:
    @pytest.mark.parametrize("script,names", CONVERTERS)
    def test_bundled_files_match_converter_output(self, tmp_path, script, names):
        # Bytes, not parsed JSON: a -0.0/0.0 flip or any change in the text
        # of a float is drift too.
        convert(script, tmp_path)
        for name in names:
            regenerated = (tmp_path / name).read_bytes()
            assert regenerated == Path(bundled_path(name)).read_bytes(), (
                f"{name} drifted from converter output"
            )

    @pytest.mark.parametrize("script,names", CONVERTERS)
    def test_intervals_do_not_depend_on_the_power_base(self, tmp_path, script, names):
        # kappa scales physical loads, so the certified intervals on the
        # original loading are the same at any per-unit power base.
        convert(script, tmp_path, "--s-base", "3e6")
        network, injections = names[:2]
        edges = []
        for data in (Path(bundled_path(network)).parent, tmp_path):
            model = mplf.network_from_file(data / network)
            s_ref = mplf.injections_from_file(data / injections, model)
            base = (model.zero_load.w, mplf.InjectionSet.zeros(model))
            edges.append([
                mplf.feasible_interval(model, model.zero_load, base, s_ref, theorem=theorem,
                                       kappa_bounds=(-10, 10))
                for theorem in (1, 2)
            ])
        assert np.abs(edges[0]).max() < 10  # no edge clipped at the bounds
        np.testing.assert_allclose(edges[1], edges[0], rtol=1e-12, atol=0)


def test_missing_bundled_file_lists_the_available_ones():
    with pytest.raises(FileNotFoundError, match="no bundled file 'missing.json'") as info:
        bundled_path("missing.json")
    assert "'ieee37_network.json'" in str(info.value)
