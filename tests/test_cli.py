import csv
import json
import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

from mplf import cli
from mplf.datafiles import bundled_path
from mplf.powerflow import BASE_RESIDUAL_TOL, MAX_ITER, TOL_STEP

NET1 = str(bundled_path("single_phase_network.json"))
INJ1 = str(bundled_path("single_phase_injections.json"))
NET3 = str(bundled_path("three_bus_network.json"))
INJ3 = str(bundled_path("three_bus_injections.json"))
IEEE123 = [
    str(bundled_path("ieee123_network.json")),
    str(bundled_path("ieee123_injections_mixed.json")),
]
IEEE37 = [str(bundled_path(f"ieee37_{name}.json")) for name in ("network", "injections_mixed")]

GOLDEN_V = 0.8872983346207417


def run(argv):
    return cli.main(argv)


class TestSolve:
    def test_golden_value_and_exit_code(self, tmp_path):
        out = tmp_path / "sol.json"
        assert run(["solve", NET1, INJ1, "--output", str(out)]) == 0
        doc = json.loads(out.read_text())
        assert doc["converged"] is True
        assert doc["v"][0]["re"] == pytest.approx(GOLDEN_V, abs=1e-9)
        assert doc["v"][0]["im"] == pytest.approx(0.0, abs=1e-12)
        assert doc["phases"] == ["load::a"]

    def test_three_bus_solves(self, tmp_path):
        out = tmp_path / "sol.json"
        assert run(["solve", NET3, INJ3, "--output", str(out)]) == 0
        doc = json.loads(out.read_text())
        assert len(doc["v"]) == 5
        assert len(doc["i_delta"]) == 4

    def test_roundtrip_lossless(self, tmp_path):
        out = tmp_path / "sol.json"
        run(["solve", NET3, INJ3, "--output", str(out)])
        doc = json.loads(out.read_text())
        text2 = json.dumps(doc, indent=2, sort_keys=True) + "\n"
        assert text2 == out.read_text()

    def test_determinism(self, tmp_path):
        a, b = tmp_path / "a.json", tmp_path / "b.json"
        run(["solve", NET3, INJ3, "--output", str(a)])
        run(["solve", NET3, INJ3, "--output", str(b)])
        assert a.read_bytes() == b.read_bytes()

    def test_bad_file_exits_one(self, tmp_path, capsys):
        # Not JSON, not UTF-8, nested past the recursion limit, and an
        # integer past Python's digit limit: as the network and as the
        # injections, each is one error line that names the file.
        contents = {
            "bad.json": b"{not json",
            "latin1.json": b'{"buses": "caf\xe9"}',
            "deep.json": b"[" * 200_000 + b"]" * 200_000,
            "digits.json": b'{"buses": ' + b"7" * 5000 + b"}",
        }
        for name, data in contents.items():
            bad = tmp_path / name
            bad.write_bytes(data)
            for argv in ([str(bad), INJ1], [NET1, str(bad)]):
                assert run(["solve", *argv]) == 1
                err = capsys.readouterr().err
                assert err.startswith(f"mplf: error: {bad}: ") and err.count("\n") == 1
                assert "Traceback" not in err


class TestCertify:
    def test_theorem2_golden(self, tmp_path):
        out = tmp_path / "cert.json"
        assert run(["certify", NET1, INJ1, "--theorem", "2", "--output", str(out)]) == 0
        doc = json.loads(out.read_text())
        assert doc["satisfied"] is True
        assert doc["rho_used"] == pytest.approx(0.5, abs=1e-12)
        assert doc["rho_dagger"] == pytest.approx(0.1127016654, abs=1e-9)

    def test_theorem1_golden(self, tmp_path):
        out = tmp_path / "cert.json"
        assert run(["certify", NET1, INJ1, "--theorem", "1", "--output", str(out)]) == 0
        assert json.loads(out.read_text())["satisfied"] is True

    def test_unsatisfied_exits_two_with_artifact(self, tmp_path):
        inj = tmp_path / "big.json"
        inj.write_text(json.dumps({"wye": [{"bus": "load", "phase": "a", "re": -0.3, "im": 0.0}]}))
        out = tmp_path / "cert.json"
        assert run(["certify", NET1, str(inj), "--output", str(out)]) == 2
        doc = json.loads(out.read_text())
        assert doc["satisfied"] is False
        assert doc["diagnostics"]["condition2"]["lhs"] == pytest.approx(0.3, abs=1e-12)

    def test_recentered_base(self, tmp_path):
        out = tmp_path / "cert.json"
        code = run(
            ["certify", NET3, INJ3, "--base-injections", INJ3, "--output", str(out)]
        )
        assert code == 0
        doc = json.loads(out.read_text())
        assert doc["satisfied"] is True
        assert doc["rho_dagger"] == pytest.approx(0.0, abs=1e-12)


class TestLinearize:
    @pytest.mark.parametrize("kind", ["fot", "fpl"])
    def test_kinds(self, tmp_path, kind):
        out = tmp_path / "lin.json"
        assert run(["linearize", NET3, INJ3, "--kind", kind, "--output", str(out)]) == 0
        doc = json.loads(out.read_text())
        assert doc["kind"] == kind
        assert len(doc["m_wye"]) == 5
        assert len(doc["m_wye"][0]) == 10
        assert len(doc["m_delta"][0]) == 8

    def test_fpl_offset_is_zero_load_voltage(self, tmp_path):
        out = tmp_path / "lin.json"
        run(["linearize", NET3, INJ3, "--kind", "fpl", "--output", str(out)])
        doc = json.loads(out.read_text())
        import mplf

        model = mplf.network_from_file(NET3)
        w = mplf.zero_load_voltage(model).w
        got = complex(doc["a"][0]["re"], doc["a"][0]["im"])
        assert got == pytest.approx(w[0], abs=1e-15)


class TestSweep:
    def test_row_count_and_summary(self, tmp_path):
        out = tmp_path / "sweep.csv"
        summary = tmp_path / "intervals.json"
        code = run(
            [
                "sweep", NET3, INJ3,
                "--kappa-min", "-1.5", "--kappa-max", "1.5", "--points", "61",
                "--base-kappa", "1.0",
                "--output", str(out), "--interval-output", str(summary),
            ]
        )
        assert code == 0
        lines = out.read_text().strip().splitlines()
        assert len(lines) == 62  # header + 61 rows
        assert lines[0] == "kappa,cert_pass,rho_ddagger,rho_dagger,solver_iters,fot_err,fpl_err"
        doc = json.loads(summary.read_text())
        assert doc["theorem2"]["kappa_max_kind"] == "scan_bound"

    def test_determinism(self, tmp_path):
        args = [
            "sweep", NET3, INJ3,
            "--kappa-min", "-1", "--kappa-max", "1", "--points", "11",
        ]
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        run(args + ["--output", str(a)])
        run(args + ["--output", str(b)])
        assert a.read_bytes() == b.read_bytes()

    def test_every_row_solved_at_loose_step_tolerance(self, tmp_path):
        # At --tol-step 1e-7 the fixed point meets its step tolerance but
        # misses the residual tolerance on some rows; Newton finishes those,
        # where they used to be left blank.
        out = tmp_path / "sweep.csv"
        assert run(["sweep", *IEEE123, "--tol-step", "1e-7", "--output", str(out)]) == 0
        with open(out) as fh:
            rows = list(csv.DictReader(fh))
        assert len(rows) == 61
        for row in rows:
            assert row["solver_iters"] and row["fot_err"] and row["fpl_err"], row

    def test_residual_miss_reported_only_where_final(self, tmp_path):
        # The sweep's fixed point misses the residual tolerance on some rows
        # at --tol-step 1e-7, and Newton finishes them: nothing to report.
        # A solve at --tol-step 1e-6 returns such a miss as its answer.
        cmd = [sys.executable, "-m", "mplf.cli"]
        sweep = subprocess.run(
            cmd + ["sweep", *IEEE123, "--tol-step", "1e-7", "--output", str(tmp_path / "s.csv")],
            capture_output=True,
            text=True,
        )
        assert sweep.returncode == 0 and sweep.stderr == ""
        out = tmp_path / "solve.json"
        solve = subprocess.run(
            cmd + ["solve", *IEEE123, "--tol-step", "1e-6", "--output", str(out)],
            capture_output=True,
            text=True,
        )
        assert solve.returncode == 1
        assert re.fullmatch(
            r"mplf: warning: step converged but residual \S+ exceeds 1\.0e-08\n", solve.stderr
        ), solve.stderr
        assert json.loads(out.read_text())["converged"] is False

    @pytest.mark.parametrize(
        "flag", [["--jobs", "2"], ["--tol-kappa", "0.5"]], ids=["jobs", "tol-kappa"]
    )
    def test_removed_flag_is_a_usage_error(self, flag):
        # The sweep runs serially and its intervals are exact, so these
        # flags are gone; argparse rejects them before anything runs.
        cmd = [sys.executable, "-m", "mplf.cli", "sweep", *IEEE123, "--points", "3", *flag]
        out = subprocess.run(cmd, capture_output=True, text=True)
        assert out.returncode == 2
        assert out.stdout == ""
        assert out.stderr.startswith("usage: mplf ")
        assert out.stderr.endswith(f"mplf: error: unrecognized arguments: {' '.join(flag)}\n")
        assert "Traceback" not in out.stderr


@pytest.mark.parametrize(
    "args",
    [
        ["linearize", "--kind", "fot"],
        ["linearize", "--kind", "fpl"],
        ["certify", "--theorem", "1", "--base-injections", "HALF"],
        ["certify", "--theorem", "2", "--base-injections", "HALF"],
        ["sweep"],
    ],
    ids=["fot", "fpl", "theorem1", "theorem2", "sweep"],
)
def test_tol_residual_reaches_base_checks(tmp_path, args):
    # Solves at --tol-step 1e-4 leave residuals near 1e-6, inside
    # --tol-residual 1e-3 but far above the 1e-8 default.
    half = json.loads(Path(IEEE123[1]).read_text())
    for entry in half["wye"] + half["delta"]:
        entry["re"], entry["im"] = 0.5 * entry["re"], 0.5 * entry["im"]
    half_path = tmp_path / "half.json"
    half_path.write_text(json.dumps(half))
    args = [str(half_path) if a == "HALF" else a for a in args]
    loose = ["--tol-step", "1e-4", "--tol-residual", "1e-3"]
    out = tmp_path / "out"
    assert run([args[0], *IEEE123, *args[1:], *loose, "--output", str(out)]) == 0


class TestDefaults:
    @pytest.mark.parametrize(
        "argv", [["solve"], ["certify"], ["linearize", "--kind", "fot"], ["sweep"]]
    )
    def test_library_defaults(self, argv):
        args = cli.build_parser().parse_args([argv[0], NET1, INJ1, *argv[1:]])
        assert args.tol_step == TOL_STEP
        assert args.tol_residual == BASE_RESIDUAL_TOL
        assert args.max_iter == MAX_ITER

    def test_certify_defaults(self):
        args = cli.build_parser().parse_args(["certify", NET1, INJ1])
        assert args.theorem == 2

    def test_sweep_defaults(self):
        # bench/workloads.py runs its sweeps with these bounds, points and
        # base kappa as well.
        args = cli.build_parser().parse_args(["sweep", NET1, INJ1])
        assert (args.kappa_min, args.kappa_max) == (-1.5, 1.5)
        assert args.points == 61
        assert args.base_kappa == 1.0


class TestConfigValidation:
    def test_negative_tolerance_rejected(self, capsys):
        assert run(["solve", NET1, INJ1, "--tol-step", "-1"]) == 1
        assert "positive" in capsys.readouterr().err

    def test_bad_kappa_range_rejected(self, capsys):
        code = run(
            ["sweep", NET1, INJ1, "--kappa-min", "2", "--kappa-max", "-2", "--points", "3"]
        )
        assert code == 1
        assert "ordered" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "argv, message",
        [
            (["--base-kappa", "5"], "base_kappa = 5.0 lies outside the kappa bounds [-1.5, 1.5]"),
            (
                ["--base-kappa", "0", "--kappa-min", "0.5"],
                "base_kappa = 0.0 lies outside the kappa bounds [0.5, 1.5]",
            ),
        ],
    )
    def test_base_kappa_outside_range_rejected(self, argv, message, capsys):
        # Both used to report "center_kappa must lie within kappa_bounds",
        # which names neither an option nor the value.
        assert run(["sweep", NET1, INJ1, *argv]) == 1
        err = capsys.readouterr().err
        assert err.startswith("mplf: error: ") and message in err

    @pytest.mark.parametrize(
        "argv, field",
        [
            (["sweep", "--kappa-min", "nan"], "kappa_min"),
            (["sweep", "--kappa-max", "nan"], "kappa_max"),
            (["sweep", "--kappa-min=-inf"], "kappa_min"),
            (["sweep", "--base-kappa", "nan"], "base_kappa"),
            (["sweep", "--base-kappa", "inf"], "base_kappa"),
            (["solve", "--tol-step", "nan"], "tol_step"),
            (["certify", "--tol-residual", "inf"], "tol_residual"),
        ],
    )
    def test_non_finite_value_rejected(self, argv, field, capsys):
        # Each used to run: nan kappa bounds escaped as a KeyError, a nan
        # tol_step gave wrong results, inf tol_residual accepted any base
        # pair.
        assert run([argv[0], NET1, INJ1, *argv[1:]]) == 1
        err = capsys.readouterr().err
        assert err.startswith("mplf: error: ") and f"{field} must be finite" in err

    @pytest.mark.parametrize(
        "argv, message",
        [
            (["solve", "--max-iter", "0"], "max_iter must be >= 1"),
            (["linearize", "--kind", "fpl", "--max-iter", "-1"], "max_iter must be >= 1"),
            (["certify", "--max-iter", "0"], "max_iter must be >= 1"),
            (["sweep", "--points", "0"], "max_iter and points must be >= 1"),
        ],
    )
    def test_count_below_one_names_the_subcommand_options(self, argv, message, capsys):
        # solve used to name --points too, which it lacks.
        assert run([argv[0], NET1, INJ1, *argv[1:]]) == 1
        assert capsys.readouterr().err == f"mplf: error: {message}\n"


@pytest.mark.parametrize("argv", [["sweep", "--points", str(10**17)]], ids=["points"])
def test_huge_count_is_an_error_not_a_traceback(argv, capsys):
    # numpy refuses the 800-petabyte grid before it allocates anything;
    # this used to end in a MemoryError traceback.
    assert run([argv[0], *IEEE37, *argv[1:]]) == 1
    err = capsys.readouterr().err
    assert err.startswith("mplf: error: ") and "allocate" in err
    assert len(err.splitlines()) == 1


@pytest.mark.parametrize("subcommand", ["certify", "sweep"])
def test_scan_points_is_a_usage_error(subcommand):
    # Theorem 1 is decided from polynomial roots, with no grid of radii to
    # size; argparse rejects the flag, at any count, before anything runs.
    flag = ["--scan-points", str(10**17)]
    out = subprocess.run(
        [sys.executable, "-m", "mplf.cli", subcommand, *IEEE37, *flag],
        capture_output=True,
        text=True,
    )
    assert out.returncode == 2
    assert out.stdout == ""
    assert out.stderr.startswith("usage: mplf ")
    assert out.stderr.endswith(f"mplf: error: unrecognized arguments: {' '.join(flag)}\n")


@pytest.mark.parametrize(
    "args",
    [
        ["linearize", *IEEE123, "--kind", "fot"],
        ["linearize", *IEEE123, "--kind", "fpl"],
        ["sweep", *IEEE123],
        # 32 delta pairs: the sweep's stacked evaluations scatter them all.
        ["sweep", *IEEE37],
        ["certify", *IEEE123, "--theorem", "1"],
        # From (w, 0) Theorem 2 fails on this loading; the base at the
        # target passes, with a nonzero xi of the base injections.
        ["certify", *IEEE123, "--theorem", "2", "--base-injections", IEEE123[1]],
    ],
    ids=["fot", "fpl", "sweep", "sweep-ieee37", "certify1", "certify2"],
)
def test_artifacts_do_not_depend_on_blas_threads(tmp_path, args):
    # A threaded BLAS mat-vec sums in an order set by its thread count; the
    # artifacts must come out the same with one thread or two.  The
    # certificates carry xi values, read from the tree walk's yll^-1.
    produced = []
    for threads in ("1", "2"):
        env = dict(os.environ, OPENBLAS_NUM_THREADS=threads, OMP_NUM_THREADS=threads)
        out, summary = tmp_path / f"{threads}.out", tmp_path / f"{threads}.json"
        extra = ["--interval-output", str(summary)] if args[0] == "sweep" else []
        cmd = [sys.executable, "-m", "mplf.cli", *args, *extra]
        assert subprocess.run([*cmd, "--output", str(out)], env=env).returncode == 0
        produced.append([path.read_bytes() for path in (out, summary) if path.exists()])
    assert produced[0] == produced[1]


def test_console_entry_point(tmp_path):
    out = subprocess.run(
        [sys.executable, "-m", "mplf.cli", "solve", NET1, INJ1],
        capture_output=True,
        text=True,
    )
    assert out.returncode == 0
    doc = json.loads(out.stdout)
    assert doc["v"][0]["re"] == pytest.approx(GOLDEN_V, abs=1e-9)
