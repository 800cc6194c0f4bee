"""The benchmark's workloads: inputs, set-up, the timed op, and its checks.

A workload object is built from the seed (the benchmark's own input
generation, untimed).  ``setup()`` does the program's work that ops reuse;
``op(state)`` is one unit of user work; ``check(state, result, checker)``
verifies its answers.  All calls into mplf go through module attributes so
that the traced run sees them.
"""

from __future__ import annotations

import csv
import io
import json
import shutil
from pathlib import Path

import numpy as np

import mplf
import mplf.cli
from mplf.datafiles import bundled_path

import checks
import radial
import reference

FEEDERS = ("ieee37", "ieee123")
TOL_KAPPA = 1e-3  # feasible_interval's default bisection tolerance
INTERVAL_BOUNDS = (-10.0, 10.0)
SWEEP_BOUNDS = (-1.5, 1.5)  # also the CLI sweep's defaults
SWEEP_POINTS = 61
BASE_KAPPA = 1.0
CLI_BASE_SCALE = 0.5  # certify --theorem 2 recenters at half the mixed loading
FOT_EPS = 0.05  # perturbation for the O(eps^2) tangent check
# The files one cli-artifacts op writes per feeder, as ``<feeder>_<name>``.
ARTIFACTS = ("solve.json", "certify1.json", "certify2.json", "fot.json", "fpl.json",
             "sweep.csv", "intervals.json")


def _load(path):
    with open(path) as fh:
        return json.load(fh)


class BundledFeeders:
    """The benchmark's own models of the bundled feeders with mixed injections."""

    def __init__(self):
        self.paths = {}
        self.refs = {}
        for name in FEEDERS:
            net = bundled_path(f"{name}_network.json")
            inj = bundled_path(f"{name}_injections_mixed.json")
            feeder = reference.assemble(_load(net))
            s_wye, s_delta = feeder.injections(_load(inj))
            self.paths[name] = (str(net), str(inj))
            self.refs[name] = (feeder, s_wye, s_delta, feeder.xi(s_wye, s_delta))


class FeederStudy:
    """Intervals, recentering and the 61-point error sweep on both feeders."""

    name = "feeder-study"

    def __init__(self, seed, out_dir):
        self.data = BundledFeeders()

    def setup(self):
        state = {}
        for name in FEEDERS:
            net, inj = self.data.paths[name]
            model = mplf.network_from_file(net)
            profile = mplf.zero_load_voltage(model)
            state[name] = (model, profile, mplf.injections_from_file(inj, model))
        return state

    def op(self, state):
        out = {}
        kappas = np.linspace(*SWEEP_BOUNDS, SWEEP_POINTS)
        for name, (model, profile, s_ref) in state.items():
            zero_base = (profile.w, mplf.InjectionSet.zeros(model))
            t1 = mplf.feasible_interval(
                model, profile, zero_base, s_ref, theorem=1, kappa_bounds=INTERVAL_BOUNDS
            )
            t2 = mplf.feasible_interval(
                model, profile, zero_base, s_ref, theorem=2, kappa_bounds=INTERVAL_BOUNDS
            )
            recentered = mplf.recentered_interval(
                model, profile, BASE_KAPPA, s_ref, theorem=2, kappa_bounds=INTERVAL_BOUNDS
            )
            base_inj = s_ref.scaled(BASE_KAPPA)
            base_sol = mplf.solve_fixed_point(model, profile, base_inj)
            sweep = mplf.linear_error_sweep(
                model, profile, base_sol, base_inj, s_ref, kappas,
                base_kappa=BASE_KAPPA, kappa_bounds=SWEEP_BOUNDS,
            )
            out[name] = (t1, t2, recentered, base_sol, sweep)
        return out

    def check(self, state, result, c):
        for name, (t1, t2, recentered, base_sol, sweep) in result.items():
            model, profile, s_ref = state[name]
            feeder, s_wye, s_delta, xi_ref = self.data.refs[name]
            checks.residual(c, feeder, base_sol.v, s_wye, s_delta, f"{name} base solve")
            # Closed-form Theorem-2 intervals along the ray.
            checks.endpoints(
                c, t2, reference.t2_ray_interval(feeder, feeder.w, 0.0, xi_ref, INTERVAL_BOUNDS),
                TOL_KAPPA, f"{name} theorem-2 interval",
            )
            checks.endpoints(
                c, recentered,
                reference.t2_ray_interval(feeder, base_sol.v, BASE_KAPPA, xi_ref, INTERVAL_BOUNDS),
                TOL_KAPPA, f"{name} recentered interval",
            )
            sweep_t1, sweep_t2 = sweep.interval_endpoints[1], sweep.interval_endpoints[2]
            checks.endpoints(
                c, sweep_t2,
                reference.t2_ray_interval(feeder, base_sol.v, BASE_KAPPA, xi_ref, SWEEP_BOUNDS),
                TOL_KAPPA, f"{name} sweep theorem-2 endpoints",
            )
            checks.inside(c, t2, t1, TOL_KAPPA, f"{name} zero-base theorem 2 in theorem 1")
            checks.inside(c, sweep_t2, sweep_t1, TOL_KAPPA, f"{name} sweep theorem 2 in theorem 1")
            self._check_rows(c, name, model, profile, s_ref, base_sol, sweep, sweep_t2)

    def _check_rows(self, c, name, model, profile, s_ref, base_sol, sweep, t2):
        feeder, s_wye, s_delta, _ = self.data.refs[name]
        base = (base_sol.v, s_ref.scaled(BASE_KAPPA))
        for kappa, cert, sol, fpl_err in zip(
            sweep.kappas, sweep.certificates, sweep.solutions, sweep.fpl_errors
        ):
            what = f"{name} sweep kappa={kappa:+.2f}"
            if not c.require(sol is not None, f"{what}: no solution"):
                continue
            checks.residual(c, feeder, sol.v, kappa * s_wye, kappa * s_delta, what)
            inner = t2[0] + TOL_KAPPA < kappa < t2[1] - TOL_KAPPA
            outer = kappa < t2[0] - TOL_KAPPA or kappa > t2[1] + TOL_KAPPA
            c.require(not (inner and not cert.satisfied), f"{what}: theorem 2 fails inside its interval")
            c.require(not (outer and cert.satisfied), f"{what}: theorem 2 passes outside its interval")
            if cert.satisfied:
                checks.in_ball(c, sol.v, base_sol.v, cert.rho_dagger, feeder.w, what)
                bound, _ = mplf.fpl_error_bound(model, profile, base, s_ref.scaled(kappa))
                err = fpl_err * float(np.abs(sol.v).max())
                c.require(err <= bound + checks.PROPERTY_SLACK, f"{what}: FPL error {err:.3e} > bound {bound:.3e}")
        # Both models reproduce the base; FPL also the zero-load pair; FOT is
        # second-order accurate around the base.
        k = sweep.kappas
        at_base = int(np.argmin(np.abs(k - BASE_KAPPA)))
        at_zero = int(np.argmin(np.abs(k)))
        for label, err in (
            ("FOT at the base", sweep.fot_errors[at_base]),
            ("FPL at the base", sweep.fpl_errors[at_base]),
            ("FPL at zero load", sweep.fpl_errors[at_zero]),
        ):
            c.require(err is not None and err <= checks.PROPERTY_SLACK, f"{name}: {label} error {err}")
        for side in (-1, 1):
            near, far = sweep.fot_errors[at_base + side], sweep.fot_errors[at_base + 2 * side]
            ratio = far / near if near else float("inf")
            c.require(3.0 <= ratio <= 5.0, f"{name}: FOT error ratio {ratio:.3f} at 2h/h is not ~4")


class Radial1200:
    """Parse, solve, certify, both linear models and the FPL bound on a 1.2k-phase tree."""

    name = "radial-1200"

    def __init__(self, seed, out_dir):
        self.network, self.injections, self.feeder = radial.radial_documents(seed)
        self.s_wye, self.s_delta = self.feeder.injections(self.injections)
        self.xi = self.feeder.xi(self.s_wye, self.s_delta)

    def setup(self):
        return None  # the op starts from the documents; nothing is reused

    def op(self, state):
        model = mplf.network_from_json(self.network)
        s = mplf.injections_from_json(self.injections, model)
        profile = mplf.zero_load_voltage(model)
        sol = mplf.solve_fixed_point(model, profile, s)
        zero = mplf.InjectionSet.zeros(model)
        cert = mplf.check_theorem2(model, profile, (profile.w, zero), s)
        fpl = mplf.fpl_linearize(model, profile, mplf.solve_fixed_point(model, profile, zero), zero)
        fot = mplf.fot_linearize(model, sol, s)
        bound, _ = mplf.fpl_error_bound(model, profile, (profile.w, zero), s)
        return model, profile, s, sol, cert, fpl, fot, bound

    def check(self, state, result, c):
        model, profile, s, sol, cert, fpl, fot, bound = result
        f = self.feeder
        c.require(model.index.phase_labels() == f.phase_labels, "phase order differs from the document")
        c.require(model.index.delta_labels() == f.delta_labels, "delta order differs from the document")
        checks.residual(c, f, sol.v, self.s_wye, self.s_delta, "radial solve")
        # Theorem 2 from (w, 0): condition 2 is xi(s) < gamma^2 / 4 and
        # rho_dagger = gamma/2 - sqrt(gamma^2/4 - xi(s)).
        gam = f.gamma(f.w)
        rho_dagger = gam / 2 - np.sqrt(gam**2 / 4 - self.xi)
        c.require(cert.satisfied, "theorem 2 fails on the scaled radial injections")
        lhs = cert.diagnostics["condition2"]["lhs"]
        c.require(checks.close(lhs, self.xi), f"xi(s) {lhs!r} vs reference {self.xi!r}")
        if cert.satisfied:
            c.require(checks.close(cert.rho_dagger, rho_dagger), f"rho_dagger {cert.rho_dagger!r} vs {rho_dagger!r}")
            checks.in_ball(c, sol.v, f.w, cert.rho_dagger, f.w, "radial solution")
        x = mplf.stack_injections(s)
        fpl_gap = float(np.abs(mplf.evaluate_linear(fpl, x)[0] - sol.v).max())
        c.require(fpl_gap <= bound + checks.PROPERTY_SLACK, f"FPL error {fpl_gap:.3e} > bound {bound:.3e}")
        zero_gap = float(np.abs(mplf.evaluate_linear(fpl, np.zeros_like(x))[0] - f.w).max())
        c.require(zero_gap <= checks.PROPERTY_SLACK, f"FPL misses the zero-load pair by {zero_gap:.2e}")
        base_gap = float(np.abs(mplf.evaluate_linear(fot, x)[0] - sol.v).max())
        c.require(base_gap <= checks.PROPERTY_SLACK, f"FOT misses the base by {base_gap:.2e}")
        errs = []
        for eps in (FOT_EPS, 2 * FOT_EPS):
            target = s.scaled(1.0 + eps)
            fresh = mplf.solve_fixed_point(model, profile, target, v_init=sol.v)
            checks.residual(c, f, fresh.v, (1 + eps) * self.s_wye, (1 + eps) * self.s_delta, f"fresh solve eps={eps}")
            errs.append(float(np.abs(mplf.evaluate_linear(fot, x * (1.0 + eps))[0] - fresh.v).max()))
        ratio = errs[1] / errs[0] if errs[0] else float("inf")
        c.require(3.0 <= ratio <= 5.0, f"FOT error ratio {ratio:.3f} at 2eps/eps is not ~4")


class CliArtifacts:
    """Every mplf subcommand, in-process, on both feeders, writing artifacts."""

    name = "cli-artifacts"

    def __init__(self, seed, out_dir):
        self.data = BundledFeeders()
        self.dir = Path(out_dir) / "cli"
        self.dir.mkdir(parents=True, exist_ok=True)
        self.commands = []  # (feeder, subcommand label, argv)
        self.base = {}
        for name in FEEDERS:
            net, inj = self.data.paths[name]
            doc = _load(inj)
            base_doc = {
                key: [dict(e, re=e["re"] * CLI_BASE_SCALE, im=e["im"] * CLI_BASE_SCALE) for e in entries]
                for key, entries in doc.items()
            }
            base_path = self.dir / f"{name}_base_injections.json"
            base_path.write_text(json.dumps(base_doc))
            self.base[name] = self.data.refs[name][0].injections(base_doc)
            out = f"{self.dir / name}_"
            self.commands += [
                (name, "solve", ["solve", net, inj, "--output", out + "solve.json"]),
                (name, "certify1", ["certify", net, inj, "--theorem", "1", "--output", out + "certify1.json"]),
                (name, "certify2", ["certify", net, inj, "--theorem", "2", "--base-injections",
                                    str(base_path), "--output", out + "certify2.json"]),
                (name, "fot", ["linearize", net, inj, "--kind", "fot", "--output", out + "fot.json"]),
                (name, "fpl", ["linearize", net, inj, "--kind", "fpl", "--output", out + "fpl.json"]),
                (name, "sweep", ["sweep", net, inj, "--output", out + "sweep.csv",
                                 "--interval-output", out + "intervals.json"]),
            ]
        self.digests = None

    def artifacts(self):
        return sorted(p for p in self.dir.iterdir() if not p.name.endswith("_base_injections.json"))

    def close(self):
        shutil.rmtree(self.dir, ignore_errors=True)

    def setup(self):
        return None  # every subcommand reads its own inputs

    def op(self, state):
        return [(name, label, mplf.cli.main(argv)) for name, label, argv in self.commands]

    def check(self, state, result, c):
        for name, label, code in result:
            c.require(code == 0, f"{name} {label}: exit code {code}")
        found = {p.name: p for p in self.artifacts()}
        if self.digests is None:
            expected = {f"{name}_{key}" for name in FEEDERS for key in ARTIFACTS}
            if not c.require(set(found) == expected, f"expected artifacts {sorted(expected)}, got {sorted(found)}"):
                return
            digests = {}
            for name in FEEDERS:
                self._check_feeder(c, name, found, digests)
            if not c.failures:
                self.digests = digests
            return
        c.require(set(found) == set(self.digests), "the set of artifacts changed")
        for key, path in found.items():
            if key in self.digests:
                checks.same_bytes(c, self.digests[key], path.read_bytes(), key)

    def _check_feeder(self, c, name, found, digests):
        """Check one feeder's artifacts, reading and parsing one at a time."""

        def read(key):
            data = found[f"{name}_{key}"].read_bytes()
            digests[f"{name}_{key}"] = checks.digest(data)
            return data

        def load(key):
            return checks.strict_json(c, read(f"{key}.json"), f"{name} {key}")

        feeder, s_wye, s_delta, xi_ref = self.data.refs[name]
        solve = load("solve")
        if solve is None:
            return
        labels = ["{}::{}".format(*key) for key in feeder.phase_labels]
        c.require(solve["converged"] and solve["phases"] == labels, f"{name} solve: not converged or phases reordered")
        v1 = checks.cvec(solve["v"])
        checks.residual(c, feeder, v1, s_wye, s_delta, f"{name} solve artifact")

        cert1 = load("certify1")
        if cert1 is not None:
            c.require(cert1["satisfied"], f"{name} certify1: the certificate does not pass")
            xi_t = cert1["diagnostics"]["xi_target"]
            c.require(checks.close(xi_t["wye"] + xi_t["delta"], xi_ref), f"{name} certify1: xi(s) vs reference")
        cert2 = load("certify2")
        if cert2 is not None:
            c.require(cert2["satisfied"], f"{name} certify2: the certificate does not pass")
            b_wye, b_delta = self.base[name]
            v_base = checks.cvec(cert2["base"]["v"])
            checks.residual(c, feeder, v_base, b_wye, b_delta, f"{name} certify2 base")
            xi_half = CLI_BASE_SCALE * xi_ref
            gam = feeder.gamma(v_base)
            rho = (gam**2 - xi_half) / (2 * gam)
            diag = cert2["diagnostics"]
            c.require(checks.close(diag["condition1"]["lhs"], xi_half), f"{name} certify2: xi(s_hat) vs reference")
            c.require(checks.close(diag["condition2"]["lhs"], xi_half), f"{name} certify2: xi(s - s_hat) vs reference")
            c.require(checks.close(cert2["rho_used"], rho), f"{name} certify2: rho vs closed form")

        for kind in ("fot", "fpl"):
            doc = load(kind)  # about 15 MB on ieee123: parsed and dropped in turn
            if doc is None:
                continue
            base_v = checks.linear_artifact(c, doc, f"{name} {kind}")
            checks.residual(c, feeder, base_v, s_wye, s_delta, f"{name} {kind} base")
            if kind == "fpl":
                w_gap = float(np.abs(checks.cvec(doc["a"]) - feeder.w).max())
                c.require(w_gap <= checks.PROPERTY_SLACK, f"{name} fpl: offset misses w by {w_gap:.2e}")
            del doc

        rows = list(csv.reader(io.StringIO(read("sweep.csv").decode())))
        kappas = np.array([float(r[0]) for r in rows[1:]])
        c.require(
            len(rows) == SWEEP_POINTS + 1
            and np.allclose(kappas, np.linspace(*SWEEP_BOUNDS, SWEEP_POINTS), rtol=0, atol=1e-12)
            and all(r[4] for r in rows[1:]),
            f"{name} sweep: rows or kappa grid wrong, or a point unsolved",
        )
        iv = load("intervals")
        if iv is None:
            return
        t1 = (iv["theorem1"]["kappa_min"], iv["theorem1"]["kappa_max"])
        t2 = (iv["theorem2"]["kappa_min"], iv["theorem2"]["kappa_max"])
        checks.inside(c, t2, t1, TOL_KAPPA, f"{name} intervals: theorem 2 in theorem 1")
        checks.endpoints(
            c, t2, reference.t2_ray_interval(feeder, v1, BASE_KAPPA, xi_ref, SWEEP_BOUNDS),
            TOL_KAPPA, f"{name} intervals: theorem 2",
        )


WORKLOADS = {cls.name: cls for cls in (FeederStudy, Radial1200, CliArtifacts)}
