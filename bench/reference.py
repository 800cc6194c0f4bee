"""Quantities the benchmark computes apart from mplf, from the JSON documents.

Everything here is built directly from the network and injection documents
with plain numpy: nodal assembly, the zero-load profile, the power-balance
residual, the injection norms xi and the voltage margins gamma.  The checks
compare the program's answers against these, never against stored output.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

PHASE_ORDER = "abc"
PAIR_ORDER = ("ab", "bc", "ca")


def _cplx(obj) -> complex:
    return complex(float(obj["re"]), float(obj["im"]))


def _canonical(phases: str) -> str:
    return "".join(p for p in PHASE_ORDER if p in phases)


@dataclass
class Feeder:
    """Independent nodal model of one network document.

    Load phases are ordered by bus declaration order, then ``a < b < c``;
    delta pairs by bus, then ``ab < bc < ca``.
    """

    phase_labels: list
    delta_labels: list
    yll: np.ndarray
    yl0: np.ndarray
    v0: np.ndarray
    pair_a: np.ndarray
    pair_b: np.ndarray
    w: np.ndarray

    @property
    def n_phases(self) -> int:
        return len(self.phase_labels)

    @property
    def n_delta(self) -> int:
        return len(self.delta_labels)

    @property
    def lw(self) -> np.ndarray:
        """|w_a| + |w_b| for every delta pair."""
        return np.abs(self.w[self.pair_a]) + np.abs(self.w[self.pair_b])

    def injections(self, doc):
        """Wye and delta injection vectors of an injection document."""
        pidx = {key: i for i, key in enumerate(self.phase_labels)}
        didx = {key: i for i, key in enumerate(self.delta_labels)}
        s_wye = np.zeros(self.n_phases, dtype=complex)
        s_delta = np.zeros(self.n_delta, dtype=complex)
        for e in doc.get("wye", ()):
            s_wye[pidx[(str(e["bus"]), str(e["phase"]))]] += complex(e["re"], e["im"])
        for e in doc.get("delta", ()):
            s_delta[didx[(str(e["bus"]), str(e["pair"]))]] += complex(e["re"], e["im"])
        return s_wye, s_delta

    def residual(self, v, s_wye, s_delta) -> float:
        """Largest per-phase power-balance mismatch at load voltages ``v``.

        Each delta load draws ``i = conj(s / (v_a - v_b))`` out of phase a
        and into phase b; the nodal current is ``yl0 v0 + yll v``.
        """
        v = np.asarray(v, dtype=complex)
        i_node = self.yl0 @ self.v0 + self.yll @ v
        i_pair = np.conj(s_delta / (v[self.pair_a] - v[self.pair_b]))
        i_delta = np.zeros(self.n_phases, dtype=complex)
        np.add.at(i_delta, self.pair_a, i_pair)
        np.add.at(i_delta, self.pair_b, -i_pair)
        mismatch = v * np.conj(i_node) - s_wye - v * np.conj(i_delta)
        return float(np.abs(mismatch).max())

    def xi(self, s_wye, s_delta) -> float:
        """Injection norm xi = xi_wye + xi_delta, from this model's own inverse.

        The dense inverse is formed here and dropped on return, so the
        benchmark does not hold it while the program runs.
        """
        w = self.w
        yll_inv = np.linalg.inv(self.yll)
        weights = np.abs(yll_inv) / np.abs(w)[:, None] / np.abs(w)[None, :]
        xi_wye = float((weights @ np.abs(s_wye)).max())
        if not self.n_delta:
            return xi_wye
        # column p of yll^-1 H^T is yll^-1[:, a_p] - yll^-1[:, b_p]
        yh = yll_inv[:, self.pair_a] - yll_inv[:, self.pair_b]
        weights_d = np.abs(yh) / np.abs(w)[:, None] / self.lw[None, :]
        return xi_wye + float((weights_d @ np.abs(s_delta)).max())

    def gamma(self, v) -> float:
        """min(alpha, beta): phase and phase-pair voltage margins of ``v``."""
        v = np.asarray(v, dtype=complex)
        alpha = float((np.abs(v) / np.abs(self.w)).min())
        if not self.n_delta:
            return alpha
        beta = float((np.abs(v[self.pair_a] - v[self.pair_b]) / self.lw).min())
        return min(alpha, beta)


def assemble(doc) -> Feeder:
    """Standard nodal assembly of a network document, slack phases first."""
    slack = doc["slack"]
    slack_id = str(slack["id"])
    phases = {str(b["id"]): _canonical(str(b["phases"])) for b in doc["buses"]}
    labels = [(slack_id, p) for p in phases[slack_id]]
    delta_labels = []
    for b in doc["buses"]:
        bus = str(b["id"])
        if bus == slack_id:
            continue
        labels.extend((bus, p) for p in phases[bus])
        pairs = set(b.get("delta_connections", ()))
        delta_labels.extend((bus, pair) for pair in PAIR_ORDER if pair in pairs)
    pos = {key: i for i, key in enumerate(labels)}
    size = len(labels)
    y = np.zeros((size, size), dtype=complex)
    for line in doc["lines"]:
        ph = _canonical(str(line["phases"]))
        k = len(ph)
        ends = (
            [pos[(str(line["from"]), p)] for p in ph],
            [pos[(str(line["to"]), p)] for p in ph],
        )
        series = np.array([_cplx(e) for e in line["series_admittance"]]).reshape(k, k)
        for r in range(k):
            for c in range(k):
                for e1 in (0, 1):
                    y[ends[e1][r], ends[e1][c]] += series[r, c]
                    y[ends[e1][r], ends[1 - e1][c]] -= series[r, c]
        for e1, key in enumerate(("shunt_from", "shunt_to")):
            if line.get(key) is not None:
                shunt = np.array([_cplx(e) for e in line[key]]).reshape(k, k)
                for r in range(k):
                    for c in range(k):
                        y[ends[e1][r], ends[e1][c]] += shunt[r, c]
    m = len(phases[slack_id])
    yll = y[m:, m:].copy()
    yl0 = y[m:, :m].copy()
    v0 = np.array([_cplx(v) for v in slack["voltages"]])
    w = -np.linalg.solve(yll, yl0 @ v0)
    load_pos = {key: i for i, key in enumerate(labels[m:])}
    pair_a = np.array([load_pos[(bus, pair[0])] for bus, pair in delta_labels], dtype=int)
    pair_b = np.array([load_pos[(bus, pair[1])] for bus, pair in delta_labels], dtype=int)
    return Feeder(
        phase_labels=labels[m:],
        delta_labels=delta_labels,
        yll=yll,
        yl0=yl0,
        v0=v0,
        pair_a=pair_a,
        pair_b=pair_b,
        w=w,
    )


def t2_ray_interval(feeder: Feeder, v_base, kappa_base, xi_ref, bounds):
    """Closed-form Theorem-2 interval along ``kappa * s_ref`` around a base.

    The base is the solution ``v_base`` at ``kappa_base * s_ref``.  Since xi
    is absolutely homogeneous, condition 2 reads
    ``|kappa - kappa_base| xi_ref < ((gamma^2 - |kappa_base| xi_ref) / (2 gamma))^2``,
    so the half-width is that right side over ``xi_ref``.  Endpoints are
    clipped to the scan bounds.
    """
    gam = feeder.gamma(v_base)
    half = ((gam**2 - abs(kappa_base) * xi_ref) / (2.0 * gam)) ** 2 / xi_ref
    return max(bounds[0], kappa_base - half), min(bounds[1], kappa_base + half)
