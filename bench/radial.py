"""Seeded synthetic radial feeder, written as mplf network/injection documents.

The tree follows the random generator of the test suite: every new bus
hangs off an earlier one and carries a subset of its parent's phases, and
line blocks come from a mildly coupled random impedance.  The make-up is
the same for every seed, so that the dense work is too; the seed draws the
tree, the line data, which buses are delta-connected and the loads:

* a three-phase trunk of 396 buses, each attached to a uniformly drawn
  earlier trunk bus;
* 12 laterals of 3 buses each, 6 one-phase and 6 two-phase (1242 load
  phases in all);
* delta connections (every pair of the bus) on 119 trunk buses and 6
  two-phase lateral buses: 125 of 432 buses and 363 pairs;
* a wye load on about 70% of phases, a delta load on every delta pair,
  and a wye source on about 5% of phases.

The injections are then scaled with the benchmark's own xi so that the
Theorem-2 interval from the zero-load base ends at ``KAPPA_T2``.
"""

from __future__ import annotations

import numpy as np

from reference import PAIR_ORDER, assemble

TRUNK_BUSES = 396
LATERALS = 12
LATERAL_BUSES = 3
DELTA_TRUNK = 119
DELTA_LATERAL = 6
KAPPA_T2 = 2.0
SLACK_V0 = np.exp(-2j * np.pi / 3 * np.arange(3))


def _c(z) -> dict:
    z = complex(z)
    return {"re": z.real, "im": z.imag}


def _block(mat) -> list:
    return [_c(z) for z in np.asarray(mat).ravel()]


def _line_admittance(rng, k):
    z_self = (0.01 + 0.04j) * (0.5 + rng.random(k))
    z = np.diag(z_self)
    for i in range(k):
        for j in range(i + 1, k):
            z[i, j] = z[j, i] = (0.003 + 0.012j) * (0.5 + rng.random())
    return np.linalg.inv(z)


def radial_documents(seed: int):
    """Network and injection documents of the seeded radial feeder.

    Returns ``(network_doc, injection_doc, feeder)`` where ``feeder`` is the
    benchmark's own nodal model of the network (see :mod:`reference`).
    """
    rng = np.random.default_rng(seed)
    buses = [{"id": "slack", "phases": "abc"}]
    lines = []
    specs = []  # (bus, phases, delta pairs)

    def add_bus(parent, phases):
        bus = f"n{len(specs)}"
        buses.append({"id": bus, "phases": phases})
        y = _line_admittance(rng, len(phases))
        line = {"from": parent, "to": bus, "phases": phases, "series_admittance": _block(y)}
        if rng.random() < 0.3:
            shunt = 1j * np.diag(0.001 * (1.0 + rng.random(len(phases))))
            line["shunt_from"] = line["shunt_to"] = _block(shunt)
        lines.append(line)
        specs.append((bus, phases, []))
        return bus

    trunk = ["slack"]
    starts = sorted(rng.choice(np.arange(20, TRUNK_BUSES), size=LATERALS, replace=False))
    lateral_size = {int(t): 1 + i % 2 for i, t in enumerate(starts)}
    two_phase = []
    for t in range(TRUNK_BUSES):
        trunk.append(add_bus(trunk[int(rng.integers(0, len(trunk)))], "abc"))
        if t in lateral_size:
            size = lateral_size[t]
            phases = "".join(sorted(rng.choice(list("abc"), size=size, replace=False)))
            node = trunk[-1]
            for _ in range(LATERAL_BUSES):
                node = add_bus(node, phases)
                if size == 2:
                    two_phase.append(len(specs) - 1)
    trunk_at = [i for i, (_, phases, _) in enumerate(specs) if phases == "abc"]
    for i in list(rng.choice(trunk_at, DELTA_TRUNK, replace=False)) + list(
        rng.choice(two_phase, DELTA_LATERAL, replace=False)
    ):
        bus, phases, pairs = specs[i]
        pairs.extend(p for p in PAIR_ORDER if p[0] in phases and p[1] in phases)
        buses[i + 1]["delta_connections"] = pairs

    wye, delta = [], []
    for bus, phases, pairs in specs:
        for p in phases:
            u = rng.random()
            if u < 0.05:
                value = complex(0.5 + rng.random(), 0.2 * rng.standard_normal())
            elif u < 0.75:
                pw = 0.5 + rng.random()
                value = -complex(pw, pw * (0.1 + 0.5 * rng.random()))
            else:
                continue
            wye.append((bus, p, value))
        for pair in pairs:
            pw = 0.5 + rng.random()
            delta.append((bus, pair, -complex(pw, pw * (0.1 + 0.5 * rng.random()))))

    network = {
        "buses": buses,
        "lines": lines,
        "slack": {"id": "slack", "voltages": [_c(z) for z in SLACK_V0]},
    }
    feeder = assemble(network)
    raw = {
        "wye": [{"bus": b, "phase": p, "re": z.real, "im": z.imag} for b, p, z in wye],
        "delta": [{"bus": b, "pair": p, "re": z.real, "im": z.imag} for b, p, z in delta],
    }
    xi_raw = feeder.xi(*feeder.injections(raw))
    # Theorem 2 from (w, 0) passes for kappa * xi < gamma(w)^2 / 4.
    scale = feeder.gamma(feeder.w) ** 2 / (4.0 * KAPPA_T2 * xi_raw)
    injections = {
        key: [dict(e, re=e["re"] * scale, im=e["im"] * scale) for e in entries]
        for key, entries in raw.items()
    }
    return network, injections, feeder
