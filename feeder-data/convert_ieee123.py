#!/usr/bin/env python3
"""Convert the IEEE 123-node test feeder to the mplf network/injection JSON.

Source data: the IEEE PES Distribution Test Feeder publication (4.16 kV
feeder with one-, two-, and three-phase laterals).  Overhead configurations
1-6 share one conductor/spacing arrangement and differ only in which phase
occupies which crossarm position, so their matrices are generated here by
permuting the position-impedance matrix of configuration 1.

Modeling choices (see README.md in this directory):
  * slack at node 150, balanced nominal voltages; the substation regulator
    150-149 is at nominal taps, so 149 merges into 150;
  * closed switches (13-152, 18-135, 60-160, 97-197) merge their node pairs;
    open switches (54-94, 151-300, 300-350, 250-251, 450-451) are dropped
    together with nodes that only they would reach;
  * in-line regulators (9-14, 25-26, 160-67) at nominal taps: the underlying
    line segments are kept, the regulators are identity;
  * transformer XFM-1 (61-610) modeled as a per-phase series impedance on
    its own rating, no load at 610;
  * all spot loads (incl. constant-current/impedance codes) are constant
    power at nominal value, load-negative sign;
  * mixed-source variant adds the units of the continuation study at nodes
    1/35/76/99 (per-unit values used verbatim).
"""

import numpy as np

from feeder_docs import PAIRS, balanced_slack, line, main, transformer

V_BASE_LL = 4160.0

# Position impedance matrix (ohms/mile) and shunt susceptance (uS/mile) of
# the 336,400 26/7 ACSR / 4/0 6/1 ACSR crossarm used by configurations 1-6;
# configuration 1 is phased A-B-C onto positions 1-2-3.
POS_Z = np.array(
    [
        [0.4576 + 1.0780j, 0.1560 + 0.5017j, 0.1535 + 0.3849j],
        [0.1560 + 0.5017j, 0.4666 + 1.0482j, 0.1580 + 0.4236j],
        [0.1535 + 0.3849j, 0.1580 + 0.4236j, 0.4615 + 1.0651j],
    ]
)
POS_B = np.array(
    [
        [5.6765, -1.8319, -0.6982],
        [-1.8319, 5.9809, -1.1645],
        [-0.6982, -1.1645, 5.3971],
    ]
)
PHASING = {1: "abc", 2: "cab", 3: "bca", 4: "cba", 5: "bac", 6: "acb"}

# Configurations 7 (phases a, c) and 8 (phases a, b) share one two-phase
# impedance and susceptance.
TWO_PHASE = (
    np.array([[0.4576 + 1.0780j, 0.1535 + 0.3849j], [0.1535 + 0.3849j, 0.4615 + 1.0651j]]),
    np.array([[5.6990, -1.0817], [-1.0817, 5.1795]]),
)


def _permuted(phasing):
    # position p carries phase phasing[p]; return matrices in a,b,c order
    order = [phasing.index(p) for p in "abc"]
    return "abc", POS_Z[np.ix_(order, order)], POS_B[np.ix_(order, order)]


# configuration -> (phases, ohms/mile, uS/mile)
CONFIGS = {
    **{cfg: _permuted(phasing) for cfg, phasing in PHASING.items()},
    7: ("ac", *TWO_PHASE),
    8: ("ab", *TWO_PHASE),
    **{
        cfg: (phase, np.array([[1.3292 + 1.3475j]]), np.array([[4.5193]]))
        for cfg, phase in ((9, "a"), (10, "b"), (11, "c"))
    },
    12: (
        "abc",
        np.array(
            [
                [1.5209 + 0.7521j, 0.5198 + 0.2775j, 0.4924 + 0.2157j],
                [0.5198 + 0.2775j, 1.5329 + 0.7162j, 0.5198 + 0.2775j],
                [0.4924 + 0.2157j, 0.5198 + 0.2775j, 1.5209 + 0.7521j],
            ]
        ),
        np.diag([88.9912, 88.9912, 88.9912]),
    ),
}


# node A, node B, length (ft), configuration
SEGMENTS = [
    (1, 2, 175, 10), (1, 3, 250, 11), (1, 7, 300, 1),
    (3, 4, 200, 11), (3, 5, 325, 11), (5, 6, 250, 11),
    (7, 8, 200, 1),
    (8, 12, 225, 10), (8, 9, 225, 9), (8, 13, 300, 1),
    (9, 14, 425, 9),
    (13, 34, 150, 11), (13, 18, 825, 2),
    (14, 11, 250, 9), (14, 10, 250, 9),
    (15, 16, 375, 11), (15, 17, 350, 11),
    (18, 19, 250, 9), (18, 21, 300, 2),
    (19, 20, 325, 9),
    (21, 22, 525, 10), (21, 23, 250, 2),
    (23, 24, 550, 11), (23, 25, 275, 2),
    (25, 26, 350, 7), (25, 28, 200, 2),
    (26, 27, 275, 7), (26, 31, 225, 11),
    (27, 33, 500, 9),
    (28, 29, 300, 2),
    (29, 30, 350, 2),
    (30, 250, 200, 2),
    (31, 32, 300, 11),
    (34, 15, 100, 11),
    (35, 36, 650, 8), (35, 40, 250, 1),
    (36, 37, 300, 9), (36, 38, 250, 10),
    (38, 39, 325, 10),
    (40, 41, 325, 11), (40, 42, 250, 1),
    (42, 43, 500, 10), (42, 44, 200, 1),
    (44, 45, 200, 9), (44, 47, 250, 1),
    (45, 46, 300, 9),
    (47, 48, 150, 4), (47, 49, 250, 4),
    (49, 50, 250, 4),
    (50, 51, 250, 4),
    (51, 151, 500, 4),
    (52, 53, 200, 1),
    (53, 54, 125, 1),
    (54, 55, 275, 1), (54, 57, 350, 3),
    (55, 56, 275, 1),
    (57, 58, 250, 10), (57, 60, 750, 3),
    (58, 59, 250, 10),
    (60, 61, 550, 5), (60, 62, 250, 12),
    (62, 63, 175, 12),
    (63, 64, 350, 12),
    (64, 65, 425, 12),
    (65, 66, 325, 12),
    (67, 68, 200, 9), (67, 72, 275, 3), (67, 97, 250, 3),
    (68, 69, 275, 9),
    (69, 70, 325, 9),
    (70, 71, 275, 9),
    (72, 73, 275, 11), (72, 76, 200, 3),
    (73, 74, 350, 11),
    (74, 75, 400, 11),
    (76, 77, 400, 6), (76, 86, 700, 3),
    (77, 78, 100, 6),
    (78, 79, 225, 6), (78, 80, 475, 6),
    (80, 81, 475, 6),
    (81, 82, 250, 6), (81, 84, 675, 11),
    (82, 83, 250, 6),
    (84, 85, 475, 11),
    (86, 87, 450, 6),
    (87, 88, 175, 9), (87, 89, 275, 6),
    (89, 90, 225, 10), (89, 91, 225, 6),
    (91, 92, 300, 11), (91, 93, 225, 6),
    (93, 94, 275, 9), (93, 95, 300, 6),
    (95, 96, 200, 10),
    (97, 98, 275, 3),
    (98, 99, 550, 3),
    (99, 100, 300, 3),
    (100, 450, 800, 3),
    (101, 102, 225, 11), (101, 105, 275, 3),
    (102, 103, 325, 11),
    (103, 104, 700, 11),
    (105, 106, 225, 10), (105, 108, 325, 3),
    (106, 107, 575, 10),
    (108, 109, 450, 9), (108, 300, 1000, 3),
    (109, 110, 300, 9),
    (110, 111, 575, 9), (110, 112, 125, 9),
    (112, 113, 525, 9),
    (113, 114, 325, 9),
    (135, 35, 375, 4),
    (149, 1, 400, 1),
    (152, 52, 400, 1),
    (160, 67, 350, 6),
    (197, 101, 250, 3),
]

# Closed switches / nominal-tap substation regulator: merged node pairs.
MERGES = {149: 150, 152: 13, 135: 18, 160: 60, 197: 97}

# XFM-1 as (from, to, kVA, R%, X%): 150 kVA, 4.16 kV / 0.48 kV, R% / X% on
# its own rating.
XFM1 = (61, 610, 150.0, 1.27, 2.72)

# Spot loads: node -> (connection, [(phase-or-pair, kW + j kvar), ...]);
# constant-current/impedance codes taken at nominal power.
LOADS = {
    1: ("Y", [("a", 40 + 20j)]),
    2: ("Y", [("b", 20 + 10j)]),
    4: ("Y", [("c", 40 + 20j)]),
    5: ("Y", [("c", 20 + 10j)]),
    6: ("Y", [("c", 40 + 20j)]),
    7: ("Y", [("a", 20 + 10j)]),
    9: ("Y", [("a", 40 + 20j)]),
    10: ("Y", [("a", 20 + 10j)]),
    11: ("Y", [("a", 40 + 20j)]),
    12: ("Y", [("b", 20 + 10j)]),
    16: ("Y", [("c", 40 + 20j)]),
    17: ("Y", [("c", 20 + 10j)]),
    19: ("Y", [("a", 40 + 20j)]),
    20: ("Y", [("a", 40 + 20j)]),
    22: ("Y", [("b", 40 + 20j)]),
    24: ("Y", [("c", 40 + 20j)]),
    28: ("Y", [("a", 40 + 20j)]),
    29: ("Y", [("a", 40 + 20j)]),
    30: ("Y", [("c", 40 + 20j)]),
    31: ("Y", [("c", 20 + 10j)]),
    32: ("Y", [("c", 20 + 10j)]),
    33: ("Y", [("a", 40 + 20j)]),
    34: ("Y", [("c", 40 + 20j)]),
    35: ("D", [("ab", 40 + 20j)]),
    37: ("Y", [("a", 40 + 20j)]),
    38: ("Y", [("b", 20 + 10j)]),
    39: ("Y", [("b", 20 + 10j)]),
    41: ("Y", [("c", 20 + 10j)]),
    42: ("Y", [("a", 20 + 10j)]),
    43: ("Y", [("b", 40 + 20j)]),
    45: ("Y", [("a", 20 + 10j)]),
    46: ("Y", [("a", 20 + 10j)]),
    47: ("Y", [("a", 35 + 25j), ("b", 35 + 25j), ("c", 35 + 25j)]),
    48: ("Y", [("a", 70 + 50j), ("b", 70 + 50j), ("c", 70 + 50j)]),
    49: ("Y", [("a", 35 + 25j), ("b", 70 + 50j), ("c", 35 + 20j)]),
    50: ("Y", [("c", 40 + 20j)]),
    51: ("Y", [("a", 20 + 10j)]),
    52: ("Y", [("a", 40 + 20j)]),
    53: ("Y", [("a", 40 + 20j)]),
    55: ("Y", [("a", 20 + 10j)]),
    56: ("Y", [("b", 20 + 10j)]),
    58: ("Y", [("b", 20 + 10j)]),
    59: ("Y", [("b", 20 + 10j)]),
    60: ("Y", [("a", 20 + 10j)]),
    62: ("Y", [("c", 40 + 20j)]),
    63: ("Y", [("a", 40 + 20j)]),
    64: ("Y", [("b", 75 + 35j)]),
    65: ("D", [("ab", 35 + 25j), ("bc", 35 + 25j), ("ca", 70 + 50j)]),
    66: ("Y", [("c", 75 + 35j)]),
    68: ("Y", [("a", 20 + 10j)]),
    69: ("Y", [("a", 40 + 20j)]),
    70: ("Y", [("a", 20 + 10j)]),
    71: ("Y", [("a", 40 + 20j)]),
    73: ("Y", [("c", 40 + 20j)]),
    74: ("Y", [("c", 40 + 20j)]),
    75: ("Y", [("c", 40 + 20j)]),
    76: ("D", [("ab", 105 + 80j), ("bc", 70 + 50j), ("ca", 70 + 50j)]),
    77: ("Y", [("b", 40 + 20j)]),
    79: ("Y", [("a", 40 + 20j)]),
    80: ("Y", [("b", 40 + 20j)]),
    82: ("Y", [("a", 40 + 20j)]),
    83: ("Y", [("c", 20 + 10j)]),
    84: ("Y", [("c", 20 + 10j)]),
    85: ("Y", [("c", 40 + 20j)]),
    86: ("Y", [("b", 20 + 10j)]),
    87: ("Y", [("b", 40 + 20j)]),
    88: ("Y", [("a", 40 + 20j)]),
    90: ("Y", [("b", 40 + 20j)]),
    92: ("Y", [("c", 40 + 20j)]),
    94: ("Y", [("a", 40 + 20j)]),
    95: ("Y", [("b", 20 + 10j)]),
    96: ("Y", [("b", 20 + 10j)]),
    98: ("Y", [("a", 40 + 20j)]),
    99: ("Y", [("b", 40 + 20j)]),
    100: ("Y", [("c", 40 + 20j)]),
    102: ("Y", [("c", 20 + 10j)]),
    103: ("Y", [("c", 40 + 20j)]),
    104: ("Y", [("c", 40 + 20j)]),
    106: ("Y", [("b", 40 + 20j)]),
    107: ("Y", [("b", 40 + 20j)]),
    109: ("Y", [("a", 40 + 20j)]),
    111: ("Y", [("a", 20 + 10j)]),
    112: ("Y", [("a", 20 + 10j)]),
    113: ("Y", [("a", 40 + 20j)]),
    114: ("Y", [("a", 20 + 10j)]),
}

# Mixed-source study additions, already per unit (generation-positive sign).
MIXED_PU = [
    (1, "D", "ab", -0.03 - 0.01j),
    (1, "D", "bc", -0.03 - 0.01j),
    (1, "D", "ca", -0.03 - 0.01j),
    (35, "Y", "a", -0.02 + 0j),
    (35, "Y", "b", -0.02 + 0j),
    (35, "Y", "c", -0.02 + 0j),
    (76, "Y", "a", 0.04 + 0.01j),
    (76, "Y", "b", 0.04 + 0.01j),
    (76, "Y", "c", 0.04 + 0.01j),
    (99, "D", "ab", -0.02 - 0.01j),
    (99, "D", "bc", -0.02 - 0.01j),
    (99, "D", "ca", -0.02 - 0.01j),
]

SLACK = 150


def node_id(n):
    return str(MERGES.get(n, n))


def injections(entries):
    """Wye and delta entries of ``(node, "Y" or "D", phase or pair, s_pu)``."""
    doc = {"wye": [], "delta": []}
    for node, conn, key, s_pu in entries:
        kind, field = ("wye", "phase") if conn == "Y" else ("delta", "pair")
        doc[kind].append({"bus": node_id(node), field: key, "re": s_pu.real, "im": s_pu.imag})
    return doc


def build(s_base_3ph):
    z_base = V_BASE_LL**2 / s_base_3ph
    s_base_1ph = s_base_3ph / 3.0

    phases = {}
    for a, b, span in [(a, b, CONFIGS[cfg][0]) for a, b, _, cfg in SEGMENTS] + [(*XFM1[:2], "abc")]:
        for end in (node_id(a), node_id(b)):
            phases.setdefault(end, set()).update(span)
    loads = [
        (node, conn, key, -complex(s) * 1e3 / s_base_1ph)
        for node in sorted(LOADS)
        for conn, entries in [LOADS[node]]
        for key, s in entries
    ]
    delta_pairs = {}
    for node, conn, key, _ in loads + MIXED_PU:
        if conn == "D":
            delta_pairs.setdefault(node_id(node), set()).add(key)

    buses = []
    for b in sorted(phases, key=lambda b: (len(b), b)):
        doc = {"id": b, "phases": "".join(p for p in "abc" if p in phases[b])}
        pairs = [p for p in PAIRS if p in delta_pairs.get(b, ())]
        if pairs:
            doc["delta_connections"] = pairs
        buses.append(doc)
    lines = [
        line(node_id(a), node_id(b), *CONFIGS[cfg], ft, z_base)
        for a, b, ft, cfg in SEGMENTS
    ]
    lines.append(transformer(node_id(XFM1[0]), node_id(XFM1[1]), *XFM1[2:], s_base_3ph))
    network = {"buses": buses, "lines": lines, "slack": balanced_slack(node_id(SLACK))}
    return network, injections(loads), injections(loads + MIXED_PU)


if __name__ == "__main__":
    total = sum(sum(s for _, s in entries) for _, entries in LOADS.values())
    main(__doc__, "ieee123", build, total)
