#!/usr/bin/env python3
"""Convert the IEEE 37-node test feeder to the mplf network/injection JSON.

Source data: the IEEE PES Distribution Test Feeder publication (4.8 kV
underground feeder).  Phase impedance matrices are the published ohms/mile
values (Carson-reduced), so no geometry processing happens here; this script
only scales to per unit and assembles documents.

Modeling choices (see README.md in this directory):
  * slack at node 799 on the 4.8 kV side, balanced nominal voltages;
    the substation transformer and the feeder-head regulator (nominal taps)
    are not modeled;
  * transformer XFM-1 (709-775) modeled as a per-phase series impedance on
    its own rating, no load at 775;
  * all spot loads (incl. constant-current/impedance codes) are taken as
    constant power at nominal value, delta-connected, load-negative sign;
  * mixed-source variant adds the wye units at nodes 701/720/730/735/737/742.
"""

import numpy as np

from feeder_docs import PAIRS, balanced_slack, line, main, transformer

V_BASE_LL = 4800.0

# Phase impedance matrices in ohms/mile (upper triangle, symmetric) and
# shunt susceptance diagonals in microsiemens/mile.
CONFIGS = {
    721: {
        "z": [
            [0.2926 + 0.1973j, 0.0673 - 0.0368j, 0.0337 - 0.0417j],
            [0.0673 - 0.0368j, 0.2646 + 0.1900j, 0.0673 - 0.0368j],
            [0.0337 - 0.0417j, 0.0673 - 0.0368j, 0.2926 + 0.1973j],
        ],
        "b": 159.7919,
    },
    722: {
        "z": [
            [0.4751 + 0.2973j, 0.1629 - 0.0326j, 0.1234 - 0.0607j],
            [0.1629 - 0.0326j, 0.4488 + 0.2678j, 0.1629 - 0.0326j],
            [0.1234 - 0.0607j, 0.1629 - 0.0326j, 0.4751 + 0.2973j],
        ],
        "b": 127.8306,
    },
    723: {
        "z": [
            [1.2936 + 0.6713j, 0.4871 + 0.2111j, 0.4585 + 0.1521j],
            [0.4871 + 0.2111j, 1.3022 + 0.6326j, 0.4871 + 0.2111j],
            [0.4585 + 0.1521j, 0.4871 + 0.2111j, 1.2936 + 0.6713j],
        ],
        "b": 74.8405,
    },
    724: {
        "z": [
            [2.0952 + 0.7758j, 0.5204 + 0.2738j, 0.4926 + 0.2123j],
            [0.5204 + 0.2738j, 2.1068 + 0.7398j, 0.5204 + 0.2738j],
            [0.4926 + 0.2123j, 0.5204 + 0.2738j, 2.0952 + 0.7758j],
        ],
        "b": 60.2483,
    },
}

# node A, node B, length (ft), configuration
SEGMENTS = [
    (701, 702, 960, 722),
    (702, 705, 400, 724),
    (702, 713, 360, 723),
    (702, 703, 1320, 722),
    (703, 727, 240, 724),
    (703, 730, 600, 723),
    (704, 714, 80, 724),
    (704, 720, 800, 723),
    (705, 742, 320, 724),
    (705, 712, 240, 724),
    (706, 725, 280, 724),
    (707, 724, 760, 724),
    (707, 722, 120, 724),
    (708, 733, 320, 723),
    (708, 732, 320, 724),
    (709, 731, 600, 723),
    (709, 708, 320, 723),
    (710, 735, 200, 724),
    (710, 736, 1280, 724),
    (711, 741, 400, 723),
    (711, 740, 200, 724),
    (713, 704, 520, 723),
    (714, 718, 520, 724),
    (720, 707, 920, 724),
    (720, 706, 600, 723),
    (727, 744, 280, 723),
    (730, 709, 200, 723),
    (733, 734, 560, 723),
    (734, 737, 640, 723),
    (734, 710, 520, 724),
    (737, 738, 400, 723),
    (738, 711, 400, 723),
    (744, 728, 200, 724),
    (744, 729, 280, 724),
    (799, 701, 1850, 721),
]

# XFM-1 as (from, to, kVA, R%, X%): 500 kVA, 4.8 kV delta / 0.48 kV delta,
# R% / X% on its own rating.
XFM1 = (709, 775, 500.0, 0.09, 1.81)

# Spot loads, kW + j kvar per phase pair (ab, bc, ca); all delta-connected,
# constant-current/impedance codes taken at nominal power.
LOADS = {
    701: (140 + 70j, 140 + 70j, 350 + 175j),
    712: (85 + 40j, 0, 0),
    713: (0, 0, 85 + 40j),
    714: (17 + 8j, 21 + 10j, 0),
    718: (85 + 40j, 0, 0),
    720: (0, 0, 85 + 40j),
    722: (0, 140 + 70j, 21 + 10j),
    724: (0, 42 + 21j, 0),
    725: (0, 42 + 21j, 0),
    727: (0, 0, 42 + 21j),
    728: (42 + 21j, 42 + 21j, 42 + 21j),
    729: (42 + 21j, 0, 0),
    730: (0, 0, 85 + 40j),
    731: (0, 85 + 40j, 0),
    732: (0, 0, 42 + 21j),
    733: (85 + 40j, 0, 0),
    734: (0, 0, 42 + 21j),
    735: (0, 0, 85 + 40j),
    736: (0, 42 + 21j, 0),
    737: (140 + 70j, 0, 0),
    738: (126 + 62j, 0, 0),
    740: (0, 0, 85 + 40j),
    741: (0, 0, 42 + 21j),
    742: (8 + 4j, 85 + 40j, 0),
    744: (42 + 21j, 0, 0),
}

# Mixed-source study: additional wye-connected units, already in per unit
# (load-negative); keys are (node, phase).
MIXED_WYE_PU = {
    (701, "a"): -0.05 - 0.02j,
    (701, "b"): -0.05 - 0.02j,
    (701, "c"): -0.05 - 0.02j,
    (730, "a"): -0.03 - 0.01j,
    (720, "b"): -0.04 - 0.02j,
    (742, "a"): 0.04 + 0.0j,
    (742, "c"): 0.04 + 0.0j,
    (735, "a"): 0.03 + 0.01j,
    (735, "b"): 0.03 + 0.01j,
    (735, "c"): 0.03 + 0.01j,
    (737, "a"): -0.02 - 0.01j,
    (737, "b"): -0.02 - 0.01j,
    (737, "c"): -0.02 - 0.01j,
}

SLACK = 799


def build(s_base_3ph):
    z_base = V_BASE_LL**2 / s_base_3ph
    s_base_1ph = s_base_3ph / 3.0

    buses = []
    for node in sorted({a for a, *_ in SEGMENTS} | {b for _, b, *_ in SEGMENTS} | {XFM1[1]}):
        bus = {"id": str(node), "phases": "abc"}
        pairs = [pair for pair, s in zip(PAIRS, LOADS.get(node, ())) if s != 0]
        if pairs:
            bus["delta_connections"] = pairs
        buses.append(bus)
    lines = [
        line(a, b, "abc", CONFIGS[cfg]["z"], CONFIGS[cfg]["b"] * np.eye(3), length, z_base)
        for a, b, length, cfg in SEGMENTS
    ]
    lines.append(transformer(*XFM1, s_base_3ph))
    network = {"buses": buses, "lines": lines, "slack": balanced_slack(SLACK)}

    delta_entries = []
    for node in sorted(LOADS):
        for pair, s in zip(PAIRS, LOADS[node]):
            if s != 0:
                s_pu = -complex(s) * 1e3 / s_base_1ph
                delta_entries.append({"bus": str(node), "pair": pair, "re": s_pu.real, "im": s_pu.imag})
    wye_entries = [
        {"bus": str(node), "phase": phase, "re": value.real, "im": value.imag}
        for (node, phase), value in sorted(MIXED_WYE_PU.items())
    ]
    return network, {"delta": delta_entries}, {"delta": delta_entries, "wye": wye_entries}


if __name__ == "__main__":
    main(__doc__, "ieee37", build, sum(sum(map(complex, loads)) for loads in LOADS.values()))
