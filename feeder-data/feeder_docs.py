"""Document pieces shared by the IEEE feeder converters.

Complex numbers are written as {"re", "im"} objects and matrices as
row-major lists of them.  Lines come from published ohms/mile and
microsiemens/mile tables; the in-feeder transformer is a per-phase series
impedance on its own rating; the slack is balanced at nominal voltage.
``main`` is the command line of both converters: it prints the total spot
load and writes the network, original-injection and mixed-injection
documents as ``json.dump(indent=2, sort_keys=True)`` plus a newline.
"""

import argparse
import json
import math
from pathlib import Path

import numpy as np

S_BASE_3PH = 1.0e6  # default three-phase power base in VA
FT_PER_MILE = 5280.0
PAIRS = ("ab", "bc", "ca")


def cd(z):
    z = complex(z)
    return {"re": z.real, "im": z.imag}


def block(mat):
    return [cd(z) for z in np.asarray(mat, dtype=complex).ravel()]


def line(a, b, phases, z, b_shunt, feet, z_base):
    """A line of ``feet`` with phase impedances ``z`` in ohms/mile and
    shunt susceptances ``b_shunt`` in microsiemens/mile, in per unit of
    ``z_base``; the shunt is split half to each end."""
    miles = feet / FT_PER_MILE
    shunt = block(1j * (np.asarray(b_shunt) * 1e-6 * miles / 2.0) * z_base)
    return {
        "from": str(a),
        "to": str(b),
        "phases": phases,
        "series_admittance": block(np.linalg.inv(np.asarray(z) * miles) * z_base),
        "shunt_from": shunt,
        "shunt_to": shunt,
    }


def transformer(a, b, kva, r_pct, x_pct, s_base_3ph):
    """A three-phase transformer as a per-phase series impedance of
    ``r_pct + j x_pct`` percent on its own ``kva`` rating."""
    z = complex(r_pct, x_pct) / 100.0 * (s_base_3ph / (kva * 1e3))
    return {"from": str(a), "to": str(b), "phases": "abc", "series_admittance": block(np.eye(3) / z)}


def balanced_slack(bus):
    angle = -2.0 * math.pi / 3.0
    voltages = [cd(1.0), cd(complex(math.cos(angle), math.sin(angle))),
                cd(complex(math.cos(angle), -math.sin(angle)))]
    return {"id": str(bus), "voltages": voltages}


def main(docstring, prefix, build, total_kva):
    """The command line of the converter with module docstring
    ``docstring``: parse ``--s-base`` and ``--out-dir``, print the total
    spot load ``total_kva`` (kW + j kvar) and write ``build(s_base)``'s
    network, injection and mixed-injection documents as
    ``<prefix>_*.json``."""
    parser = argparse.ArgumentParser(description=docstring.splitlines()[0])
    parser.add_argument("--s-base", type=float, default=S_BASE_3PH,
                        help="three-phase power base in VA (default 1e6)")
    parser.add_argument("--out-dir", default=str(Path(__file__).resolve().parents[1] / "src/mplf/data"))
    args = parser.parse_args()

    print(f"total spot load: {total_kva.real:.0f} kW + j{total_kva.imag:.0f} kvar")
    out = Path(args.out_dir)
    for suffix, document in zip(("network", "injections", "injections_mixed"), build(args.s_base)):
        path = out / f"{prefix}_{suffix}.json"
        path.write_text(json.dumps(document, indent=2, sort_keys=True) + "\n")
        print("wrote", path)
