"""Answer checks shared by the workloads.

Each check compares an answer of mplf against a quantity the benchmark
computed itself (see :mod:`reference`) or against a property the method
guarantees.  A check records a message on the :class:`Checker` instead of
raising, so one op reports every problem it has.
"""

from __future__ import annotations

import hashlib
import json

import numpy as np

# The solver's own residual tolerance; a returned voltage must meet it.
RESIDUAL_TOL = 1e-8
# Slack for inequalities that hold with equality at the base point.
PROPERTY_SLACK = 1e-9
# Agreement of closed forms that differ from mplf only by rounding.
REL_TOL = 1e-8


class Checker:
    """Collects the failures of one op."""

    def __init__(self):
        self.failures = []

    def require(self, ok, message):
        if not ok:
            self.failures.append(message)
        return bool(ok)


def close(a, b, rel=REL_TOL) -> bool:
    return abs(a - b) <= rel * max(abs(a), abs(b), 1e-300)


def residual(c: Checker, feeder, v, s_wye, s_delta, what):
    """Reference power-balance residual of a returned voltage."""
    r = feeder.residual(v, s_wye, s_delta)
    c.require(r <= RESIDUAL_TOL, f"{what}: reference residual {r:.3e} > {RESIDUAL_TOL:.0e}")


def endpoints(c: Checker, got, want, tol, what):
    """Both interval endpoints within ``tol`` of the closed form."""
    gap = max(abs(got[0] - want[0]), abs(got[1] - want[1]))
    c.require(gap <= tol, f"{what}: endpoints {got} vs closed form {want} (gap {gap:.2e} > {tol:.0e})")


def inside(c: Checker, inner, outer, tol, what):
    """``inner`` lies inside ``outer`` up to the bisection tolerance."""
    ok = inner[0] >= outer[0] - tol and inner[1] <= outer[1] + tol
    c.require(ok, f"{what}: {inner} not inside {outer}")


def in_ball(c: Checker, v, v_hat, rho, w, what):
    """|v - v_hat| <= rho |w| entrywise."""
    excess = float((np.abs(np.asarray(v) - v_hat) - rho * np.abs(w)).max())
    c.require(excess <= PROPERTY_SLACK, f"{what}: outside the rho-dagger ball by {excess:.2e}")


def strict_json(c: Checker, data: bytes, what):
    """Parse an artifact as strict JSON (no NaN or Infinity); None on failure."""

    def reject(token):
        raise ValueError(f"non-finite constant {token}")

    try:
        return json.loads(data, parse_constant=reject)
    except ValueError as exc:
        c.require(False, f"{what}: not strict JSON ({exc})")
        return None


def digest(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def same_bytes(c: Checker, first_digest, data: bytes, what):
    c.require(digest(data) == first_digest, f"{what}: artifact bytes differ from the first op")


def cvec(entries) -> np.ndarray:
    return np.array([complex(e["re"], e["im"]) for e in entries], dtype=complex)


def cmat(rows) -> np.ndarray:
    return np.array([[complex(e["re"], e["im"]) for e in row] for row in rows], dtype=complex)


def linear_artifact(c: Checker, doc, what):
    """a + M base_x = base_v and b + K base_x = |base_v| in a linear-model artifact."""
    m = np.hstack([cmat(doc["m_wye"]), cmat(doc["m_delta"])])
    k = np.hstack([np.array(doc["k_wye"], dtype=float), np.array(doc["k_delta"], dtype=float)])
    x = np.array(doc["base_x"], dtype=float)
    base_v = cvec(doc["base_v"])
    gap_v = float(np.abs(cvec(doc["a"]) + m @ x - base_v).max())
    gap_abs = float(np.abs(np.array(doc["b"]) + k @ x - np.abs(base_v)).max())
    c.require(gap_v <= PROPERTY_SLACK, f"{what}: a + M x_hat misses base_v by {gap_v:.2e}")
    c.require(gap_abs <= PROPERTY_SLACK, f"{what}: b + K x_hat misses |base_v| by {gap_abs:.2e}")
    return base_v
