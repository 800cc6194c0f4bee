"""Multiphase network model: index maps, phase-pair incidence, partitioned
admittance assembly, and the zero-load voltage profile.

A network is a single slack bus plus PQ buses, each carrying an arbitrary
nonempty subset of the phases ``a``, ``b``, ``c``.  Lines supply per-phase
series admittance blocks (and optional shunt blocks) directly in per unit;
impedance-to-admittance conversion from feeder data sheets lives in the
``feeder-data`` converter scripts, not here.
"""

from __future__ import annotations

import bisect
import cmath
import json
import math
import os
from dataclasses import dataclass, field
from functools import cached_property

import numpy as np
import scipy.sparse
import scipy.sparse.csgraph
import scipy.sparse.linalg

from .errors import (
    DegenerateProfileError,
    InputFormatError,
    ModelError,
    SingularModelError,
)

PHASES = "abc"
DELTA_PAIRS = ("ab", "bc", "ca")

# Numerical guards used at model-build time.
SYMMETRY_RTOL = 1e-12
RCOND_FLOOR = 1e-14
PROFILE_FLOOR = 1e-12

# Identity columns per solve in ``LUFactor.inverse``, and buses per step of
# the tree walk in ``_tree_inverse``.
INVERSE_BLOCK = 32

# Entries per column block of ``NetworkModel.xi_weights``: 128 KiB of
# weights and 256 KiB of ``yll^-1``, which stay in a core's L2 cache.
XI_BLOCK = 2**14


# Phase strings already in canonical order, which ``canonical_phases`` returns as they are.
_CANONICAL_PHASES = frozenset({"a", "b", "c", "ab", "ac", "bc", "abc"})


def canonical_phases(phases) -> str:
    """Normalize a phase set (string or iterable) to canonical 'abc' order."""
    if isinstance(phases, str) and phases in _CANONICAL_PHASES:
        return phases
    seen = set(phases)
    bad = seen - set(PHASES)
    if bad or not seen:
        raise InputFormatError(f"invalid phase set {phases!r}; expected subset of 'abc'")
    return "".join(p for p in PHASES if p in seen)


@dataclass(frozen=True)
class PhaseIndexMap:
    """Deterministic indexing of existing phases and phase-pair connections.

    PQ buses are numbered in declaration order; within a bus, phases follow
    ``a < b < c`` and delta pairs follow ``ab < bc < ca``.  The slack bus is
    indexed separately by the owning :class:`NetworkModel`.  Both dicts hold
    their keys in index order.
    """

    bus_ids: tuple
    phases_per_bus: tuple
    phase_index: dict = field(repr=False)
    delta_index: dict = field(repr=False)

    @property
    def bus_count(self) -> int:
        return len(self.bus_ids)

    @property
    def n_phases(self) -> int:
        return len(self.phase_index)

    @property
    def n_delta(self) -> int:
        return len(self.delta_index)

    def phase_labels(self):
        """(bus, phase) pairs ordered by column index."""
        return list(self.phase_index)

    def delta_labels(self):
        """(bus, pair) pairs ordered by row index."""
        return list(self.delta_index)


def build_phase_index(bus_ids, phases_per_bus, pairs_per_bus):
    """The ``PhaseIndexMap`` of the PQ buses and their pair incidence
    ``ConnectionMatrix``, numbered in one pass over the buses."""
    keys = [(bus, p) for bus, phases in zip(bus_ids, phases_per_bus) for p in phases]
    phase_index, delta_index, ends = dict(zip(keys, range(len(keys)))), {}, []
    for bus, phases, pairs in zip(bus_ids, phases_per_bus, pairs_per_bus):
        for pair in pairs:
            if pair[0] not in phases or pair[1] not in phases:
                raise ModelError(
                    f"bus {bus!r}: delta connection {pair!r} references a missing phase"
                )
            delta_index[(bus, pair)] = len(delta_index)
            ends += (phase_index[(bus, pair[0])], phase_index[(bus, pair[1])])
    first, second = np.array(ends, dtype=np.intp).reshape(-1, 2).T.copy()
    for arr in (first, second):
        arr.setflags(write=False)
    index = PhaseIndexMap(
        bus_ids=tuple(bus_ids),
        phases_per_bus=tuple(phases_per_bus),
        phase_index=phase_index,
        delta_index=delta_index,
    )
    return index, ConnectionMatrix(first=first, second=second)


@dataclass(frozen=True)
class ConnectionMatrix:
    """Phase-pair incidence, held as two phase columns per pair.

    Row ``k`` of the signed incidence ``H`` has +1 at phase ``first[k]`` and
    -1 at phase ``second[k]`` (a fully connected three-phase bus owns the
    block ``[[1,-1,0],[0,1,-1],[-1,0,1]]``), and ``L = |H|``.  Every product
    with them is a gather or a scatter over these two index arrays; each row
    of ``H`` has two nonzeros and each column at most two, so these take the
    same sums as the dense products, in the same order.  A bus has each of
    its pairs once, so no phase repeats within ``first`` or within
    ``second``.
    """

    first: np.ndarray
    second: np.ndarray

    def gather(self, x):
        """``H x`` along the last axis: ``H @ v`` for a vector, ``X @ H.T`` for
        the rows of a matrix."""
        return x[..., self.first] - x[..., self.second]

    def pair_sum(self, x):
        """``L x`` along the last axis."""
        return x[..., self.first] + x[..., self.second]

    def scatter(self, y, n):
        """``H.T @ y`` over ``n`` phases along the last axis: ``+y`` at each
        pair's first phase and ``-y`` at its second, so ``Y @ H`` for the
        rows of a matrix."""
        out = np.zeros(y.shape[:-1] + (n,), dtype=np.promote_types(y.dtype, float))
        # No index repeats within first or second, so each fancy-index
        # update adds once per phase: the sums of np.add.at, which is
        # slower on a stack of rows.
        out[..., self.first] += y
        out[..., self.second] -= y
        return out

    def bus_block(self, diag, pair):
        """The bus-local ``diag(diag) - H.T diag(pair) H`` as a CSC matrix,
        from COO triplets: the diagonal, then ``(first, first)``,
        ``(second, second)``, ``(first, second)`` and ``(second, first)``."""
        n, p, q = diag.size, self.first, self.second
        rows = np.concatenate([np.arange(n), p, q, p, q])
        cols = np.concatenate([np.arange(n), p, q, q, p])
        vals = np.concatenate([diag, -pair, -pair, pair, pair])
        return scipy.sparse.csc_matrix((vals, (rows, cols)), shape=(n, n))


class LUFactor:
    """Sparse LU factors of a square matrix under one singularity rule.

    The matrix is factored by SuperLU (``splu``) in CSC form, and ``rcond``
    is the 1-norm reciprocal condition estimate ``1 / (‖A‖₁ ‖A⁻¹‖₁)``
    (``_rcond``), with ``‖A⁻¹‖₁`` estimated by the iteration of scipy's
    ``onenormest`` with one probe column, run directly on solves with the
    factors.  ``error`` is raised when the factorization fails or when
    ``rcond`` is non-finite or below ``RCOND_FLOOR`` (an exactly singular
    matrix reports ``rcond=0``); ``what`` names the matrix in the message.
    ``solve(rhs)`` solves ``matrix @ x = rhs``, and ``inverse()`` forms the
    dense inverse, which only ``NetworkModel.yll_inverse`` reads.  ``yll``
    (see ``NetworkModel``) and the balance equations' tangent operator
    (``powerflow._tangent_factor``: the FOT model at a solved pair, the
    Newton step at an iterate) are the matrices factored here.
    """

    def __init__(self, matrix, error, what):
        matrix = scipy.sparse.csc_matrix(matrix)
        self.shape, self.dtype = matrix.shape, matrix.dtype
        try:
            lu = scipy.sparse.linalg.splu(matrix)
        except RuntimeError:  # SuperLU: "Factor is exactly singular"
            self.rcond = 0.0
        except ValueError as exc:
            raise error(f"cannot factorize {what}: {exc}") from exc
        else:
            self.solve = lu.solve
            self.rcond = _rcond(matrix, lu)
        if not np.isfinite(self.rcond) or self.rcond < RCOND_FLOOR:
            raise error(f"{what} is singular or near-singular (rcond={self.rcond:.3e})")

    def inverse(self) -> np.ndarray:
        """Dense inverse, from the identity solved ``INVERSE_BLOCK`` columns at a time.

        The result equals ``solve(eye(n))`` bit for bit and is Fortran-ordered
        like it, but neither the ``n x n`` identity nor a full-width solve
        workspace is formed.
        """
        n = self.shape[0]
        inv = np.empty((n, n), dtype=self.dtype, order="F")
        for start in range(0, n, INVERSE_BLOCK):
            stop = min(start + INVERSE_BLOCK, n)
            unit = np.zeros((n, stop - start), dtype=self.dtype)
            unit[start:stop] = np.eye(stop - start)
            inv[:, start:stop] = self.solve(unit)
        return inv


def _rcond(matrix, lu):
    """``1 / (‖A‖₁ ‖A⁻¹‖₁)`` for the CSC ``matrix`` A and its SuperLU
    factors ``lu``, which leave ``matrix`` in canonical form.  ``‖A‖₁`` is
    the largest column sum of ``|A|`` as ``abs(A).sum(axis=0)`` takes it,
    and ``‖A⁻¹‖₁`` is ``_inverse_norm_estimate``."""
    nonempty = np.flatnonzero(np.diff(matrix.indptr))
    anorm = np.add.reduceat(np.abs(matrix.data), matrix.indptr[nonempty]).max(initial=0.0)
    with np.errstate(divide="ignore"):
        return float(1.0 / (float(anorm) * _inverse_norm_estimate(lu.solve, matrix.shape[0])))


def _inverse_norm_estimate(solve, n):
    """``scipy.sparse.linalg.onenormest(A⁻¹, t=1)`` from the solves with A,
    equal to it bit for bit for fewer than 2^20 rows.

    One probe column (t=1) is the Hager-Higham estimator of LAPACK's
    condition estimates; more columns would draw from numpy's global random
    state.  ``onenormest`` takes the exact norm when ``n <= t``; otherwise
    this is its iteration for ``t = 1``, with the same solves, the same
    numpy operations and the same stopping rules, but without its operator
    wrappers and its bookkeeping for several columns: the probe starts at
    ``ones / n``; each step takes the estimate ``‖A⁻¹x‖₁``, stops when it
    no longer grows, after five steps, or when the sign vector repeats,
    solves with the adjoint on the signs, stops when the probe's own row
    already holds the largest magnitude, and moves the probe to the unit
    vector of the row that ``argsort`` ranks last.
    """
    if n <= 1:
        sums = np.abs(solve(np.identity(n))).sum(axis=0)
        return sums[np.argmax(sums)]
    x = np.ones((n, 1))
    x /= float(n)
    est_old, signs_old, k = 0, None, 1
    while True:
        y = solve(x)
        est = np.max(np.sum(np.abs(y), axis=0))
        if k >= 2 and est <= est_old:
            return est_old
        est_old = est
        if k > 5:
            return est
        signs = y.copy()
        signs[signs == 0] = 1
        signs /= np.abs(signs)
        if k >= 2 and np.dot(signs[:, 0], signs_old[:, 0]) == n:
            return est
        signs_old = signs
        h = np.max(np.abs(solve(signs, trans="H")), axis=1)
        if k >= 2 and max(h.tolist()) == h[probe]:
            return est
        probe = np.argsort(h)[-1]
        x = np.zeros((n, 1))
        x[probe] = 1.0
        k += 1


@dataclass
class BusSpec:
    id: str
    phases: str
    delta_connections: tuple = ()


@dataclass
class LineSpec:
    from_bus: str
    to_bus: str
    phases: str
    y_series: np.ndarray
    y_shunt_from: np.ndarray | None = None
    y_shunt_to: np.ndarray | None = None


@dataclass
class SlackSpec:
    id: str
    voltages: np.ndarray


class NetworkModel:
    """Immutable partitioned admittance model of a multiphase network.

    Attributes
    ----------
    y00, y0l, yl0 : ndarray
        The dense slack blocks of the full admittance matrix, slack phases
        first; each has at most three rows or columns.
    yll : scipy.sparse.csc_matrix
        The load-bus block, the only representation of it: it follows the
        feeder's tree, so it is kept sparse and never formed densely.
    v0 : ndarray
        Slack voltage phasors (one per slack phase, p.u.).
    index : PhaseIndexMap
    connection : ConnectionMatrix
    factor : LUFactor
        SuperLU factors of ``yll``; every solve with ``yll`` goes through
        it, and so does the cached ``yll_inverse`` of a meshed feeder.  On
        a radial feeder ``yll_inverse`` comes from a walk over the bus tree.
    rcond : float
        Reciprocal condition estimate of ``yll`` from its LU factors.
    zero_load : ZeroLoadProfile
        The zero-load voltage profile, solved on first use.
    yll_inverse, xi_weights : ndarray
        The dense ``yll^-1`` and the weights of the injection norms, built
        on first use.

    The three cached quantities depend on the network alone, so each is
    built once per model; the profile keeps ``connection``, not the model,
    so that no reference cycle keeps a dropped model alive.

    Before ``yll`` is factored, the bus graph of the full matrix, the slack
    included, is walked breadth-first from the slack.  A PQ bus that the
    walk does not reach is a ``ModelError``; when the graph is a tree, the
    walk is the tree that ``yll_inverse`` walks.
    """

    def __init__(self, y00, y0l, yl0, yll, v0, index, connection, slack_id, slack_phases):
        self.y00 = np.asarray(y00, dtype=complex)
        self.y0l = np.asarray(y0l, dtype=complex)
        self.yl0 = np.asarray(yl0, dtype=complex)
        self.yll = scipy.sparse.csc_matrix(yll, dtype=complex)
        self.v0 = np.asarray(v0, dtype=complex)
        self.index = index
        self.connection = connection
        self.slack_id = slack_id
        self.slack_phases = slack_phases
        for arr in (self.y00, self.y0l, self.yl0, self.v0):
            arr.setflags(write=False)
        for arr in (self.yll.data, self.yll.indices, self.yll.indptr):
            arr.setflags(write=False)

        # The bus graph of the full matrix, with the slack as bus nb: one edge
        # for each pair of buses that shares a nonzero entry, stored once as
        # (lower, higher).  The walk then visits a bus's higher neighbours
        # before its lower ones, each in bus order; the order of siblings is
        # the order of the walk's sums.
        nb, yll = index.bus_count, self.yll
        bus = np.repeat(np.arange(nb), [len(p) for p in index.phases_per_bus])
        row, col = bus[yll.indices], np.repeat(bus, np.diff(yll.indptr))
        off = row != col
        fed = bus[self.yl0.any(axis=1)]
        lo = np.concatenate([np.minimum(row, col)[off], fed])
        hi = np.concatenate([np.maximum(row, col)[off], np.full(fed.size, nb)])
        graph = scipy.sparse.csr_matrix((np.ones(lo.size), (lo, hi)), shape=(nb + 1, nb + 1))
        order, parent = scipy.sparse.csgraph.breadth_first_order(
            graph, nb, directed=False, return_predecessors=True
        )
        unreached = [index.bus_ids[b] for b in np.flatnonzero(parent[:nb] < 0)]
        if unreached:
            raise ModelError(f"bus(es) not connected to the slack: {unreached}")
        # Duplicate edges are summed into one, so a tree has one per PQ bus.
        self._tree = (bus, order[1:], parent) if graph.nnz == nb else None

        # Symmetry of the full matrix [[y00, y0l], [yl0, yll]], checked block by
        # block; the CSC form of yll^T shares yll's pattern when yll is
        # structurally symmetric, and its entries then pair up position by
        # position.
        dense = (self.y00, self.y0l, self.yl0)
        scale = max(1.0, *(np.abs(b).max() for b in dense), abs(yll).max())
        yll_t = yll.T.tocsc()
        if (
            yll.has_canonical_format
            and np.array_equal(yll.indptr, yll_t.indptr)
            and np.array_equal(yll.indices, yll_t.indices)
        ):
            yll_asymmetry = np.abs(yll.data - yll_t.data).max(initial=0.0)
        else:
            yll_asymmetry = abs(yll - yll.T).max()
        asymmetry = max(
            np.abs(self.y00 - self.y00.T).max(),
            np.abs(self.y0l - self.yl0.T).max(),
            yll_asymmetry,
        )
        if asymmetry > SYMMETRY_RTOL * scale:
            raise ModelError("admittance matrix is not symmetric (non-reciprocal network)")

        self.factor = LUFactor(self.yll, SingularModelError, "load-bus admittance block")
        self.rcond = self.factor.rcond

    @property
    def n_phases(self) -> int:
        return self.index.n_phases

    @property
    def n_delta(self) -> int:
        return self.index.n_delta

    @cached_property
    def yll_inverse(self) -> np.ndarray:
        """Dense, Fortran-ordered ``yll^-1``, computed on first use.

        When the bus graph with the slack is a tree (a radial feeder), the
        inverse comes from a walk over that tree (``_tree_inverse``), with
        no solves.  When the graph has a loop, through the slack or not, or
        when a Schur block of the walk is a worse pivot than ``yll`` itself,
        it comes from the sparse factors (``factor.inverse()``).
        """
        inv = None if self._tree is None else _tree_inverse(self.yll, *self._tree, self.rcond)
        if inv is None:
            inv = self.factor.inverse()
        inv.setflags(write=False)
        return inv

    @cached_property
    def zero_load(self) -> ZeroLoadProfile:
        """The zero-load voltage ``w``, solving ``yll @ w = -yl0 @ v0``, and
        its pair magnitudes ``L|w|``; ``DegenerateProfileError`` when an
        entry of ``|w|`` is (near) zero.  Each entry of ``L|w|`` is then
        above ``2 * PROFILE_FLOOR``, so it needs no check of its own."""
        w = self.factor.solve(-self.yl0 @ self.v0)
        w_abs = np.abs(w)
        if w_abs.min(initial=np.inf) <= PROFILE_FLOOR:
            raise DegenerateProfileError("zero-load voltage has a (near-)zero phase entry")
        Lw = self.connection.pair_sum(w_abs)
        for arr in (w, w_abs, Lw):
            arr.setflags(write=False)
        return ZeroLoadProfile(w=w, w_abs=w_abs, Lw=Lw, connection=self.connection)

    @cached_property
    def xi_weights(self) -> tuple[np.ndarray, np.ndarray]:
        """Weights of the injection norms, built from ``yll^-1`` on first use:
        ``|diag(w)^-1 yll^-1 diag(w)^-1|`` for wye injections and
        ``|diag(w)^-1 yll^-1 H^T diag(L|w|)^-1|`` for delta injections.  Both
        are Fortran-ordered, like ``yll^-1``, and formed in real arithmetic
        ``XI_BLOCK`` entries of columns at a time: the magnitudes of a block
        of ``yll^-1``'s columns, or of the column differences that are the
        block's columns of ``yll^-1 H^T``, go straight into the weights,
        which are then scaled by ``1/|w|`` on the rows and by ``1/|w|`` or
        ``1/L|w|`` on the columns while the block is in cache.  Each entry
        takes the same magnitude and the same two products as with whole
        arrays, so the weights do not depend on the block size."""
        yinv, profile, conn = self.yll_inverse, self.zero_load, self.connection
        n = yinv.shape[0]
        w_scale = 1.0 / profile.w_abs
        weights = np.empty((n, n), order="F"), np.empty((n, conn.first.size), order="F")
        step = max(1, XI_BLOCK // n)
        for pairs, (arr, col_scale) in enumerate(zip(weights, (w_scale, 1.0 / profile.Lw))):
            for start in range(0, arr.shape[1], step):
                cols = slice(start, start + step)
                out = arr[:, cols]
                if pairs:
                    np.abs(yinv[:, conn.first[cols]] - yinv[:, conn.second[cols]], out=out)
                else:
                    np.abs(yinv[:, cols], out=out)
                out *= w_scale[:, None]
                out *= col_scale[None, cols]
            arr.setflags(write=False)
        return weights


def _tree_inverse(yll, bus, order, parent, rcond):
    """Dense inverse of ``yll`` by a walk over its bus tree, or ``None``.

    ``bus`` maps each phase to its bus; bus ``b`` owns consecutive phases.
    ``order`` lists the buses breadth-first from the slack, which is bus
    ``nb``, and ``parent`` is each bus's parent in that walk.  ``None``
    means that a Schur block ``S_b`` below is a worse pivot than ``yll``
    itself.  The walk pivots on these blocks without a choice, so each
    must have ``1 / (max(‖S_b‖₁, ‖yll‖₁) ‖S_b^-1‖₁)`` of at least half of
    ``rcond``, ``yll``'s reciprocal condition estimate (it is ``rcond``
    itself on a one-bus feeder, where ``S_b`` is ``yll``; the half allows
    for the estimate).  This fails for a block that is nearly singular, and
    for one that cancels to a small fraction of ``yll``'s scale, where the
    walk would lose digits that the sparse LU keeps.

    The buses that the slack feeds are the roots.  The upward pass, leaves
    first, forms the Schur complements
    ``S_b = Y_bb - sum_c Y_bc S_c^-1 Y_cb`` over the children ``c`` and the
    transfers ``T_b = -S_b^-1 Y_bp`` and ``U_b = -Y_pb S_b^-1`` to the
    parent ``p``.  The downward pass, parents first, forms the columns

        Z[:, b] = Z[:, p] U_b + K_b S_b^-1

    of ``Z = yll^-1``, where ``K_b`` stacks, over the phases of ``b``'s
    subtree, the identity on ``b`` and ``K_c T_c`` for each child ``c``; a
    root has no ``Z[:, p]`` term.  For a symmetric ``yll``, ``U_b = T_b^T``;
    the walk keeps both, so that a matrix symmetric only to rounding is
    inverted as it is.

    Both passes take one depth of the tree at a time, with every block
    padded to 3x3: a missing phase has a unit diagonal in ``S_b`` and zeros
    elsewhere, and its slot reads a zero row.  The slack's slot reads
    zero blocks, as ``yll`` holds none of its entries.
    """
    nb, n = order.size, yll.shape[0]
    start = np.searchsorted(bus, np.arange(nb + 1))
    sizes = np.diff(start)
    coo = yll.tocoo()
    row_bus, col_bus = bus[coo.row], bus[coo.col]
    off = row_bus != col_bus
    bus_depth = np.zeros(nb + 1, dtype=np.intp)
    bus_depth[nb] = -1
    for b in order.tolist():
        bus_depth[b] = bus_depth[parent[b]] + 1

    # Per-bus arrays in breadth-first order, so each depth is a slice; the
    # slack is last.  A missing phase's slot reads the zero row n of
    # the work matrix and writes its spare row n + 1.
    position = np.empty(nb + 1, dtype=np.intp)
    position[order] = np.arange(nb)
    position[nb] = nb
    up_at = position[parent[order]]
    depth = bus_depth[order]
    level_start = np.searchsorted(depth, np.arange(depth.max() + 2))
    present = np.zeros((nb + 1, 3), dtype=bool)
    present[:nb] = np.arange(3) < sizes[order, None]
    read = np.full((nb + 1, 3), n)
    read[present] = (start[order, None] + np.arange(3))[present[:nb]]
    write = np.where(present, read, n + 1)

    # Y_bb (as the start of S_b), Y_bp (up) and Y_pb (down) for each bus b.
    local_row, local_col = coo.row - start[row_bus], coo.col - start[col_bus]
    schur = np.zeros((nb + 1, 3, 3), dtype=complex)
    up, down = np.zeros_like(schur), np.zeros_like(schur)
    pad_bus, pad_slot = np.nonzero(~present[:nb])
    schur[pad_bus, pad_slot, pad_slot] = 1.0
    diag = ~off
    schur[position[row_bus[diag]], local_row[diag], local_col[diag]] = coo.data[diag]
    is_up = off & (parent[row_bus] == col_bus)
    is_down = off & ~is_up
    up[position[row_bus[is_up]], local_row[is_up], local_col[is_up]] = coo.data[is_up]
    down[position[col_bus[is_down]], local_row[is_down], local_col[is_down]] = coo.data[is_down]

    # The rows of K_b are blocks K_ib, one for each bus i of b's subtree.
    # Bus i keeps its blocks for the ancestors at depths depth[i], ..., 0
    # from ``first[i]`` on, so K_ib sits one place after K_ic.
    first = np.cumsum(depth + 1) - (depth + 1)
    ancestor = np.empty(first[-1] + depth[-1] + 1, dtype=np.intp)
    ancestor[first] = np.arange(nb)
    chain = np.zeros((ancestor.size, 3, 3), dtype=complex)
    chain[first] = np.eye(3)

    s_inv, t = np.empty_like(schur), np.empty_like(schur)
    with np.errstate(all="ignore"):  # a failed block is caught below
        for d in range(len(level_start) - 2, -1, -1):
            level = slice(level_start[d], level_start[d + 1])
            try:
                s_inv[level] = np.linalg.inv(schur[level])
            except np.linalg.LinAlgError:
                return None
            t[level] = -s_inv[level] @ up[level]
            # Siblings are adjacent in breadth-first order.
            parents, children = np.unique(up_at[level], return_index=True)
            schur[parents] += np.add.reduceat(down[level] @ t[level], children)
            below = first[level.stop :] + depth[level.stop :] - d
            ancestor[below] = up_at[ancestor[below - 1]]
            chain[below] = chain[below - 1] @ t[ancestor[below - 1]]
        both = present[:nb, :, None] & present[:nb, None, :]
        norms = [
            np.where(both, np.abs(x[:nb]), 0.0).sum(axis=1).max(axis=1) for x in (schur, s_inv)
        ]
        scale = np.maximum(norms[0], np.bincount(coo.col, np.abs(coo.data), n).max())
        pivot_rcond = 1.0 / (scale * norms[1])
    if not np.all(pivot_rcond >= 0.5 * rcond):
        return None
    u_t = -(down[:nb] @ s_inv[:nb]).transpose(0, 2, 1)  # U_b^T

    # Row j of ``zt`` is column j of Z.  A depth is taken INVERSE_BLOCK
    # buses at a time, which bounds the work arrays.
    zt = np.zeros((n + 2, n), dtype=complex)
    for d in range(len(level_start) - 1):
        for part_start in range(level_start[d], level_start[d + 1], INVERSE_BLOCK):
            part = slice(part_start, min(part_start + INVERSE_BLOCK, level_start[d + 1]))
            zt[write[part]] = np.matmul(u_t[part], zt[read[up_at[part]]])
        # K_ib S_b^-1 into rows i of the columns of each bus b at depth d.
        rows = slice(level_start[d], nb)
        at = first[rows] + depth[rows] - d
        cols = ancestor[at]
        keep = present[rows, :, None] & present[cols][:, None, :]
        flat = read[cols][:, None, :] * n + read[rows, :, None]
        zt.reshape(-1)[flat[keep]] += (chain[at] @ s_inv[cols])[keep]
    return zt[:n].T


# The blocks of a line, in the order nodal assembly adds them, as named in messages.
_BLOCK_NAMES = ("series", "y_shunt_from", "y_shunt_to")


def assemble_network(buses, lines, slack) -> NetworkModel:
    """Assemble the partitioned admittance model by standard nodal assembly.

    The line blocks are summed as COO triplets, so ``yll`` is built in CSC
    form without ever forming the dense matrix.  The triplets sit in the
    order that per-line nodal assembly adds them: line after line, the
    series block at (from, from) and (to, to), its negation at (from, to)
    and (to, from), then the shunt blocks at (from, from) and (to, to).
    The blocks are stacked by phase count and kind and scattered into
    those positions, so every entry is the same sum of the same terms in
    the same order as line-by-line ``+=`` assembly gives, bit for bit.

    Parameters
    ----------
    buses : sequence of BusSpec
    lines : sequence of LineSpec
        Each line carries a k x k complex series-admittance block over the
        phases it runs (k = number of shared phases, canonical order) plus
        optional shunt blocks charged half at each end by the converter.
    slack : SlackSpec

    Raises
    ------
    InputFormatError
        A non-finite slack voltage or admittance entry, or admittance entries
        whose sums at a bus exceed the float range.
    ModelError
        Duplicate/unknown buses, phase mismatches, PQ bus not electrically
        reachable from the slack, or a non-symmetric assembled matrix.
    SingularModelError
        ``yll`` cannot be factorized or is numerically singular.
    """
    bus_phases = {}
    bus_delta = {}
    for b in buses:
        if b.id in bus_phases:
            raise ModelError(f"duplicate bus id {b.id!r}")
        bus_phases[b.id] = canonical_phases(b.phases)
        pairs = tuple(b.delta_connections)
        bus_delta[b.id] = pairs
        if pairs:
            if len(set(pairs)) != len(pairs):
                raise ModelError(f"bus {b.id!r}: duplicate delta connection")
            bus_delta[b.id] = tuple(p for p in DELTA_PAIRS if p in pairs)
            if set(bus_delta[b.id]) != set(pairs):
                raise ModelError(f"bus {b.id!r}: unknown phase pair in {pairs!r}")
    if slack.id not in bus_phases:
        raise ModelError(f"slack bus {slack.id!r} is not a declared bus")
    if bus_delta[slack.id]:
        raise ModelError("delta connections on the slack bus are not supported")

    slack_phases = bus_phases[slack.id]
    v0 = np.asarray(slack.voltages, dtype=complex)
    if v0.shape != (len(slack_phases),):
        raise ModelError(
            f"slack voltage vector has length {v0.size}, expected {len(slack_phases)}"
        )
    if not np.all(np.isfinite(v0)):
        raise InputFormatError("slack voltages must be finite")

    pq_ids = [b for b in bus_phases if b != slack.id]
    if not pq_ids:
        raise ModelError("network has no bus besides the slack")
    index, connection = build_phase_index(
        pq_ids, [bus_phases[b] for b in pq_ids], [bus_delta[b] for b in pq_ids]
    )

    m = len(slack_phases)
    n = index.n_phases
    size = m + n
    # Each bus's phases and their columns in the full matrix, in phase order.
    columns, col = {}, 0
    for bus in (slack.id, *pq_ids):
        columns[bus] = (bus_phases[bus], list(range(col, col + len(bus_phases[bus]))))
        col += len(bus_phases[bus])

    # The per-line loop checks what Python must: the buses, the phases and
    # the block shapes.  It groups the blocks by (phase count, kind) as
    # (line, position of the first triplet, from and then to phase columns,
    # block).
    stacks = {}
    count = 0
    try:
        for li, line in enumerate(lines):
            for end in (line.from_bus, line.to_bus):
                if end not in columns:
                    raise ModelError(f"line {li}: unknown bus {end!r}")
            phases = canonical_phases(line.phases)
            ends = []
            for end in (line.from_bus, line.to_bus):
                at, cols = columns[end]
                if phases != at:
                    missing = set(phases) - set(at)
                    if missing:
                        raise ModelError(
                            f"line {li} ({line.from_bus!r}-{line.to_bus!r}): phase(s) "
                            f"{''.join(sorted(missing))!r} absent at bus {end!r}"
                        )
                    cols = [cols[at.index(p)] for p in phases]
                ends += cols
            k = len(phases)
            for kind, blk in enumerate((line.y_series, line.y_shunt_from, line.y_shunt_to)):
                if kind and blk is None:
                    continue
                blk = np.asarray(blk, dtype=complex)
                if blk.shape != (k, k):
                    raise ModelError(
                        f"line {li}: {_BLOCK_NAMES[kind]} block must be {k}x{k}, got {blk.shape}"
                    )
                stacks.setdefault((k, kind), []).append((li, count, ends, blk))
                count += (1 if kind else 4) * k * k
    finally:
        # Also when a line fails: a non-finite block of an earlier line is
        # reported first, as when each line was checked in turn.
        stacked = _stacked_blocks(stacks)

    keys = np.empty(count, dtype=np.intp)
    vals = np.empty(count, dtype=complex)
    for (k, kind), (at, ends, y) in stacked.items():
        if kind:
            e = ends[:, kind - 1]
            terms = [(e, e, y)]
        else:
            f, t = ends[:, 0], ends[:, 1]
            terms = [(f, f, y), (t, t, y), (f, t, -y), (t, f, -y)]
        at = at[:, None] + np.arange(len(terms) * k * k)
        keys[at] = np.hstack([(c[:, None, :] * size + r[:, :, None]).reshape(-1, k * k)
                              for r, c, _ in terms])
        vals[at] = np.hstack([v.reshape(-1, k * k) for *_, v in terms])

    # np.bincount sums each entry's terms one after another in that order,
    # the real and the imaginary parts apart as complex addition does, so
    # every entry is the same float sum as dense ``+=`` assembly gives (a
    # COO-to-CSC conversion would reorder the additions); np.unique sorts
    # the keys into CSC order.
    keys, where = np.unique(keys, return_inverse=True)
    entries = np.empty(keys.size, dtype=complex)
    rows, cols = keys % size, keys // size

    # Finite entries can still sum past the float range; the 1-norm of the
    # condition estimate and the symmetry check would then see inf and NaN.
    with np.errstate(over="ignore", invalid="ignore"):
        entries.real = np.bincount(where, vals.real, keys.size)
        entries.imag = np.bincount(where, vals.imag, keys.size)
        bad = np.flatnonzero(~np.isfinite(np.bincount(cols, np.abs(entries), size)))
    if bad.size:
        bus = next(bus for bus, (_, cols) in columns.items() if bad[0] in cols)
        phase = columns[bus][0][columns[bus][1].index(bad[0])]
        at = ", ".join(str(li) for li, ln in enumerate(lines) if bus in (ln.from_bus, ln.to_bus))
        raise InputFormatError(
            f"bus {bus!r} phase {phase!r}: admittance entries of line(s) {at} "
            "sum past the float range"
        )

    # The slack rows and columns are dense; yll keeps its nonzero entries.
    top = np.zeros((m, size), dtype=complex)
    left = np.zeros((size, m), dtype=complex)
    on = rows < m
    top[rows[on], cols[on]] = entries[on]
    on = cols < m
    left[rows[on], cols[on]] = entries[on]
    on = (rows >= m) & (cols >= m) & (entries != 0)
    indptr = np.searchsorted(cols[on], np.arange(m, size + 1))
    yll = scipy.sparse.csc_matrix((entries[on], rows[on] - m, indptr), shape=(n, n))

    return NetworkModel(
        y00=top[:, :m],
        y0l=top[:, m:],
        yl0=left[m:],
        yll=yll,
        v0=v0,
        index=index,
        connection=connection,
        slack_id=slack.id,
        slack_phases=slack_phases,
    )


def _stacked_blocks(stacks):
    """Each group of ``assemble_network``'s line blocks as arrays:
    ``{(k, kind): (first triplet, (from, to) columns, blocks)}``.  Raises
    ``InputFormatError`` for the first non-finite block in line order."""
    stacked, faults = {}, []
    for key, items in stacks.items():
        line_no, at, ends, blocks = zip(*items)
        y = np.array(blocks)
        bad = np.flatnonzero(~np.isfinite(y).all(axis=(1, 2)))
        if bad.size:
            faults.append((line_no[bad[0]], key[1]))
        stacked[key] = (np.array(at), np.array(ends).reshape(-1, 2, key[0]), y)
    if faults:
        li, kind = min(faults)
        raise InputFormatError(f"line {li}: {_BLOCK_NAMES[kind]} block must be finite")
    return stacked


@dataclass(frozen=True)
class ZeroLoadProfile:
    """Voltage profile of a model with all injections at zero, as its
    ``NetworkModel.zero_load`` holds it.

    ``w`` solves ``yll @ w = -yl0 @ v0``; ``w_abs`` and ``Lw`` are the
    entrywise magnitudes and pair sums used throughout the certificates, and
    ``connection`` is the model's phase-pair incidence.  A model whose
    profile has any (near-)zero entry is rejected because all certificate
    quantities divide by them.  A profile serves only its own model object:
    every public function that takes both checks them with ``check_profile``.
    """

    w: np.ndarray
    w_abs: np.ndarray
    Lw: np.ndarray
    connection: ConnectionMatrix = field(repr=False, compare=False)


def check_profile(model: NetworkModel, w_profile: ZeroLoadProfile):
    """Raise ``ValueError`` unless ``w_profile`` is ``model.zero_load``
    itself (the profile of an equal model does not do)."""
    if w_profile is not model.zero_load:
        raise ValueError("w_profile was built for another model")


def zero_load_voltage(model: NetworkModel) -> ZeroLoadProfile:
    """The model's zero-load profile, ``model.zero_load``: solved on the
    first call, the same object on every later one."""
    return model.zero_load


# ---------------------------------------------------------------------------
# JSON interface
#
# Complex numbers are {"re": x, "im": y} objects everywhere.  Documents are
# read with ``json``; every artifact is written by ``write_json``, which takes
# numpy arrays as they are and produces the bytes of
# ``json.dumps(doc, indent=2, sort_keys=True) + "\n"`` for the nested-list
# form of the document, with every non-finite float written as ``null``.
# Vectors and matrices go to ``_jsontext.write_array``, whose vectorised
# kernel writes the text of ``float.__repr__`` a block of entries at a time.


# What reading a {"re", "im"} object can raise.
_ENTRY_ERRORS = (TypeError, KeyError, ValueError, OverflowError)


def complex_from_doc(obj, where="value") -> complex:
    try:
        z = complex(float(obj["re"]), float(obj["im"]))
    except _ENTRY_ERRORS:
        raise InputFormatError(f"{where}: expected a {{'re': ..., 'im': ...}} object") from None
    if not cmath.isfinite(z):
        raise InputFormatError(f"{where}: value must be finite")
    return z


def list_from_doc(value, where):
    if not isinstance(value, (list, tuple)):
        raise InputFormatError(f"{where}: expected a list")
    return value


def write_json(doc, dest):
    """Write an artifact document to a path or an open text stream.

    ``doc`` holds dicts with string keys, lists, tuples, strings, ints,
    bools, ``None``, floats and numpy arrays.  A 1-D complex array becomes a
    list of ``{"im", "re"}`` objects, a 1-D real array a list of floats, and
    a higher-dimensional array a list of its rows; a 0-d array is written as
    its entry would be inside a vector.  The entries of a vector
    or matrix are formatted and written a block of rows at a time, so
    neither the document nor a whole matrix is ever one string.
    """
    if isinstance(dest, (str, os.PathLike)):
        with open(dest, "w") as fh:
            return write_json(doc, fh)
    _write_value(doc, "", dest.write)
    dest.write("\n")


def _write_value(value, indent, write):
    if isinstance(value, np.ndarray) and value.ndim in (1, 2) and value.size:
        # Imported on first use, so that processes which write no array do
        # not hold its tables: eagerly imported, they raised the benchmark's
        # radial-1200 peak resident set by 0.3 MB.
        from . import _jsontext

        _jsontext.write_array(value, indent, write)
    elif isinstance(value, np.ndarray) and value.ndim == 0:
        # As the single entry of a vector: a float, or a complex number's
        # {"im", "re"} object.
        if value.dtype.kind not in "biufc":
            raise TypeError(f"cannot write a 0-d {value.dtype} array to a JSON artifact")
        if value.dtype.kind == "c":
            _write_value({"im": float(value.imag), "re": float(value.real)}, indent, write)
        else:
            _write_value(float(value), indent, write)
    elif isinstance(value, dict):
        items = [(f"{json.dumps(key)}: ", item) for key, item in sorted(value.items())]
        _write_items("{}", items, indent, write)
    elif isinstance(value, (list, tuple, np.ndarray)):
        _write_items("[]", [("", item) for item in value], indent, write)
    elif value is None or isinstance(value, (str, int)):
        write(json.dumps(value))
    elif isinstance(value, float):
        write(float.__repr__(value) if math.isfinite(value) else "null")
    else:
        raise TypeError(f"cannot write {type(value).__name__} to a JSON artifact")


def _write_items(brackets, items, indent, write):
    if not items:
        write(brackets)
        return
    inner = indent + "  "
    sep = brackets[0] + "\n" + inner
    for prefix, item in items:
        write(sep + prefix)
        _write_value(item, inner, write)
        sep = ",\n" + inner
    write("\n" + indent + brackets[1])


def complex_entries(entries, where):
    """The complex values of a list of ``{"re", "im"}`` objects, as one
    array, equal to ``complex(float(re), float(im))`` entry by entry.

    The real and imaginary parts are gathered in one comprehension each and
    taken as numpy arrays when numpy reads them as real numbers, which it
    converts as ``float`` does (JSON's floats, ints and bools), and then
    checked for finiteness in one pass.  Otherwise, or when a check fails,
    the entries are converted one by one, so that the ``InputFormatError``
    names the first bad entry ``j`` as ``where(j)``.
    """
    try:
        parts = [np.array([e[key] for e in entries]) for key in ("re", "im")]
    except _ENTRY_ERRORS:
        parts = None
    if parts and all(p.dtype.kind in "biuf" and p.shape == (len(entries),) for p in parts):
        values = np.empty(len(entries), dtype=complex)
        values.real, values.imag = parts
        if np.isfinite(values).all():
            return values
    return np.array([complex_from_doc(e, where(j)) for j, e in enumerate(entries)], dtype=complex)


# The admittance blocks of a line document, in ``LineSpec``'s order.
_DOC_BLOCKS = ("series_admittance", "shunt_from", "shunt_to")


def _line_specs(docs):
    """The ``LineSpec``s of a document's lines.

    One pass reads each line's fields and checks the type and length of
    its blocks; then the entries of all blocks are converted at once (see
    ``complex_entries``), and each block is a reshaped view of that array.
    When a line fails its checks, the entries of the blocks before it are
    converted first, so that the error names the first fault in document
    order, as when each line was read in turn.
    """
    fields, blocks, entries = [], [], []

    def where(j):
        i, name, start = blocks[bisect.bisect_right(blocks, j, key=lambda b: b[2]) - 1]
        return f"lines[{i}].{name}[{j - start}]"

    try:
        for i, ln in enumerate(list_from_doc(docs, "lines")):
            if not isinstance(ln, dict):
                raise InputFormatError(f"lines[{i}]: expected an object")
            try:
                phases = canonical_phases(str(ln["phases"]))
                ends = str(ln["from"]), str(ln["to"])
                line_blocks = [ln["series_admittance"], ln.get("shunt_from"), ln.get("shunt_to")]
            except KeyError as exc:
                raise InputFormatError(f"lines[{i}]: missing field {exc}") from None
            k = len(phases)
            for name, block in zip(_DOC_BLOCKS, line_blocks):
                if block is not None:
                    if not isinstance(block, (list, tuple)) or len(block) != k * k:
                        list_from_doc(block, f"lines[{i}].{name}")
                        raise InputFormatError(
                            f"lines[{i}].{name}: expected {k * k} complex entries for {k} phases"
                        )
                    blocks.append((i, name, len(entries)))
                    entries.extend(block)
            fields.append((ends, phases, line_blocks))
    except InputFormatError:
        complex_entries(entries, where)  # a bad entry of an earlier block is reported first
        raise
    values = complex_entries(entries, where)
    lines, at = [], 0
    for (from_bus, to_bus), phases, line_blocks in fields:
        k = len(phases)
        views = [None] * 3
        for kind, block in enumerate(line_blocks):
            if block is not None:
                views[kind] = values[at : at + k * k].reshape(k, k)
                at += k * k
        lines.append(LineSpec(from_bus, to_bus, phases, *views))
    return lines


def network_from_json(doc: dict) -> NetworkModel:
    """Parse a network document.

    Schema::

        {"buses": [{"id", "phases", "delta_connections"?}],
         "lines": [{"from", "to", "phases", "series_admittance",
                    "shunt_from"?, "shunt_to"?}],
         "slack": {"id", "voltages"}}

    Admittance blocks are row-major flat lists of ``{"re", "im"}`` objects.
    """
    if not isinstance(doc, dict):
        raise InputFormatError("network document must be a JSON object")
    for key in ("buses", "lines", "slack"):
        if key not in doc:
            raise InputFormatError(f"network document is missing {key!r}")
    if isinstance(doc["slack"], list):
        raise ModelError("multiple slack buses are not supported")

    buses = []
    for i, b in enumerate(list_from_doc(doc["buses"], "buses")):
        try:
            spec = BusSpec(id=str(b["id"]), phases=str(b["phases"]))
        except (TypeError, KeyError):
            raise InputFormatError(f"buses[{i}]: expected id and phases") from None
        if "delta_connections" in b:
            pairs = list_from_doc(b["delta_connections"], f"buses[{i}].delta_connections")
            spec.delta_connections = tuple(map(str, pairs))
        buses.append(spec)

    lines = _line_specs(doc["lines"])

    sl = doc["slack"]
    try:
        voltages = np.array(
            [complex_from_doc(v, f"slack.voltages[{i}]") for i, v in enumerate(sl["voltages"])],
            dtype=complex,
        )
        slack = SlackSpec(id=str(sl["id"]), voltages=voltages)
    except (TypeError, KeyError):
        raise InputFormatError("slack: expected id and voltages") from None

    return assemble_network(buses, lines, slack)


def _read_json(path):
    """The document in the JSON file at ``path``.  A file that ``json``
    cannot read, also one that is not UTF-8, is nested past the recursion
    limit or holds an integer past Python's digit limit, raises
    ``InputFormatError`` naming ``path``."""
    with open(path) as fh:
        try:
            return json.load(fh)
        except (ValueError, RecursionError) as exc:
            raise InputFormatError(f"{path}: invalid JSON ({exc})") from None


def network_from_file(path) -> NetworkModel:
    return network_from_json(_read_json(path))
