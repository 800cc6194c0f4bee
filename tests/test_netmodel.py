import dataclasses
import gc
import io
import json
import math
import re
import weakref
from functools import partial

import numpy as np
import numpy.testing as npt
import pytest
import scipy.linalg
import scipy.sparse
import scipy.sparse.csgraph
from hypothesis import given, settings
from hypothesis import strategies as st

import mplf
from mplf import _jsontext, cli, netmodel
from mplf.analysis import interval_summary
from mplf.datafiles import bundled_path
from mplf.netmodel import RCOND_FLOOR, LUFactor, _tree_inverse
from conftest import (
    BALANCED_V0,
    assert_bitwise,
    dense_incidence,
    random_injections,
    random_network,
    random_network_specs,
    single_phase_model,
)

GAMMA_BLOCK = np.array([[1, -1, 0], [0, 1, -1], [-1, 0, 1]])


def three_phase_line(y=5.0 - 15.0j):
    return np.diag([y, y, y]).astype(complex)


BUNDLED = ("ieee37", "ieee123", "three_bus", "single_phase")


def assert_same_csc(a, b):
    """Two CSC matrices hold the same arrays, bit for bit."""
    assert a.shape == b.shape
    for name in ("data", "indices", "indptr"):
        x, y = getattr(a, name), getattr(b, name)
        assert x.dtype == y.dtype and np.array_equal(x, y), name


def bundled_specs(name, monkeypatch):
    """The bus, line and slack specs that a bundled network document parses to."""
    specs = []
    assemble = netmodel.assemble_network

    def capture(buses, lines, slack):
        specs.extend((buses, lines, slack))
        return assemble(buses, lines, slack)

    with monkeypatch.context() as patch:
        patch.setattr(netmodel, "assemble_network", capture)
        mplf.network_from_file(bundled_path(f"{name}_network.json"))
    return tuple(specs)


def parallel_lines(rng, lines):
    """Extra lines beside some of ``lines``, some reversed, with their own shunts."""
    extra = []
    for line in lines:
        if rng.random() < 0.5:
            ends = (line.from_bus, line.to_bus)[:: 1 if rng.random() < 0.5 else -1]
            k = len(line.phases)
            extra.append(mplf.LineSpec(
                *ends, line.phases, line.y_series * rng.uniform(0.5, 2.0),
                y_shunt_to=1j * np.diag(0.001 * rng.random(k)),
            ))
    return extra


def dense_assembly(model, lines):
    """The full admittance matrix by dense ``np.ix_`` nodal assembly,
    slack phases first, in the model's phase order."""
    m, n = len(model.slack_phases), model.n_phases
    gidx = {(model.slack_id, p): i for i, p in enumerate(model.slack_phases)}
    gidx.update({key: m + col for key, col in model.index.phase_index.items()})
    full = np.zeros((m + n, m + n), dtype=complex)
    for line in lines:
        phases = netmodel.canonical_phases(line.phases)
        ys = np.asarray(line.y_series, dtype=complex)
        fi = [gidx[(line.from_bus, p)] for p in phases]
        ti = [gidx[(line.to_bus, p)] for p in phases]
        full[np.ix_(fi, fi)] += ys
        full[np.ix_(ti, ti)] += ys
        full[np.ix_(fi, ti)] -= ys
        full[np.ix_(ti, fi)] -= ys
        for blk, idx in ((line.y_shunt_from, fi), (line.y_shunt_to, ti)):
            if blk is not None:
                full[np.ix_(idx, idx)] += blk
    return full


class TestConnectionMatrix:
    @pytest.mark.parametrize("phases", ["abc", "cba"])
    def test_full_three_phase_bus_gives_gamma_block(self, phases):
        # A phase set in another order is put in canonical order.
        assert netmodel.canonical_phases(phases) == "abc"
        buses = [
            mplf.BusSpec("s", "abc"),
            mplf.BusSpec("b", phases, ("ab", "bc", "ca")),
        ]
        lines = [mplf.LineSpec("s", "b", "abc", three_phase_line())]
        model = mplf.assemble_network(buses, lines, mplf.SlackSpec("s", BALANCED_V0))
        H = dense_incidence(model.connection, model.n_phases)
        npt.assert_array_equal(H, GAMMA_BLOCK)
        npt.assert_array_equal(np.abs(H), np.abs(GAMMA_BLOCK))

    def test_two_phase_bus_single_pair(self):
        buses = [mplf.BusSpec("s", "ab"), mplf.BusSpec("b", "ab", ("ab",))]
        lines = [mplf.LineSpec("s", "b", "ab", np.eye(2, dtype=complex))]
        model = mplf.assemble_network(buses, lines, mplf.SlackSpec("s", BALANCED_V0[:2]))
        npt.assert_array_equal(dense_incidence(model.connection, model.n_phases), [[1, -1]])

    def test_no_delta_connections_empty_rows(self):
        model, _ = single_phase_model()
        H = dense_incidence(model.connection, model.n_phases)
        assert H.shape == (0, 1)
        assert np.abs(H).shape == (0, 1)

    def test_missing_phase_rejected(self):
        buses = [mplf.BusSpec("s", "abc"), mplf.BusSpec("b", "ab", ("bc",))]
        lines = [mplf.LineSpec("s", "b", "ab", np.eye(2, dtype=complex))]
        with pytest.raises(mplf.ModelError):
            mplf.assemble_network(buses, lines, mplf.SlackSpec("s", BALANCED_V0))

    def test_row_sums_vanish(self, rng):
        for _ in range(10):
            model, _ = random_network(rng)
            if model.n_delta:
                H = dense_incidence(model.connection, model.n_phases)
                npt.assert_array_equal(H.sum(axis=1), 0)

    def test_pair_columns_match_incidence(self, rng):
        models = [mplf.network_from_file(bundled_path(f"{name}_network.json"))
                  for name in BUNDLED]
        models += [random_network(rng, max_buses=8)[0] for _ in range(20)]
        for model in models:
            conn = model.connection
            H = dense_incidence(conn, model.n_phases)
            npt.assert_array_equal(conn.first, np.argmax(H, axis=1))
            npt.assert_array_equal(conn.second, np.argmin(H, axis=1))
            rows = np.arange(model.n_delta)
            assert (H[rows, conn.first] == 1).all() and (H[rows, conn.second] == -1).all()
            assert not (conn.first.flags.writeable or conn.second.flags.writeable)

    @pytest.mark.parametrize("padded", [False, True], ids=["random", "zero-padded"])
    def test_methods_equal_dense_products_bitwise(self, rng, padded):
        # Each row of H has two nonzeros and each column at most two, so no
        # sum is reordered: even the signs of zeros agree.  The block's data
        # are Gaussian integers, on which every sum is exact in any order.
        models = [mplf.network_from_file(bundled_path(f"{name}_network.json"))
                  for name in BUNDLED]
        models.append(random_network(rng, max_buses=8)[0])

        def draw(k, integer=False):
            if integer:
                x = rng.integers(-3, 4, k) + 1j * rng.integers(-3, 4, k)
            else:
                x = rng.standard_normal(k) + 1j * rng.standard_normal(k)
            if padded:
                x[rng.random(k) < 0.5] = 0.0
            return x

        for model in models:
            conn, n, d = model.connection, model.n_phases, model.n_delta
            H = dense_incidence(conn, n)
            # scatter's fancy-index adds count on this: no phase repeats.
            assert np.unique(conn.first).size == np.unique(conn.second).size == d
            for _ in range(10):
                v, y, r = draw(n), draw(d), np.abs(draw(n))
                rows = np.stack([draw(n) for _ in range(3)])
                pair_rows = np.stack([draw(d) for _ in range(3)])
                assert_bitwise(conn.gather(v), H @ v)
                assert_bitwise(conn.gather(rows), np.stack([H @ row for row in rows]))
                assert_bitwise(conn.pair_sum(r), np.abs(H) @ r)
                assert_bitwise(conn.scatter(y, n), H.T @ y)
                assert_bitwise(conn.scatter(pair_rows, n), np.stack([H.T @ row for row in pair_rows]))
                diag, pair = draw(n, True), draw(d, True)
                dense = np.diag(diag) - H.T @ (pair[:, None] * H)
                assert_bitwise(conn.bus_block(diag, pair).toarray(), dense)


class TestAssembly:
    def test_single_branch_blocks(self):
        model, _ = single_phase_model(y=1.0)
        npt.assert_allclose(model.yll.toarray(), [[1.0]])
        npt.assert_allclose(model.yl0, [[-1.0]])
        npt.assert_allclose(model.y00, [[1.0]])

    def test_parallel_lines_double_admittance(self):
        buses = [mplf.BusSpec("s", "a"), mplf.BusSpec("b", "a")]
        line = mplf.LineSpec("s", "b", "a", np.array([[2.0 - 4.0j]]))
        one = mplf.assemble_network(buses, [line], mplf.SlackSpec("s", np.array([1.0 + 0j])))
        two = mplf.assemble_network(buses, [line, line], mplf.SlackSpec("s", np.array([1.0 + 0j])))
        npt.assert_allclose(two.yll.toarray(), 2 * one.yll.toarray())

    def test_zero_admittance_line_isolates_bus(self):
        buses = [mplf.BusSpec("s", "a"), mplf.BusSpec("b", "a")]
        lines = [mplf.LineSpec("s", "b", "a", np.array([[0.0 + 0j]]))]
        with pytest.raises(mplf.ModelError, match="not connected"):
            mplf.assemble_network(buses, lines, mplf.SlackSpec("s", np.array([1.0 + 0j])))

    def test_cancelling_parallel_lines_isolate_bus(self):
        buses = [mplf.BusSpec("s", "a"), mplf.BusSpec("b", "a"), mplf.BusSpec("c", "a")]
        y = np.array([[1.0 - 3.0j]])
        lines = [
            mplf.LineSpec("s", "b", "a", y),
            mplf.LineSpec("b", "c", "a", y),
            mplf.LineSpec("c", "b", "a", -y),
        ]
        with pytest.raises(mplf.ModelError, match=r"not connected to the slack: \['c'\]"):
            mplf.assemble_network(buses, lines, mplf.SlackSpec("s", np.array([1.0 + 0j])))

    def test_asymmetric_block_rejected(self):
        buses = [mplf.BusSpec("s", "ab"), mplf.BusSpec("b", "ab")]
        lines = [mplf.LineSpec("s", "b", "ab", np.array([[1.0, 0.5], [0.1, 1.0]], complex))]
        with pytest.raises(mplf.ModelError, match="symmetric"):
            mplf.assemble_network(buses, lines, mplf.SlackSpec("s", BALANCED_V0[:2]))

    def test_singular_yll_rejected(self):
        buses = [mplf.BusSpec("s", "ab"), mplf.BusSpec("b", "ab")]
        lines = [mplf.LineSpec("s", "b", "ab", np.ones((2, 2), complex))]
        with pytest.raises(mplf.SingularModelError):
            mplf.assemble_network(buses, lines, mplf.SlackSpec("s", BALANCED_V0[:2]))

    def test_slack_only_network_rejected(self):
        slack = mplf.SlackSpec("s", BALANCED_V0)
        with pytest.raises(mplf.ModelError, match="no bus besides the slack"):
            mplf.assemble_network([mplf.BusSpec("s", "abc")], [], slack)

    def test_phase_mismatch_rejected(self):
        buses = [mplf.BusSpec("s", "a"), mplf.BusSpec("b", "b")]
        lines = [mplf.LineSpec("s", "b", "ab", np.eye(2, dtype=complex))]
        with pytest.raises(mplf.ModelError, match="absent"):
            mplf.assemble_network(buses, lines, mplf.SlackSpec("s", np.array([1.0 + 0j])))
        # One slack voltage per slack phase.
        lines = [mplf.LineSpec("s", "b", "a", np.eye(1, dtype=complex))]
        buses = [mplf.BusSpec("s", "a"), mplf.BusSpec("b", "a")]
        with pytest.raises(mplf.ModelError, match="slack voltage vector has length 3, expected 1"):
            mplf.assemble_network(buses, lines, mplf.SlackSpec("s", BALANCED_V0))

    @pytest.mark.parametrize(
        "slack_pairs, pairs, phases, message",
        [
            ((), ("ab", "ab"), "abc", "bus 'b': duplicate delta connection"),
            ((), ("ba",), "abc", "bus 'b': unknown phase pair in ('ba',)"),
            ((), ("bc",), "ab", "bus 'b': delta connection 'bc' references a missing phase"),
            (("ab",), (), "abc", "delta connections on the slack bus are not supported"),
        ],
    )
    def test_bad_delta_connections_rejected(self, slack_pairs, pairs, phases, message):
        buses = [mplf.BusSpec("s", "abc", slack_pairs), mplf.BusSpec("b", phases, pairs)]
        lines = [mplf.LineSpec("s", "b", phases, np.eye(len(phases), dtype=complex))]
        with pytest.raises(mplf.ModelError) as info:
            mplf.assemble_network(buses, lines, mplf.SlackSpec("s", BALANCED_V0))
        assert str(info.value) == message

    def test_full_matrix_symmetric_on_random_networks(self, rng):
        for _ in range(10):
            model, _ = random_network(rng)
            full = np.block([[model.y00, model.y0l], [model.yl0, model.yll.toarray()]])
            npt.assert_allclose(full, full.T, rtol=0, atol=1e-12 * np.abs(full).max())

    def test_matches_dense_assembly_bitwise(self, rng, monkeypatch):
        cases = [bundled_specs(name, monkeypatch) for name in BUNDLED]
        for _ in range(20):
            buses, lines, slack = random_network_specs(rng, max_buses=8, shunt_prob=0.5)
            cases.append((buses, lines + parallel_lines(rng, lines), slack))
        for buses, lines, slack in cases:
            model = mplf.assemble_network(buses, lines, slack)
            full = dense_assembly(model, lines)
            m = len(model.slack_phases)
            for block, ref in ((model.y00, full[:m, :m]), (model.y0l, full[:m, m:]),
                               (model.yl0, full[m:, :m])):
                assert np.array_equal(block, ref)
            assert_same_csc(model.yll, scipy.sparse.csc_matrix(full[m:, m:]))


def banded(n, dtype, seed=5):
    """A sparse, diagonally dominant (well-conditioned) banded matrix."""
    rng = np.random.default_rng(seed)
    diags = [rng.standard_normal(n - abs(k)) for k in (-2, -1, 0, 1, 2)]
    if dtype is complex:
        diags = [x + 1j * rng.standard_normal(x.size) for x in diags]
    diags[2] = diags[2] + 6.0
    return scipy.sparse.diags(diags, [-2, -1, 0, 1, 2], format="csc")


def dense_lu_reference(matrix):
    """LAPACK LU solves and gecon's 1-norm reciprocal condition estimate."""
    lu = scipy.linalg.lu_factor(matrix)
    (gecon,) = scipy.linalg.get_lapack_funcs(("gecon",), (matrix,))
    rcond, info = gecon(lu[0], np.linalg.norm(matrix, 1), norm="1")
    assert info == 0
    return partial(scipy.linalg.lu_solve, lu), rcond


class TestLUFactor:
    @pytest.mark.parametrize("dtype", [float, complex])
    def test_sparse_and_dense_paths_agree(self, dtype):
        matrix = banded(40, dtype)
        rhs = np.random.default_rng(6).standard_normal((40, 3))
        sparse = LUFactor(matrix, mplf.SingularModelError, "test matrix")
        dense_solve, dense_rcond = dense_lu_reference(matrix.toarray())
        x_sparse, x_dense = sparse.solve(rhs), dense_solve(rhs)
        assert np.abs(x_sparse - x_dense).max() <= 1e-12 * np.abs(x_dense).max()
        npt.assert_allclose(matrix @ x_sparse, rhs, atol=1e-12)
        assert dense_rcond / 10 <= sparse.rcond <= dense_rcond * 10

    @pytest.mark.parametrize("dtype", [float, complex])
    @pytest.mark.parametrize("n", [3, 32, 77])
    def test_blocked_inverse_equals_identity_solve(self, dtype, n):
        factor = LUFactor(banded(n, dtype), mplf.SingularModelError, "test matrix")
        inv = factor.inverse()
        full = factor.solve(np.eye(n, dtype=dtype))
        assert inv.dtype == full.dtype and inv.flags.f_contiguous
        assert np.array_equal(inv, full)

    def test_exactly_singular_sparse_matrix_rejected(self):
        matrix = banded(10, float).tolil()
        matrix[:, 4] = 0.0
        with pytest.raises(
            mplf.SingularModelError,
            match=r"test matrix is singular or near-singular \(rcond=0\.000e\+00\)",
        ):
            LUFactor(matrix.tocsc(), mplf.SingularModelError, "test matrix")

    def test_near_singular_sparse_matrix_rejected(self):
        # Not exactly singular, so SuperLU factors it; the estimate catches it.
        matrix = banded(10, float) @ scipy.sparse.diags([1.0] * 9 + [1e-17])
        with pytest.raises(
            mplf.SingularModelError, match=r"singular or near-singular \(rcond=\d\.\d{3}e-\d+\)"
        ) as info:
            LUFactor(matrix.tocsc(), mplf.SingularModelError, "test matrix")
        rcond = float(re.search(r"rcond=([^)]+)", str(info.value)).group(1))
        assert 0.0 < rcond < RCOND_FLOOR


class TestYllFactor:
    """``yll`` is assembled sparse and factored by ``LUFactor``."""

    def models(self, rng):
        feeders = [mplf.network_from_file(bundled_path(f"{name}_network.json"))
                   for name in BUNDLED]
        return feeders + [random_network(rng)[0] for _ in range(20)]

    def test_sparse_copy_is_exact(self, rng):
        # The only copy of yll is the canonical CSC form of its dense values.
        for model in self.models(rng):
            y = model.yll
            assert y.format == "csc" and y.has_canonical_format
            assert y.nnz == np.count_nonzero(y.toarray())
            assert_same_csc(y, scipy.sparse.csc_matrix(y.toarray()))

    def test_condition_estimate_matches_dense(self, rng):
        for model in self.models(rng):
            _, dense_rcond = dense_lu_reference(model.yll.toarray())
            assert model.rcond == LUFactor(model.yll, mplf.SingularModelError, "yll").rcond
            assert abs(model.rcond - dense_rcond) <= 1e-12 * dense_rcond


def forest_specs(rng, trees):
    """Specs of ``trees`` random trees that each hang off the slack by one
    line, so that ``yll``'s bus graph is a forest of that many trees."""
    buses, lines = [mplf.BusSpec("slack", "abc")], []
    for k in range(trees):
        tree_buses, tree_lines, slack = random_network_specs(rng, max_buses=8)

        def name(bus, k=k):
            return bus if bus == "slack" else f"t{k}.{bus}"

        buses += [dataclasses.replace(b, id=name(b.id)) for b in tree_buses[1:]]
        lines += [dataclasses.replace(ln, from_bus=name(ln.from_bus), to_bus=name(ln.to_bus))
                  for ln in tree_lines]
    return buses, lines, slack


def tree_models(case, rng, monkeypatch):
    """The models of one ``TestTreeInverse`` case."""
    if case in BUNDLED:
        return [mplf.network_from_file(bundled_path(f"{case}_network.json"))]
    if case == "random-trees":
        return [random_network(rng)[0] for _ in range(50)]
    if case == "large-tree":
        return [mplf.assemble_network(*random_network_specs(np.random.default_rng(0), 1500))]
    if case == "forest":
        return [mplf.assemble_network(*forest_specs(rng, trees)) for trees in (2, 3, 6)]
    if case in ("loop", "slack-loop"):
        # One more line, between buses of ieee37 that the feeder does not
        # join, closes a loop: among the PQ buses, or through the slack.
        buses, lines, slack = bundled_specs("ieee37", monkeypatch)
        ends = (lines[0].to_bus, lines[-1].to_bus) if case == "loop" else (slack.id, "702")
        loop = mplf.LineSpec(*ends, "abc", three_phase_line())
        return [mplf.assemble_network(buses, [*lines, loop], slack)]
    # A one-phase leaf whose shunt cancels its line: its Schur block is 0
    # while yll is nonsingular.  Then the same leaf cancelled to 1e-12.
    y = 2.0 - 6.0j
    buses = [mplf.BusSpec(bus, "a") for bus in ("src", "mid", "leaf")]
    slack = mplf.SlackSpec("src", np.array([1.0 + 0j]))
    models = []
    for cancel in (1.0, 1.0 - 1e-12):
        lines = [
            mplf.LineSpec("src", "mid", "a", np.array([[1.0 - 3.0j]])),
            mplf.LineSpec("mid", "leaf", "a", np.array([[y]]), y_shunt_to=np.array([[-cancel * y]])),
        ]
        models.append(mplf.assemble_network(buses, lines, slack))
    return models


def walked_inverse(model, monkeypatch):
    """``model.yll_inverse`` and what the tree walk returned while making it."""
    walked = []

    def walk(*args):
        walked.append(_tree_inverse(*args))
        return walked[-1]

    monkeypatch.setattr(netmodel, "_tree_inverse", walk)
    return model.yll_inverse, walked


class TestTreeInverse:
    """On a radial feeder the dense ``yll^-1`` comes from a walk over the
    bus tree; elsewhere it comes from the LU factors, bit for bit."""

    @pytest.mark.parametrize("case", [*BUNDLED, "random-trees", "large-tree", "forest"])
    def test_walk_matches_lu_inverse(self, case, rng, monkeypatch):
        models = tree_models(case, rng, monkeypatch)
        if case == "large-tree":
            assert models[0].n_phases >= 1000
        if case == "forest":
            # yll has one bus-graph component per slack-adjacent subtree.
            for model, trees in zip(models, (2, 3, 6)):
                sizes = [len(p) for p in model.index.phases_per_bus]
                bus = np.repeat(np.arange(len(sizes)), sizes)
                coo = model.yll.tocoo()
                graph = scipy.sparse.coo_matrix(
                    (np.ones(coo.nnz), (bus[coo.row], bus[coo.col])), shape=(len(sizes),) * 2
                )
                assert scipy.sparse.csgraph.connected_components(graph)[0] == trees
        for model in models:
            inverse, walked = walked_inverse(model, monkeypatch)
            assert len(walked) == 1 and walked[0] is inverse
            assert inverse.flags.f_contiguous and not inverse.flags.writeable
            reference = model.factor.inverse()
            gap = np.linalg.norm(inverse - reference, np.inf) / np.linalg.norm(reference, np.inf)
            assert gap <= 1e-12

    @pytest.mark.parametrize("case", ["loop", "slack-loop", "cancelled-leaf"])
    def test_lu_inverse_where_the_walk_does_not_hold(self, case, rng, monkeypatch):
        for model in tree_models(case, rng, monkeypatch):
            inverse, walked = walked_inverse(model, monkeypatch)
            if case == "cancelled-leaf":
                assert model.rcond > 0.1  # yll itself is well conditioned
                assert walked == [None]
            else:
                assert walked == []  # a loop is never walked
            assert_bitwise(inverse, model.factor.inverse())


class TestZeroLoad:
    def test_single_phase_unity(self):
        model, profile = single_phase_model(y=1.0, v0=1.0)
        npt.assert_allclose(profile.w, [1.0])

    def test_balanced_three_phase_replicates_slack(self):
        buses = [mplf.BusSpec("s", "abc"), mplf.BusSpec("b", "abc")]
        lines = [mplf.LineSpec("s", "b", "abc", three_phase_line())]
        model = mplf.assemble_network(buses, lines, mplf.SlackSpec("s", BALANCED_V0))
        profile = mplf.zero_load_voltage(model)
        npt.assert_allclose(profile.w, BALANCED_V0, atol=1e-12)

    def test_chain_of_two_buses(self):
        buses = [mplf.BusSpec("s", "a"), mplf.BusSpec("b1", "a"), mplf.BusSpec("b2", "a")]
        lines = [
            mplf.LineSpec("s", "b1", "a", np.array([[1.0 + 0j]])),
            mplf.LineSpec("b1", "b2", "a", np.array([[1.0 + 0j]])),
        ]
        model = mplf.assemble_network(buses, lines, mplf.SlackSpec("s", np.array([1.0 + 0j])))
        profile = mplf.zero_load_voltage(model)
        npt.assert_allclose(profile.w, [1.0, 1.0], atol=1e-12)

    def test_profile_is_the_models_own(self, rng):
        model, profile = random_network(rng)
        assert mplf.zero_load_voltage(model) is mplf.zero_load_voltage(model) is profile
        assert model.zero_load is profile and profile.connection is model.connection

    def test_dropped_model_freed_without_gc(self):
        # No reference cycle runs through the model and its cached
        # quantities, so the last reference frees it with the collector off.
        model = mplf.network_from_file(bundled_path("ieee37_network.json"))
        gc.disable()
        try:
            mplf.zero_load_voltage(model), model.yll_inverse, model.xi_weights
            freed = weakref.ref(model)
            del model
            assert freed() is None
        finally:
            gc.enable()

    def test_zero_slack_voltage_rejected(self):
        with pytest.raises(mplf.DegenerateProfileError):
            single_phase_model(v0=0.0)

    def test_profile_entries_positive_on_random_networks(self, rng):
        for _ in range(10):
            _, profile = random_network(rng)
            assert profile.w_abs.min() > 0
            if profile.Lw.size:
                assert profile.Lw.min() > 0

    def test_solve_residual_small(self, rng):
        model, profile = random_network(rng)
        res = np.abs(model.yll @ profile.w + model.yl0 @ model.v0)
        assert res.max() <= 1e-10

    def test_short_line_builds_and_certifies(self):
        # A 701-702 line a thousandth as long (about one foot): rcond is
        # 1.2e-6, and the zero-load residual of 1.1e-10 is 1.4e-16 relative
        # to |yll|_1 |w|_inf.  An absolute 1e-10 bound on that residual
        # used to reject the feeder as ill-conditioned.
        doc = json.loads(bundled_path("ieee37_network.json").read_text())
        for entry in doc["lines"][0]["series_admittance"]:
            entry["re"], entry["im"] = 1e3 * entry["re"], 1e3 * entry["im"]
        model = mplf.network_from_json(doc)
        assert RCOND_FLOOR < model.factor.rcond < 1e-5
        profile = mplf.zero_load_voltage(model)
        inj = mplf.injections_from_file(bundled_path("ieee37_injections_mixed.json"), model)
        assert mplf.solve_fixed_point(model, profile, inj).converged
        base = (profile.w, mplf.InjectionSet.zeros(model))
        assert mplf.check_theorem2(model, profile, base, inj).satisfied
        lo, hi = mplf.feasible_interval(model, profile, base, inj, theorem=1)
        assert hi == pytest.approx(-lo) and hi == pytest.approx(3.73, abs=0.01)


def feeder_case(feeder):
    model = mplf.network_from_file(bundled_path(f"{feeder}_network.json"))
    inj = mplf.injections_from_file(bundled_path(f"{feeder}_injections_mixed.json"), model)
    return model, mplf.zero_load_voltage(model), inj


PROFILE_USERS = {
    "fixed_point_map": lambda m, p, own, inj: mplf.fixed_point_map(m, p, inj, own.w),
    "solve_fixed_point": lambda m, p, own, inj: mplf.solve_fixed_point(m, p, inj),
    "xi_norms": lambda m, p, own, inj: mplf.xi_norms(m, p, inj),
    "check_theorem1": lambda m, p, own, inj: mplf.check_theorem1(
        m, p, (own.w, mplf.InjectionSet.zeros(m)), inj
    ),
    "check_theorem2": lambda m, p, own, inj: mplf.check_theorem2(
        m, p, (own.w, mplf.InjectionSet.zeros(m)), inj
    ),
    "fpl_linearize": lambda m, p, own, inj: mplf.fpl_linearize(
        m, p, mplf.solve_fixed_point(m, own, inj), inj
    ),
}


@pytest.mark.parametrize("entry", list(PROFILE_USERS))
class TestProfileOfAnotherModel:
    """A zero-load profile serves only the model object it was built for."""

    def test_other_feeder_rejected(self, entry):
        model, own, inj = feeder_case("ieee37")
        other = feeder_case("ieee123")[1]
        with pytest.raises(ValueError, match="^w_profile was built for another model$"):
            PROFILE_USERS[entry](model, other, own, inj)

    def test_equal_model_rejected(self, entry):
        # A second parse of the same document is another model object of
        # the same size, whose profile holds the same numbers.
        model, own, inj = feeder_case("ieee37")
        twin = feeder_case("ieee37")[1]
        assert_bitwise(twin.w, own.w)
        with pytest.raises(ValueError, match="^w_profile was built for another model$"):
            PROFILE_USERS[entry](model, twin, own, inj)
        PROFILE_USERS[entry](model, own, own, inj)


class TestPermutationEquivariance:
    def test_relabeling_permutes_everything(self, rng):
        for _ in range(5):
            buses, lines, slack = random_network_specs(rng, max_buses=4)
            model = mplf.assemble_network(buses, lines, slack)
            profile = mplf.zero_load_voltage(model)
            inj = random_injections(rng, model, profile, target_xi=0.1)

            # Same network, PQ buses declared in reversed order.
            permuted = mplf.assemble_network([buses[0]] + buses[1:][::-1], lines, slack)

            perm = [
                model.index.phase_index[key]
                for key in sorted(permuted.index.phase_index, key=permuted.index.phase_index.get)
            ]
            dperm = [
                model.index.delta_index[key]
                for key in sorted(permuted.index.delta_index, key=permuted.index.delta_index.get)
            ]
            npt.assert_allclose(permuted.yll.toarray(), model.yll.toarray()[np.ix_(perm, perm)])
            npt.assert_array_equal(
                dense_incidence(permuted.connection, permuted.n_phases),
                dense_incidence(model.connection, model.n_phases)[np.ix_(dperm, perm)],
            )

            npt.assert_allclose(
                permuted.yll_inverse, model.yll_inverse[np.ix_(perm, perm)], rtol=1e-12, atol=0
            )

            prof_p = mplf.zero_load_voltage(permuted)
            npt.assert_allclose(prof_p.w, profile.w[perm])

            inj_p = mplf.InjectionSet(inj.s_wye[perm], inj.s_delta[dperm])
            sol = mplf.solve_fixed_point(model, profile, inj)
            sol_p = mplf.solve_fixed_point(permuted, prof_p, inj_p)
            npt.assert_allclose(sol_p.v, sol.v[perm], atol=1e-9)


class TestJson:
    def doc(self):
        return {
            "buses": [
                {"id": "s", "phases": "ab"},
                {"id": "b", "phases": "ab", "delta_connections": ["ab"]},
            ],
            "lines": [
                {
                    "from": "s",
                    "to": "b",
                    "phases": "ab",
                    "series_admittance": [
                        {"re": 1.0, "im": -2.0},
                        {"re": 0.0, "im": 0.0},
                        {"re": 0.0, "im": 0.0},
                        {"re": 1.0, "im": -2.0},
                    ],
                }
            ],
            "slack": {
                "id": "s",
                "voltages": [{"re": 1.0, "im": 0.0}, {"re": -0.5, "im": -0.8660254}],
            },
        }

    def test_parse_golden(self):
        model = mplf.network_from_json(self.doc())
        assert model.n_phases == 2
        assert model.n_delta == 1
        npt.assert_allclose(model.yll.toarray(), np.diag([1 - 2j, 1 - 2j]))

    def test_missing_key_rejected(self):
        doc = self.doc()
        del doc["slack"]
        with pytest.raises(mplf.InputFormatError, match="slack"):
            mplf.network_from_json(doc)

    def test_wrong_block_size_rejected(self):
        doc = self.doc()
        doc["lines"][0]["series_admittance"] = doc["lines"][0]["series_admittance"][:3]
        with pytest.raises(mplf.InputFormatError, match="series_admittance"):
            mplf.network_from_json(doc)

    def test_multiple_slack_rejected(self):
        doc = self.doc()
        doc["slack"] = [doc["slack"], doc["slack"]]
        with pytest.raises(mplf.ModelError, match="slack"):
            mplf.network_from_json(doc)

    def test_bad_complex_rejected(self):
        doc = self.doc()
        doc["slack"]["voltages"][0] = {"re": 1.0}
        with pytest.raises(mplf.InputFormatError, match="voltages"):
            mplf.network_from_json(doc)


def reference_json(doc):
    """The artifact bytes of the nested-list form of ``doc``: arrays as
    lists, complex entries as {"re", "im"} objects and non-finite floats as
    None, through the standard encoder."""

    def plain(value):
        if isinstance(value, np.ndarray):
            value = value.tolist()
        if isinstance(value, dict):
            return {key: plain(item) for key, item in value.items()}
        if isinstance(value, (list, tuple)):
            return [plain(item) for item in value]
        if isinstance(value, complex):
            return {"re": plain(value.real), "im": plain(value.imag)}
        if isinstance(value, float) and not math.isfinite(value):
            return None
        return value

    return json.dumps(plain(doc), indent=2, sort_keys=True) + "\n"


def written(doc):
    buf = io.StringIO()
    mplf.write_json(doc, buf)
    return buf.getvalue()


def artifact_documents(feeder, injections):
    """The solve, Theorem 1/2, FOT, FPL and interval-summary documents."""
    model = mplf.network_from_file(bundled_path(f"{feeder}_network.json"))
    profile = mplf.zero_load_voltage(model)
    inj = mplf.injections_from_file(bundled_path(f"{feeder}_{injections}.json"), model)
    sol = mplf.solve_fixed_point(model, profile, inj)
    zero = (profile.w, mplf.InjectionSet.zeros(model))
    sweep = mplf.linear_error_sweep(
        model, profile, sol, inj, inj, np.linspace(0.5, 1.5, 3),
        base_kappa=1.0, kappa_bounds=(-1.5, 1.5),
    )
    return {
        "solve": cli.solve_document(model, sol),
        "theorem1": mplf.check_theorem1(model, profile, zero, inj).to_dict(),
        "theorem2": mplf.check_theorem2(model, profile, zero, inj).to_dict(),
        "fot": mplf.fot_linearize(model, sol, inj).to_dict(),
        "fpl": mplf.fpl_linearize(model, profile, sol, inj).to_dict(),
        "intervals": interval_summary(sweep),
    }


def kernel_texts(x):
    """The float kernel's text of each entry of ``x``, a block at a time."""
    x = np.asarray(x, dtype=float)
    texts = []
    for start in range(0, x.size, _jsontext._BLOCK):
        block = _jsontext._float_texts(x[start:start + _jsontext._BLOCK])
        texts += block.view(f"S{_jsontext._WIDTH}").ravel().tolist()
    return [text.decode() for text in texts]


def repr_texts(x):
    x = np.asarray(x, dtype=float)
    texts = list(map(float.__repr__, x.tolist()))
    for i in np.flatnonzero(~np.isfinite(x)):
        texts[i] = "null"
    return texts


def assert_repr_texts(x):
    got, expected = kernel_texts(x), repr_texts(x)
    if got != expected:
        bad = [(want, text) for text, want in zip(got, expected) if text != want]
        pytest.fail(f"{len(bad)} of {len(got)} texts differ from float.__repr__, e.g. {bad[:5]}")


def neighbours(x, k=8):
    """The ``k`` doubles on each side of each of ``x``, and ``x``."""
    bits = np.asarray(x, dtype=float).view(np.int64)
    return (bits[:, None] + np.arange(-k, k + 1)).ravel().view(np.float64)


class TestFloatKernel:
    """The vectorised float text against ``float.__repr__``."""

    @settings(database=None, derandomize=True, deadline=None, max_examples=300)
    @given(st.lists(st.floats(allow_nan=True, allow_infinity=True), min_size=1, max_size=64))
    def test_hypothesis_floats(self, values):
        assert_repr_texts(np.array(values))

    def test_random_bit_patterns(self):
        bits = np.random.default_rng(19).integers(0, 2**64, size=10**6, dtype=np.uint64, endpoint=False)
        assert_repr_texts(bits.view(np.float64))

    def test_subnormals(self):
        rng = np.random.default_rng(20)
        mantissas = np.concatenate([np.arange(1, 2049), rng.integers(1, 2**52, size=20000)])
        x = mantissas.astype(np.uint64).view(np.float64)
        assert_repr_texts(np.concatenate([x, -x]))

    def test_powers_of_two_and_ten(self):
        assert_repr_texts(np.ldexp(1.0, np.arange(-1074, 1024)))
        tens = np.array([float(f"1e{k}") for k in range(-323, 309)])
        assert_repr_texts(np.concatenate([tens, -tens]))

    def test_notation_switches_and_integer_limit(self):
        # repr switches between fixed and exponent notation at 1e16 and 1e-4.
        assert_repr_texts(neighbours([1e16, 1e-4, 2.0**53, 1e15, 1e-5, 1.0]))

    def test_extremes_and_integers(self):
        finfo = np.finfo(float)
        assert_repr_texts([5e-324, -5e-324, 2.2250738585072014e-308, finfo.max, -finfo.max, 0.0, -0.0])
        assert_repr_texts(np.arange(-5000, 5000) * 997.0)
        assert kernel_texts([0.0, -0.0, np.nan, np.inf, -np.inf]) == ["0.0", "-0.0", "null", "null", "null"]


class TestWriteJson:
    @pytest.mark.parametrize(
        "feeder, injections",
        [
            ("ieee37", "injections_mixed"),
            ("ieee123", "injections_mixed"),  # the 244x514 maps of cli-artifacts
            ("three_bus", "injections"),
            ("single_phase", "injections"),  # no delta pairs
        ],
    )
    def test_artifacts_match_reference_encoder(self, feeder, injections):
        for name, doc in artifact_documents(feeder, injections).items():
            assert written(doc) == reference_json(doc), name

    def test_edge_values_match_reference_encoder(self):
        edge = np.array([np.nan, np.inf, -np.inf, -0.0, 0.0, 5e-324, 2.2e-308, 1e308, -1e308, 0.1])
        cedge = edge.astype(complex)
        cedge.imag = edge[::-1]
        block = _jsontext._BLOCK
        # NaN, -0.0 or a subnormal at the first and last entry of two blocks.
        ramp = np.linspace(0.0, 1.0, 2 * block)
        block_edges = {}
        for name, special in (("nan", np.nan), ("negative_zero", -0.0), ("subnormal", -5e-324)):
            vec = ramp.copy()
            vec[[0, block - 1, block, 2 * block - 1]] = special
            cvec = vec.astype(complex)
            cvec.imag = vec[::-1]
            block_edges[f"edges_{name}"] = vec
            block_edges[f"cedges_{name}"] = cvec
        doc = {
            "iterations": 7,
            "satisfied": False,
            "converged": True,
            "kind": 'bus "x" \u00fc\n',
            "scalar": np.float64(-0.0),
            "nan_scalar": np.float64(np.nan),
            "inf": float("inf"),
            "real": edge,
            "complex": cedge,
            "empty": np.zeros(0),
            "empty_complex": np.zeros(0, dtype=complex),
            "no_columns": np.zeros((3, 0), dtype=complex),
            "no_rows": np.zeros((0, 4)),
            "matrix": edge[:8].reshape(2, 4),
            "cmatrix": cedge[:6].reshape(3, 2),
            **block_edges,
            "long_rows": np.arange(2 * (block + 3), dtype=float).reshape(2, block + 3) / 7,
            "long_crows": np.tile(cedge, block)[: 2 * (block + 1)].reshape(2, block + 1),
            "split_matrix": ramp[: 7 * (block // 7 + 5)].reshape(-1, 7),  # a block ends mid-matrix
            "csplit_matrix": block_edges["cedges_nan"][: 7 * (block // 7 + 5)].reshape(-1, 7),
            "fortran_matrix": np.asfortranarray(edge.reshape(2, 5)),
            "cube": np.arange(24.0).reshape(2, 3, 4) / 3,
            "ccube": cedge[:8].reshape(2, 2, 2),
            "real_no_columns": np.zeros((2, 0)),
            "cube_no_columns": np.zeros((2, 3, 0)),
            "diagnostics": {
                "condition1": {"lhs": None, "rhs": np.inf, "satisfied": None},
                "nested": [None, [], {}, (1, 2.5), [np.nan, {"z": None, "a": -np.inf}]],
                "empty": {},
            },
        }
        assert written(doc) == reference_json(doc)

    def test_integer_arrays_are_written_as_floats(self):
        assert written(np.arange(2)) == "[\n  0.0,\n  1.0\n]\n"

    @pytest.mark.parametrize("value", [1.5, -0.0, np.nan, 0.1 - 2.5j, complex(-0.0, np.inf)])
    def test_zero_dimensional_arrays_are_written_as_vector_entries(self, value):
        # A 0-d array used to raise numpy's "iteration over a 0-d array".
        doc = {"x": np.array(value), "nested": [np.array(value)]}
        assert written(doc) == reference_json({"x": value, "nested": [value]})

    def test_zero_dimensional_non_number_rejected(self):
        with pytest.raises(TypeError, match="cannot write a 0-d <U1 array"):
            written({"x": np.array("s")})

    def test_path_destination(self, tmp_path):
        doc = {"v": np.array([1 + 2j])}
        mplf.write_json(doc, tmp_path / "doc.json")
        assert (tmp_path / "doc.json").read_text() == reference_json(doc)


@pytest.mark.parametrize(
    "mutate, where",
    [
        (lambda net, inj: net["slack"]["voltages"][1].update(re=np.nan), "slack.voltages[1]"),
        (
            lambda net, inj: net["lines"][0]["series_admittance"][4].update(im=np.inf),
            "lines[0].series_admittance[4]",
        ),
        (
            lambda net, inj: net["lines"][1]["series_admittance"][0].update(re=np.nan),
            "lines[1].series_admittance[0]",
        ),
        (
            lambda net, inj: net["lines"][1].update(shunt_from=[{"re": 0.0, "im": np.inf}] * 4),
            "lines[1].shunt_from[0]",
        ),
        (
            lambda net, inj: net["lines"][0].update(shunt_to=[{"re": np.nan, "im": 0.0}] * 9),
            "lines[0].shunt_to[0]",
        ),
        (
            lambda net, inj: inj["wye"].append(dict(inj["wye"][1], re=-0.1)),
            "wye[3]: duplicate of wye[1]",
        ),
        (
            lambda net, inj: inj["delta"].append(dict(inj["delta"][0], re=-0.1)),
            "delta[3]: duplicate of delta[0]",
        ),
        (lambda net, inj: net["slack"].pop("voltages"), "slack: expected id and voltages"),
        (lambda net, inj: net.update(buses=5), "buses: expected a list"),
        (lambda net, inj: net.update(lines=None), "lines: expected a list"),
        (lambda net, inj: net.update(lines=[5]), "lines[0]: expected an object"),
        (
            lambda net, inj: net["lines"][0].update(series_admittance=5),
            "lines[0].series_admittance: expected a list",
        ),
        (
            lambda net, inj: net["buses"][1].update(delta_connections="ab"),
            "buses[1].delta_connections: expected a list",
        ),
        (lambda net, inj: inj.update(wye=5), "wye: expected a list"),
        (lambda net, inj: inj.update(delta=None), "delta: expected a list"),
        (
            lambda net, inj: [e.update(re=1.7e308) for e in net["lines"][0]["series_admittance"]],
            "bus 'sub' phase 'a': admittance entries of line(s) 0 sum past the float range",
        ),
    ],
)
def test_bad_input_rejected_with_location(mutate, where):
    net = json.loads(bundled_path("three_bus_network.json").read_text())
    inj = json.loads(bundled_path("three_bus_injections.json").read_text())
    mutate(net, inj)
    with pytest.raises(mplf.InputFormatError, match=re.escape(where)):
        mplf.injections_from_json(inj, mplf.network_from_json(net))


@pytest.mark.parametrize("bad", [np.nan, np.inf])
def test_assemble_rejects_nonfinite_specs(bad):
    buses = [mplf.BusSpec("s", "a"), mplf.BusSpec("b", "a")]
    line = mplf.LineSpec("s", "b", "a", np.array([[1.0 + 0j]]))
    slack = mplf.SlackSpec("s", np.array([1.0 + 0j]))
    with pytest.raises(mplf.InputFormatError, match="slack voltages"):
        mplf.assemble_network(buses, [line], mplf.SlackSpec("s", np.array([bad + 0j])))
    with pytest.raises(mplf.InputFormatError, match="line 0: series block"):
        mplf.assemble_network(buses, [mplf.LineSpec("s", "b", "a", np.array([[bad]]))], slack)
    shunt = mplf.LineSpec("s", "b", "a", line.y_series, y_shunt_to=np.array([[1j * bad]]))
    with pytest.raises(mplf.InputFormatError, match="line 0: y_shunt_to block"):
        mplf.assemble_network(buses, [shunt], slack)


def test_parallel_lines_summing_past_float_range_located():
    buses = [mplf.BusSpec("s", "a"), mplf.BusSpec("b", "a")]
    line = mplf.LineSpec("s", "b", "a", np.array([[1e308 - 1e308j]]))
    with pytest.raises(
        mplf.InputFormatError,
        match=re.escape("bus 's' phase 'a': admittance entries of line(s) 0, 1 sum past"),
    ):
        mplf.assemble_network(buses, [line, line], mplf.SlackSpec("s", np.array([1.0 + 0j])))


def network_document(buses, lines, slack):
    """The network document of bus, line and slack specs."""

    def block(blk):
        if blk is None:
            return None
        entries = np.asarray(blk, dtype=complex).ravel().tolist()
        return [{"re": z.real, "im": z.imag} for z in entries]

    doc_lines = []
    for line in lines:
        entry = {"from": line.from_bus, "to": line.to_bus, "phases": line.phases,
                 "series_admittance": block(line.y_series)}
        for key, blk in (("shunt_from", line.y_shunt_from), ("shunt_to", line.y_shunt_to)):
            if blk is not None:
                entry[key] = block(blk)
        doc_lines.append(entry)
    return {
        "buses": [{"id": b.id, "phases": b.phases, "delta_connections": list(b.delta_connections)}
                  for b in buses],
        "lines": doc_lines,
        "slack": {"id": slack.id, "voltages": block(slack.voltages)},
    }


def assert_same_model(a, b):
    """Two models with the same blocks, bit for bit, and the same index maps."""
    for name in ("y00", "y0l", "yl0", "v0"):
        assert_bitwise(getattr(a, name), getattr(b, name))
    assert_same_csc(a.yll, b.yll)
    assert a.index == b.index
    assert a.index.phase_index == b.index.phase_index
    assert a.index.delta_index == b.index.delta_index
    for name in ("first", "second"):
        assert np.array_equal(getattr(a.connection, name), getattr(b.connection, name))
    assert (a.slack_id, a.slack_phases) == (b.slack_id, b.slack_phases)


def test_document_path_equals_spec_path_bitwise(rng):
    # Random trees with one-, two- and three-phase lines, shunts and parallel
    # lines; the specs also go in with list-valued blocks.
    phase_counts = set()
    for _ in range(25):
        buses, lines, slack = random_network_specs(rng, max_buses=12, shunt_prob=0.5)
        lines = lines + parallel_lines(rng, lines)
        phase_counts.update(len(line.phases) for line in lines)
        model = mplf.assemble_network(buses, lines, slack)
        assert_same_model(mplf.network_from_json(network_document(buses, lines, slack)), model)
        listed = [
            dataclasses.replace(
                line, **{name: None if blk is None else np.asarray(blk).tolist()
                         for name, blk in (("y_series", line.y_series),
                                           ("y_shunt_from", line.y_shunt_from),
                                           ("y_shunt_to", line.y_shunt_to))}
            )
            for line in lines
        ]
        assert_same_model(mplf.assemble_network(buses, listed, slack), model)
    assert phase_counts == {1, 2, 3}


def bundled_document(name):
    return json.loads(bundled_path(f"{name}_network.json").read_text())


def nan_entry(line, key="series_admittance", at=0):
    line[key] = [dict(e) for e in line[key]]
    line[key][at] = {"re": np.nan, "im": 0.0}


@pytest.mark.parametrize(
    "mutate, error, message",
    [
        (
            lambda doc: (nan_entry(doc["lines"][1]), doc["lines"][2].update(to="nowhere")),
            mplf.InputFormatError,
            "lines[1].series_admittance[0]: value must be finite",
        ),
        (
            # The whole document is read before the model is assembled.
            lambda doc: (doc["lines"][2].update(to="nowhere"), nan_entry(doc["lines"][3])),
            mplf.InputFormatError,
            "lines[3].series_admittance[0]: value must be finite",
        ),
        (
            lambda doc: (doc["buses"][2].pop("phases"), nan_entry(doc["lines"][0])),
            mplf.InputFormatError,
            "buses[2]: expected id and phases",
        ),
        (
            lambda doc: (doc["buses"].append(dict(doc["buses"][1])),
                         doc["lines"][0].update(to="nowhere")),
            mplf.ModelError,
            "duplicate bus id '702'",
        ),
        (
            lambda doc: (doc["lines"][0]["series_admittance"].pop(),
                         doc["lines"][0].update(shunt_from=[{"re": 0.0, "im": np.inf}] * 9)),
            mplf.InputFormatError,
            "lines[0].series_admittance: expected 9 complex entries for 3 phases",
        ),
        (
            lambda doc: (doc["lines"][0]["series_admittance"].pop(),
                         doc["lines"][1].update(shunt_from=[{"re": 0.0, "im": np.inf}] * 9)),
            mplf.InputFormatError,
            "lines[0].series_admittance: expected 9 complex entries for 3 phases",
        ),
        (
            lambda doc: (doc["lines"][1].update(shunt_to=[{"re": np.nan, "im": 0.0}] * 9),
                         doc["lines"][2]["series_admittance"].pop()),
            mplf.InputFormatError,
            "lines[1].shunt_to[0]: value must be finite",
        ),
    ],
    ids=["nonfinite-then-unknown-bus", "unknown-bus-then-nonfinite", "bad-bus-then-bad-line",
         "duplicate-bus-then-unknown-bus", "block-size-then-shunt", "block-size-then-later-shunt",
         "shunt-then-later-block-size"],
)
def test_document_reports_first_fault(mutate, error, message):
    doc = bundled_document("ieee37")
    assert doc["buses"][1]["id"] == "702" and doc["lines"][0]["phases"] == "abc"
    mutate(doc)
    with pytest.raises(error) as info:
        mplf.network_from_json(doc)
    assert str(info.value) == message


def two_line_specs():
    buses = [mplf.BusSpec("s", "ab"), mplf.BusSpec("b", "ab"), mplf.BusSpec("c", "ab")]
    lines = [mplf.LineSpec("s", "b", "ab", np.eye(2, dtype=complex)),
             mplf.LineSpec("b", "c", "ab", np.eye(2, dtype=complex))]
    return buses, lines, mplf.SlackSpec("s", BALANCED_V0[:2])


@pytest.mark.parametrize(
    "changes, error, message",
    [
        (
            [{"y_series": np.array([[1.0, np.nan], [np.nan, 1.0]])}, {"to_bus": "nowhere"}],
            mplf.InputFormatError,
            "line 0: series block must be finite",
        ),
        (
            [{"to_bus": "nowhere"}, {"y_series": np.full((2, 2), np.inf)}],
            mplf.ModelError,
            "line 0: unknown bus 'nowhere'",
        ),
        (
            [{"y_series": np.eye(3), "y_shunt_from": np.full((2, 2), np.nan)}, {}],
            mplf.ModelError,
            "line 0: series block must be 2x2, got (3, 3)",
        ),
        (
            [{"y_series": np.full((2, 2), np.nan), "y_shunt_from": np.eye(3)}, {}],
            mplf.InputFormatError,
            "line 0: series block must be finite",
        ),
        (
            [{"y_shunt_to": np.full((2, 2), np.nan)}, {"y_series": np.eye(3)}],
            mplf.InputFormatError,
            "line 0: y_shunt_to block must be finite",
        ),
        (
            [{"y_shunt_to": np.full((2, 2), np.nan)}, {"phases": "abc"}],
            mplf.InputFormatError,
            "line 0: y_shunt_to block must be finite",
        ),
        (
            [{"y_shunt_from": np.full((2, 2), np.inf), "y_shunt_to": np.full((2, 2), np.nan)},
             {"y_series": np.full((2, 2), np.nan)}],
            mplf.InputFormatError,
            "line 0: y_shunt_from block must be finite",
        ),
        (
            [{}, {"y_series": np.full((2, 2), np.nan), "y_shunt_from": np.full((2, 2), np.nan)}],
            mplf.InputFormatError,
            "line 1: series block must be finite",
        ),
    ],
    ids=["nonfinite-then-unknown-bus", "unknown-bus-then-nonfinite", "block-size-then-shunt",
         "series-then-shunt-size", "shunt-then-later-block-size", "shunt-then-missing-phase",
         "shunt-from-then-shunt-to", "series-then-shunt-same-line"],
)
def test_assembly_reports_first_fault(changes, error, message):
    buses, lines, slack = two_line_specs()
    lines = [dataclasses.replace(line, **change) for line, change in zip(lines, changes)]
    with pytest.raises(error) as info:
        mplf.assemble_network(buses, lines, slack)
    assert str(info.value) == message
