import json

import numpy as np
import pytest

from graphon_forge.dumps import ESTIMATE_VERSION
from graphon_forge.estimator import (
    EstimateParseError,
    GraphonEstimate,
    load_estimate,
    sample_nodes,
    save_estimate,
)
from graphon_forge.moment_poly import NodeFit
from graphon_forge.rng import substream
from tests.oracles import assemble


class TestAssembleAndEvaluate:
    def test_rank_one_constant(self):
        est = assemble(np.full((10, 1), 0.7), np.array([4.0]))
        val = est.evaluate(0.3, 0.9)
        assert val == pytest.approx(4.0 * 0.49, rel=1e-15)

    def test_symmetry_exact(self):
        rng = np.random.default_rng(0)
        est = assemble(rng.standard_normal((50, 2)), np.array([4.0, 3.0]))
        xs, ys = rng.random(1000), rng.random(1000)
        np.testing.assert_array_equal(est.evaluate(xs, ys), est.evaluate(ys, xs))

    def test_matches_direct_formula(self):
        rng = np.random.default_rng(1)
        Z = rng.standard_normal((30, 3))
        lam = np.array([4.0, -2.0, 1.0])
        est = assemble(Z, lam)
        for _ in range(50):
            x, y = rng.random(), rng.random()
            i = min(max(int(np.ceil(x * 30)), 1), 30) - 1
            j = min(max(int(np.ceil(y * 30)), 1), 30) - 1
            want = float(np.sum(lam * Z[i] * Z[j]))
            assert est.evaluate(x, y) == pytest.approx(want, rel=1e-14, abs=1e-15)

    def test_x_zero_maps_to_first_piece(self):
        Z = np.arange(8.0).reshape(4, 2)
        est = assemble(Z, np.array([1.0, 1.0]))
        assert est.piece_of(0.0) == 0
        assert est.piece_of(1.0) == 3

    def test_needs_a_row(self):
        with pytest.raises(ValueError, match="atoms"):
            GraphonEstimate(np.array([1.0]), np.empty((0, 1)), np.zeros(1, dtype=int), 1.0)
        with pytest.raises(ValueError, match="piece"):
            GraphonEstimate(np.array([1.0]), np.ones((1, 1)), np.empty(0, dtype=int), 1.0)
        with pytest.raises(ValueError):
            assemble(np.empty((0, 1)), np.array([1.0]))


class TestAtoms:
    def test_assemble_keeps_rows_bit_exact(self):
        # -0.0 and 0.0 compare equal but are different atoms
        Z = np.array([[0.0, 1.0], [-0.0, 1.0], [0.0, 1.0], [2.5, -3.0], [-0.0, 1.0], [2.5, -3.0]])
        est = assemble(Z, np.array([1.0, 2.0]))
        assert est.atoms.shape == (3, 2) and est.m == 6
        np.testing.assert_array_equal(est.Z.view(np.int64), Z.view(np.int64))
        np.testing.assert_array_equal(est.counts, np.bincount(est.index))
        assert sorted(est.counts) == [2, 2, 2]

    def test_reads_atoms_through_the_index(self):
        rng = np.random.default_rng(4)
        atoms = rng.standard_normal((5, 3))
        index = rng.integers(0, 4, 37)  # atom 4 is never drawn
        est = GraphonEstimate(np.array([3.0, -1.0, 0.5]), atoms, index, 2.0)
        np.testing.assert_array_equal(est.Z, atoms[index])
        assert est.counts[4] == 0 and est.counts.sum() == 37
        from_rows = assemble(atoms[index], est.lambdas)
        x, y = rng.random(500), rng.random(500)
        np.testing.assert_array_equal(est.evaluate(x, y), from_rows.evaluate(x, y))
        np.testing.assert_array_equal(est.kernel_grid(64), from_rows.kernel_grid(64))

    @pytest.mark.parametrize("index", [[0, 2], [-1, 0], [0.0, 1.0]])
    def test_index_outside_the_atoms_rejected(self, index):
        with pytest.raises(ValueError, match="index"):
            GraphonEstimate(np.array([1.0]), np.ones((2, 1)), np.array(index), 1.0)

    def test_sample_nodes_draws_on_the_feature_substream(self):
        fit = NodeFit(K=2, N=4, kappa=1.0, delta=0.1, resolution=8,
                      nodes=np.arange(8.0).reshape(4, 2), weights=np.array([0.1, 0.2, 0.3, 0.4]),
                      residual=0.0, iterations=4)
        index = sample_nodes(fit, 1000, 7)
        want = substream(7, "feature-sampling").choice(4, size=1000, p=fit.weights)
        np.testing.assert_array_equal(index, want)


class TestSerialization:
    def test_round_trip_bit_exact(self, tmp_path):
        rng = np.random.default_rng(2)
        est = assemble(rng.standard_normal((40, 2)), np.array([3.7, -1.2]), kappa=2.0,
                       provenance={"seed": 7})
        p = tmp_path / "est.json"
        save_estimate(est, p)
        back = load_estimate(p)
        np.testing.assert_array_equal(back.Z, est.Z)
        np.testing.assert_array_equal(back.lambdas, est.lambdas)
        assert back.m == est.m and back.kappa == est.kappa
        assert back.provenance["seed"] == 7

    def test_round_trip_keeps_atoms_and_index(self, tmp_path):
        atoms = np.array([[0.0, 1.0], [-0.0, 1.0], [5e-324, -1e300], [0.1, 1 / 3], [7.0, 7.0]])
        index = np.array([3, 1, 0, 0, 2, 1, 3, 3])  # atom 4 is never drawn
        est = GraphonEstimate(np.array([2.0, -0.5]), atoms, index, 0.0, {"seed": 1})
        p = tmp_path / "est.json"
        save_estimate(est, p)
        back = load_estimate(p)
        np.testing.assert_array_equal(back.atoms.view(np.int64), atoms.view(np.int64))
        np.testing.assert_array_equal(back.index, index)
        np.testing.assert_array_equal(back.Z.view(np.int64), est.Z.view(np.int64))
        assert back.kappa == 0.0

    @pytest.mark.parametrize("kappa", [2.0, np.inf])
    def test_bytes_match_streaming_json_dump(self, tmp_path, kappa):
        rng = np.random.default_rng(3)
        atoms = rng.standard_normal((6, 3)) * 1e-7
        est = GraphonEstimate(np.array([5.5, -0.25, 1e-300]), atoms, rng.integers(0, 6, 60),
                              kappa, {"seed": 2, "config_hash": "ab" * 32, "h": 8.0})
        doc = {
            "version": ESTIMATE_VERSION,
            "lambdas": est.lambdas.tolist(),
            "m": est.m,
            "kappa": est.kappa,
            "atoms": est.atoms.ravel().tolist(),
            "index": est.index.tolist(),
            "provenance": est.provenance,
        }
        ref = tmp_path / "ref.json"
        with open(ref, "w") as fh:
            json.dump(doc, fh)
        got = tmp_path / "got.json"
        save_estimate(est, got)
        assert got.read_bytes() == ref.read_bytes()

    def test_m_mismatch_rejected(self, tmp_path):
        p = tmp_path / "bad.json"
        p.write_text('{"version": 2, "lambdas": [1.0], "m": 3, "kappa": 1.0, "atoms": [0.1, 0.2], "index": [0, 1]}')
        with pytest.raises(EstimateParseError, match="index"):
            load_estimate(p)

    GOOD = {"version": 2, "lambdas": [1.0, 2.0], "m": 3, "kappa": 1.0,
            "atoms": [0.1, 0.2, 0.3, 0.4], "index": [0, 1, 1], "provenance": {}}

    @pytest.mark.parametrize("field, value", [
        ("lambdas", None), ("kappa", None), ("m", None), ("atoms", None), ("index", None),
        ("lambdas", "1.0"), ("lambdas", [1.0, "2.0"]), ("lambdas", [[1.0, 2.0]]), ("lambdas", []),
        ("m", 3.0), ("m", True), ("kappa", "inf"), ("kappa", [1.0]),
        ("atoms", [0.1, 0.2, 0.3]), ("atoms", [0.1, 0.2, None, 0.4]), ("atoms", []),
        ("index", [0, 1.5, 1]), ("index", [0, 1, 2]), ("index", [0, -1, 1]), ("index", [True, False, True]),
        ("provenance", ["seed"]), ("version", 1),
        ("index", [0, True, 1]), ("lambdas", [4.0, True]), ("atoms", [0.1, 0.2, 0.3, False]), ("kappa", True),
        pytest.param("kappa", np.inf, id="kappa-Infinity"), ("kappa", -1.0), ("lambdas", [1.0, np.nan]), ("atoms", [0.1, np.inf, 0.3, 0.4]),
        ("m", 0), ("version", None), ("provenance", None),
    ])
    def test_malformed_field_names_file_and_field(self, tmp_path, field, value):
        doc = dict(self.GOOD)
        if value is None:
            del doc[field]
        else:
            doc[field] = value
        p = tmp_path / "bad.json"
        p.write_text(json.dumps(doc))
        with pytest.raises(EstimateParseError) as err:
            load_estimate(p)
        assert str(p) in str(err.value) and field in str(err.value)

    def test_well_formed_document_loads(self, tmp_path):
        p = tmp_path / "good.json"
        p.write_text(json.dumps(self.GOOD))
        est = load_estimate(p)
        np.testing.assert_array_equal(est.Z, [[0.1, 0.2], [0.3, 0.4], [0.3, 0.4]])

    def test_top_level_list_rejected(self, tmp_path):
        p = tmp_path / "bad.json"
        p.write_text("[1, 2]")
        with pytest.raises(EstimateParseError, match="not an object"):
            load_estimate(p)

    def test_version_one_refused_as_unsupported(self, tmp_path):
        p = tmp_path / "old.json"
        p.write_text('{"version": 1, "lambdas": [1.0], "m": 2, "kappa": 1.0, "Z": [0.1, 0.2]}')
        with pytest.raises(EstimateParseError, match="unsupported estimate file version 1"):
            load_estimate(p)

    def test_unknown_version_rejected(self, tmp_path):
        p = tmp_path / "bad.json"
        p.write_text('{"version": 99, "lambdas": [1.0], "m": 1, "kappa": 1.0, "Z": [0.1]}')
        with pytest.raises(EstimateParseError):
            load_estimate(p)

    def test_malformed_json_reports_location(self, tmp_path):
        p = tmp_path / "bad.json"
        p.write_text('{"version": 1, ')
        with pytest.raises(EstimateParseError, match="line"):
            load_estimate(p)

