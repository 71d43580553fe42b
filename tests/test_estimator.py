import json

import numpy as np
import pytest

from graphon_forge.estimator import (
    FORMAT_VERSION,
    EstimateParseError,
    GraphonEstimate,
    assemble,
    load_estimate,
    save_estimate,
)


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
        with pytest.raises(ValueError):
            GraphonEstimate(np.array([1.0]), np.empty((0, 1)), 1.0)


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

    @pytest.mark.parametrize("kappa", [2.0, np.inf])
    def test_bytes_match_streaming_json_dump(self, tmp_path, kappa):
        rng = np.random.default_rng(3)
        est = assemble(rng.standard_normal((60, 3)) * 1e-7, np.array([5.5, -0.25, 1e-300]),
                       kappa=kappa, provenance={"seed": 2, "config_hash": "ab" * 32, "h": 8.0})
        doc = {
            "version": FORMAT_VERSION,
            "lambdas": est.lambdas.tolist(),
            "m": est.m,
            "kappa": est.kappa,
            "Z": est.Z.ravel().tolist(),
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
        p.write_text('{"version": 1, "lambdas": [1.0], "m": 3, "kappa": 1.0, "Z": [0.1, 0.2]}')
        with pytest.raises(EstimateParseError):
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

