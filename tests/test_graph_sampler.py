import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from graphon_forge.graph_sampler import (
    SparseGraph,
    degree_stats,
    load_edge_list,
    load_latents,
    sample_graph,
    save_edge_list,
    save_latents,
    split_edges,
)
from graphon_forge.graphon_model import StepGraphon


def constant_graphon(c):
    return StepGraphon(np.array([1.0]), np.array([[float(c)]]))


class TestSampleGraph:
    def test_zero_graphon_empty(self):
        gr, _ = sample_graph(constant_graphon(0.0), 500, seed=0)
        assert gr.m == 0

    def test_probability_clamp_forces_edge(self):
        gr, _ = sample_graph(constant_graphon(4.0), 2, seed=0)
        assert gr.m == 1  # p = min(4/2, 1) = 1

    def test_mean_degree_concentrates(self):
        for seed in (0, 1, 2):
            gr, _ = sample_graph(constant_graphon(4.0), 100_000, seed=seed)
            assert abs(2 * gr.m / gr.n - 4.0) <= 0.1

    def test_latents_in_unit_interval(self, assortative_2block):
        _, lat = sample_graph(assortative_2block, 1000, seed=5)
        assert lat.n == 1000
        assert np.all((lat.latents >= 0) & (lat.latents <= 1))

    def test_deterministic_given_seed(self, assortative_2block):
        a, la = sample_graph(assortative_2block, 3000, seed=7)
        b, lb = sample_graph(assortative_2block, 3000, seed=7)
        np.testing.assert_array_equal(a.edges, b.edges)
        np.testing.assert_array_equal(la.latents, lb.latents)
        c, _ = sample_graph(assortative_2block, 3000, seed=8)
        assert c.m != a.m or not np.array_equal(c.edges, a.edges)

    def test_block_pair_edge_rate(self, assortative_2block):
        n = 30_000
        gr, lat = sample_graph(assortative_2block, n, seed=11)
        blocks = (lat.latents >= 0.5).astype(int)
        n0 = int(np.sum(blocks == 0))
        cross = int(np.sum(blocks[gr.edges[:, 0]] != blocks[gr.edges[:, 1]]))
        pairs = n0 * (n - n0)
        p = 1.0 / n
        sd = np.sqrt(pairs * p * (1 - p))
        assert abs(cross - pairs * p) <= 3 * sd

    def test_within_block_edge_rate(self, assortative_2block):
        n = 30_000
        gr, lat = sample_graph(assortative_2block, n, seed=12)
        blocks = (lat.latents >= 0.5).astype(int)
        n0 = int(np.sum(blocks == 0))
        within0 = int(np.sum((blocks[gr.edges[:, 0]] == 0) & (blocks[gr.edges[:, 1]] == 0)))
        pairs = n0 * (n0 - 1) // 2
        p = 7.0 / n
        sd = np.sqrt(pairs * p * (1 - p))
        assert abs(within0 - pairs * p) <= 3 * sd

    def test_no_self_loops_or_duplicates(self, assortative_2block):
        gr, _ = sample_graph(assortative_2block, 5000, seed=13)
        assert np.all(gr.edges[:, 0] < gr.edges[:, 1])
        assert np.unique(gr.edges, axis=0).shape[0] == gr.m


class TestSplitEdges:
    def test_partition_identity(self, assortative_2block):
        gr, _ = sample_graph(assortative_2block, 5000, seed=1)
        g1, g2 = split_edges(gr, 0.3, seed=1)
        assert g1.m + g2.m == gr.m
        merged = np.concatenate([g1.edges, g2.edges])
        merged = merged[np.lexsort((merged[:, 1], merged[:, 0]))]
        np.testing.assert_array_equal(merged, gr.edges)

    def test_tiny_epsilon_leaves_g2_empty(self, assortative_2block):
        gr, _ = sample_graph(assortative_2block, 5000, seed=2)
        assert gr.m < 10**4 * 2
        _, g2 = split_edges(gr, 1e-9, seed=2)
        assert g2.m == 0

    def test_split_fraction_concentrates(self):
        gr, _ = sample_graph(constant_graphon(4.0), 50_000, seed=3)
        for seed in (0, 1, 2):
            _, g2 = split_edges(gr, 0.1, seed=seed)
            assert 0.094 <= g2.m / gr.m <= 0.106

    def test_epsilon_bounds(self, assortative_2block):
        gr, _ = sample_graph(assortative_2block, 500, seed=0)
        for bad in (0.0, 1.0, -0.2, 1.5):
            with pytest.raises(ValueError):
                split_edges(gr, bad, seed=0)

    def test_deterministic(self, assortative_2block):
        gr, _ = sample_graph(assortative_2block, 5000, seed=4)
        a1, a2 = split_edges(gr, 0.4, seed=9)
        b1, b2 = split_edges(gr, 0.4, seed=9)
        np.testing.assert_array_equal(a1.edges, b1.edges)
        np.testing.assert_array_equal(a2.edges, b2.edges)


@settings(max_examples=25, deadline=None)
@given(st.integers(min_value=0, max_value=2**31), st.floats(min_value=0.05, max_value=0.95))
def test_property_split_partitions_exactly(seed, eps):
    rng = np.random.default_rng(seed)
    n = int(rng.integers(10, 60))
    iu, ju = np.triu_indices(n, k=1)
    keep = rng.random(iu.size) < 0.2
    gr = SparseGraph(n, np.stack([iu[keep], ju[keep]], axis=1))
    g1, g2 = split_edges(gr, eps, seed=seed)
    assert g1.m + g2.m == gr.m
    seen = {tuple(e) for e in g1.edges} | {tuple(e) for e in g2.edges}
    assert len(seen) == gr.m


class TestDegreeStats:
    def test_empty(self):
        s = degree_stats(SparseGraph(4, np.empty((0, 2), dtype=np.int64)))
        assert s.mean == 0.0 and s.max == 0

    def test_triangle(self):
        s = degree_stats(SparseGraph(3, np.array([[0, 1], [0, 2], [1, 2]])))
        assert s.mean == pytest.approx(2.0) and s.max == 2

    def test_star(self):
        s = degree_stats(SparseGraph(5, np.array([[0, 1], [0, 2], [0, 3], [0, 4]])))
        assert s.mean == pytest.approx(8 / 5) and s.max == 4
        assert s.histogram[1] == 4 and s.histogram[4] == 1


def test_edge_list_round_trip(tmp_path, assortative_2block):
    gr, lat = sample_graph(assortative_2block, 800, seed=21)
    p = tmp_path / "g.edges"
    save_edge_list(gr, p)
    loaded = load_edge_list(p)
    assert loaded.n == gr.n
    np.testing.assert_array_equal(loaded.edges, gr.edges)
    first = p.read_text().splitlines()[0]
    assert first == f"{gr.n} {gr.m}"

    lp = tmp_path / "lat.txt"
    save_latents(lat, lp)
    np.testing.assert_allclose(load_latents(lp).latents, lat.latents, rtol=0, atol=0)


@pytest.mark.parametrize("c", [7.0, 0.0])
def test_edge_list_bytes_match_per_line_writer(tmp_path, c):
    # reference: the per-edge writer, one write call per line; c = 0 gives a header-only file
    gr, _ = sample_graph(constant_graphon(c), 800, seed=3)
    assert (gr.m == 0) == (c == 0.0)
    ref = tmp_path / "ref.edges"
    with open(ref, "w") as fh:
        fh.write(f"{gr.n} {gr.m}\n")
        for u, v in gr.edges:
            fh.write(f"{u} {v}\n")
    got = tmp_path / "got.edges"
    save_edge_list(gr, got)
    assert got.read_bytes() == ref.read_bytes()
