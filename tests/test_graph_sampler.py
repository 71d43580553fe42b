import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from graphon_forge import graph_sampler
from graphon_forge.graph_sampler import (
    LatentAssignment,
    SparseGraph,
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


def distinct_pairs_by_rows(rng, count, draw_a, draw_b, same_pool: bool):
    """Reference: the same redraw loop, deduplicating (lo, hi) rows with np.unique(axis=0)."""
    got = np.empty((0, 2), dtype=np.int64)
    need = count
    while need > 0:
        k = int(need * 1.2) + 8
        i, j = draw_a(rng, k), draw_b(rng, k)
        if same_pool:
            keep = i != j
            i, j = i[keep], j[keep]
            lo, hi = np.minimum(i, j), np.maximum(i, j)
        else:
            lo, hi = i, j
        cand = np.concatenate([got, np.stack([lo, hi], axis=1)])
        got = np.unique(cand, axis=0)
        need = count - got.shape[0]
    if got.shape[0] > count:
        # drop a uniformly chosen surplus so the kept set stays uniform
        keep = rng.permutation(got.shape[0])[:count]
        got = got[np.sort(keep)]
    return got


def reference_pairs(rng, n, count, ma, mb=None):
    """The reference behind `_distinct_pairs`' signature: the same draws, as the keys min * n + max."""
    pool_b = ma if mb is None else mb
    pairs = distinct_pairs_by_rows(
        rng,
        count,
        lambda r, k: ma[r.integers(0, ma.size, size=k)],
        lambda r, k: pool_b[r.integers(0, pool_b.size, size=k)],
        same_pool=mb is None,
    )
    return pairs.min(axis=1) * n + pairs.max(axis=1)


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


@pytest.mark.parametrize(
    "values, n",
    [
        ([[0.0, 5.0], [5.0, 0.0]], 4000),  # cross-block pairs only
        ([[7.0, 1.0], [1.0, 7.0]], 4000),  # within- and cross-block
        ([[60.0, 1.0], [1.0, 60.0]], 30),  # within-block pairs from the dense pool
        ([[0.0, 3.0], [3.0, 5.0]], 1000),  # a zero block
    ],
)
def test_key_dedup_draws_the_same_graph_as_row_dedup(values, n, monkeypatch):
    g = StepGraphon(np.array([0.4, 0.6]), np.array(values))
    got = []
    for seed in range(3):
        gr, _ = sample_graph(g, n, seed)
        got.append((gr, *split_edges(gr, 0.3, seed)))
    monkeypatch.setattr(graph_sampler, "_distinct_pairs", reference_pairs)
    for seed, graphs in enumerate(got):
        ref, _ = sample_graph(g, n, seed)
        for a, b in zip(graphs, (ref, *split_edges(ref, 0.3, seed))):
            np.testing.assert_array_equal(a.edges, b.edges)
            assert a.edges.dtype == b.edges.dtype == np.int64


class TestSparseGraph:
    def test_unsorted_input_is_sorted(self):
        gr = SparseGraph(6, np.array([[2, 5], [0, 4], [2, 3], [0, 1], [1, 5]]))
        np.testing.assert_array_equal(gr.edges, [[0, 1], [0, 4], [1, 5], [2, 3], [2, 5]])

    def test_sorted_input_comes_back_unchanged(self):
        edges = np.array([[0, 1], [0, 4], [1, 5], [2, 3], [2, 5]])
        gr = SparseGraph(6, edges)
        np.testing.assert_array_equal(gr.edges, edges)
        assert gr.edges.dtype == np.int64

    @pytest.mark.parametrize(
        "edges", [[[0, 1], [0, 1], [1, 2]], [[1, 2], [0, 1], [1, 2]], [[2, 3], [0, 3], [2, 3]]]
    )
    def test_duplicates_raise_sorted_or_not(self, edges):
        with pytest.raises(ValueError, match="duplicate"):
            SparseGraph(4, np.array(edges))

    @pytest.mark.parametrize("n, edges", [(4, [[1, 1]]), (4, [[2, 1]]), (4, [[-1, 2]]), (4, [[0, 4]]),
                                          (2**32, [[0, 1]])])
    def test_bad_rows_raise(self, n, edges):
        with pytest.raises(ValueError):
            SparseGraph(n, np.array(edges))

    def test_degrees_count_both_endpoints(self, assortative_2block):
        gr, _ = sample_graph(assortative_2block, 2000, seed=4)
        want = np.zeros(gr.n, dtype=np.int64)
        np.add.at(want, gr.edges[:, 0], 1)
        np.add.at(want, gr.edges[:, 1], 1)
        np.testing.assert_array_equal(gr.degrees, want)
        assert gr.degrees.dtype == np.int64
        assert SparseGraph(3, np.empty((0, 2))).degrees.tolist() == [0, 0, 0]


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


def test_edge_list_round_trip(tmp_path, assortative_2block):
    gr, lat = sample_graph(assortative_2block, 800, seed=21)
    p = tmp_path / "g.npy"
    save_edge_list(gr, p)
    loaded = load_edge_list(p, gr.n)
    assert loaded.n == gr.n
    np.testing.assert_array_equal(loaded.edges, gr.edges)
    assert np.load(p).dtype == np.dtype("<i4")

    lp = tmp_path / "lat.npy"
    save_latents(lat, lp)
    assert load_latents(lp).latents.tobytes() == lat.latents.tobytes()


def test_edgeless_round_trip_writes_exactly_the_path(tmp_path):
    gr, _ = sample_graph(constant_graphon(0.0), 800, seed=21)
    assert gr.m == 0
    p = tmp_path / "g.edges"  # np.save would append ".npy" to a name it is given
    save_edge_list(gr, p)
    assert np.load(p).shape == (0, 2)
    loaded = load_edge_list(p, gr.n)
    assert loaded.n == 800 and loaded.edges.shape == (0, 2)
    assert sorted(q.name for q in tmp_path.iterdir()) == ["g.edges"]


@pytest.mark.parametrize("c", [7.0, 0.0])
def test_edge_list_bytes_match_np_save(tmp_path, c):
    # reference: np.save of the int32 rows, to a name it does not extend
    gr, _ = sample_graph(constant_graphon(c), 800, seed=3)
    assert (gr.m == 0) == (c == 0.0)
    np.save(tmp_path / "ref.npy", gr.edges.astype("<i4"), allow_pickle=False)
    save_edge_list(gr, tmp_path / "got.edges")
    assert (tmp_path / "got.edges").read_bytes() == (tmp_path / "ref.npy").read_bytes()


def test_latents_bytes_match_np_save(tmp_path):
    lat = LatentAssignment(
        np.concatenate([np.random.default_rng(5).random(300), [0.0, 1.0, 5e-324, 0.1, 1 / 3, -0.0]])
    )
    np.save(tmp_path / "ref.npy", lat.latents, allow_pickle=False)
    save_latents(lat, tmp_path / "got.npy")
    assert (tmp_path / "got.npy").read_bytes() == (tmp_path / "ref.npy").read_bytes()
    assert load_latents(tmp_path / "got.npy").latents.tobytes() == lat.latents.tobytes()


def test_edge_dump_refuses_n_past_int32_before_writing(tmp_path):
    p = tmp_path / "g.npy"
    with pytest.raises(ValueError, match="does not fit"):
        save_edge_list(SparseGraph(2**31, np.empty((0, 2), dtype=np.int64)), p)
    assert not p.exists()
    save_edge_list(SparseGraph(2**31 - 1, np.empty((0, 2), dtype=np.int64)), p)
    assert load_edge_list(p, 2**31 - 1).m == 0


@pytest.mark.parametrize("bad", [np.nan, -0.1, 1.0 + 1e-12, np.inf])
def test_latents_outside_unit_interval_refused(bad):
    with pytest.raises(ValueError, match=r"\[0,1\]"):
        LatentAssignment(np.array([0.2, bad]))
