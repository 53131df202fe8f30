import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fpverify.errors import NearTieWarning, SingletonGraph
from fpverify.graph import (
    GraphIndex,
    MinutiaeGraph,
    build_nn_graph,
    compute_index,
    dist_matrix,
    index_string,
    is_isomorphic,
    parse_index_string,
)


def graph_from_edges(n, edges):
    return MinutiaeGraph(
        vertices=tuple(range(n)),
        edges=frozenset((min(a, b), max(a, b)) for a, b in edges),
    )


def relabel(g, perm):
    return MinutiaeGraph(
        vertices=tuple(range(len(g.vertices))),
        edges=frozenset(
            (min(perm[a], perm[b]), max(perm[a], perm[b])) for a, b in g.edges
        ),
    )


PATH3 = graph_from_edges(3, [(0, 1), (1, 2)])
TRIANGLE = graph_from_edges(3, [(0, 1), (1, 2), (0, 2)])
C6 = graph_from_edges(6, [(i, (i + 1) % 6) for i in range(6)])
TWO_TRIANGLES = graph_from_edges(6, [(0, 1), (1, 2), (0, 2), (3, 4), (4, 5), (3, 5)])
DEGREE_SEQUENCES = st.lists(st.integers(0, 12), max_size=12).map(lambda ds: tuple(sorted(ds, reverse=True)))


class TestDistMatrix:
    def test_single_centroid(self):
        dm = dist_matrix([(5.0, 5.0)])
        assert dm.shape == (1, 1) and dm[0, 0] == 0.0

    def test_three_four_five(self):
        dm = dist_matrix([(0.0, 0.0), (3.0, 4.0)])
        assert dm[0, 1] == 5.0 and dm[1, 0] == 5.0

    def test_exactly_symmetric_zero_diagonal(self):
        rng = np.random.default_rng(2)
        pts = rng.uniform(-100, 100, size=(12, 2))
        dm = dist_matrix(pts)
        assert np.array_equal(dm, dm.T)
        assert np.all(np.diag(dm) == 0.0)


class TestBuildNnGraph:
    def test_collinear_path(self):
        dm = dist_matrix([(0.0, 0.0), (1.0, 0.0), (3.0, 0.0)])
        g = build_nn_graph(dm)
        assert g.edges == {(0, 1), (1, 2)}

    def test_two_centroids_single_edge(self):
        g = build_nn_graph(dist_matrix([(0.0, 0.0), (7.0, 0.0)]))
        assert g.edges == {(0, 1)}
        assert compute_index(g).degree_sequence == (1, 1)

    def test_unit_square_ties_pick_smallest_id(self):
        # Hand enumeration: 0=(0,0) ties between 1=(1,0) and 2=(0,1) -> 1;
        # 1 ties between 0 and 3 -> 0; 2 ties between 0 and 3 -> 0;
        # 3 ties between 1 and 2 -> 1.
        with pytest.warns(NearTieWarning):
            g = build_nn_graph(dist_matrix([(0.0, 0.0), (1.0, 0.0), (0.0, 1.0), (1.0, 1.0)]))
        assert g.edges == {(0, 1), (0, 2), (1, 3)}

    def test_singleton_rejected(self):
        with pytest.raises(SingletonGraph):
            build_nn_graph(dist_matrix([(0.0, 0.0)]))

    def test_edge_count_bounds_and_min_degree(self):
        rng = np.random.default_rng(4)
        for _ in range(30):
            k = int(rng.integers(2, 12))
            g = build_nn_graph(dist_matrix(rng.uniform(0, 100, size=(k, 2))))
            assert -(-k // 2) <= len(g.edges) <= k
            assert compute_index(g).degree_sequence[-1] >= 1


class TestIndex:
    def test_path3(self):
        idx = compute_index(PATH3)
        assert idx.vertex_count == 3
        assert idx.degree_sequence == (2, 1, 1)
        assert idx.max_degree == 2
        assert idx.degree_multiplicity == {1: 2, 2: 1}
        assert index_string(idx) == "V3|D2,1,1|H2|M1:2,2:1"

    def test_triangle(self):
        idx = compute_index(TRIANGLE)
        assert idx.degree_sequence == (2, 2, 2)
        assert idx.degree_multiplicity == {2: 3}
        assert index_string(idx) == "V3|D2,2,2|H2|M2:3"

    def test_equal_index_is_not_identity(self):
        # Both 2-regular on 6 vertices: same bucket key, different graphs.
        assert index_string(compute_index(C6)) == index_string(compute_index(TWO_TRIANGLES))
        assert not is_isomorphic(C6, TWO_TRIANGLES)

    def test_round_trip(self):
        for g in (PATH3, TRIANGLE, C6, TWO_TRIANGLES):
            idx = compute_index(g)
            assert parse_index_string(index_string(idx)) == idx

    def test_invariant_consistency(self):
        rng = np.random.default_rng(8)
        for _ in range(20):
            k = int(rng.integers(2, 10))
            g = build_nn_graph(dist_matrix(rng.uniform(0, 50, size=(k, 2))))
            idx = compute_index(g)
            assert sum(idx.degree_sequence) == 2 * len(g.edges)
            assert idx.max_degree == idx.degree_sequence[0]
            assert sum(idx.degree_multiplicity.values()) == idx.vertex_count

    def test_parse_rejects_noise(self):
        # The last three are non-canonical forms of V3|D2,1,1|H2|M1:2,2:1.
        for s in (
            "V3|D2,1,1|H2",
            "X3|D2|H2|M2:1",
            "V03|D2,1,1|H2|M1:2,2:1",
            "V3|D2,1,1|H2|M2:1,1:2",
            "V3|D2, 1,1|H2|M1:2,2:1",
        ):
            with pytest.raises(ValueError):
                parse_index_string(s)

    @given(seq=DEGREE_SEQUENCES, other=DEGREE_SEQUENCES)
    @settings(max_examples=200, deadline=None)
    def test_index_string_round_trips_and_parts_must_agree(self, seq, other):
        # The D part fixes V, H and M: another sequence's V, H or M part
        # spliced in, where it differs, makes the string no index string.
        idx = GraphIndex(seq)
        parts = index_string(idx).split("|")
        assert parse_index_string("|".join(parts)) == idx
        alien = index_string(GraphIndex(other)).split("|")
        for i in (0, 2, 3):
            if alien[i] != parts[i]:
                with pytest.raises(ValueError):
                    parse_index_string("|".join(parts[:i] + [alien[i]] + parts[i + 1 :]))


class TestIsomorphism:
    @given(seed=st.integers(0, 9999))
    @settings(max_examples=40, deadline=None)
    def test_random_relabeling_is_isomorphic(self, seed):
        rng = np.random.default_rng(seed)
        k = int(rng.integers(2, 9))
        g = build_nn_graph(dist_matrix(rng.uniform(0, 100, size=(k, 2))))
        perm = rng.permutation(k).tolist()
        assert is_isomorphic(g, relabel(g, perm))

    def test_triangle_vs_path(self):
        assert not is_isomorphic(TRIANGLE, PATH3)

    def test_c6_vs_two_triangles(self):
        assert not is_isomorphic(C6, TWO_TRIANGLES)

    def test_relabelled_path_and_c6_are_isomorphic_a_triangle_is_not(self):
        assert is_isomorphic(PATH3, relabel(PATH3, [2, 1, 0]))
        assert not is_isomorphic(PATH3, TRIANGLE)
        assert is_isomorphic(C6, C6)

    def test_equivalence_relation_on_pipeline_graphs(self):
        rng = np.random.default_rng(10)
        graphs = [
            build_nn_graph(dist_matrix(rng.uniform(0, 100, size=(6, 2))))
            for _ in range(12)
        ]
        for a in graphs:
            assert is_isomorphic(a, a)
        for a in graphs:
            for b in graphs:
                assert is_isomorphic(a, b) == is_isomorphic(b, a)
        for a in graphs:
            for b in graphs:
                for c in graphs:
                    if is_isomorphic(a, b) and is_isomorphic(b, c):
                        assert is_isomorphic(a, c)

    def test_isomorphic_implies_equal_index(self):
        rng = np.random.default_rng(14)
        pairs = 0
        for _ in range(40):
            k = int(rng.integers(2, 8))
            g = build_nn_graph(dist_matrix(rng.uniform(0, 100, size=(k, 2))))
            h = relabel(g, rng.permutation(k).tolist())
            assert index_string(compute_index(g)) == index_string(compute_index(h))
            pairs += 1
        assert pairs == 40
