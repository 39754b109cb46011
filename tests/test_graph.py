from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

import itertools

from conftest import (
    fresh_rng,
    level_separation_violations,
    random_connected_graph,
    random_graph,
    random_stream,
    tree_levels,
)
from qmcstream.graph import (
    MAX_VERTICES,
    READ_BLOCK,
    GraphParseError,
    InfeasibleSizeError,
    WeightedEdge,
    WeightedGraph,
    dfs_decomposition,
    dfs_forest,
    heaviest_edge_decomposition,
    is_bipartite,
    max_incident_sum,
    parse_edge_list,
    total_weight,
)

E = WeightedEdge


def graph(n, *pairs):
    return WeightedGraph(n, [E(u, v, Fraction(w)) for u, v, w in pairs])


# (input, message fragment); tests/test_cli.py runs the same table through
# `qmcstream wexact`, `exact` and `relax`, and all but the duplicates through
# `qmcstream estimate`.
PARSE_ERRORS = [
    ("n 2\n0 0 1", "line 2: self-loop"),
    ("n 3\n0 1\n1 0", "line 3: duplicate"),
    # A blank line inside a block of integer lines still counts.
    ("n 4\n0 1\n\n1 2\n\n2 1", "line 6: duplicate edge 1-2"),
    # A malformed line anywhere comes before a duplicate pair.
    ("n 3\n0 1\n1 0\n0 0\n", "line 4: self-loop"),
    ("n 2\n0 1 -2", "line 2: negative weight"),
    ("n 2\n0 1 0", "line 2: zero weight"),
    ("n 2\n0 1 x", "line 2: bad weight"),
    ("n 2\n0 5", "line 2: vertex id out of range"),
    ("0 1", "line 1: expected header"),
    ("n 2\n0", "line 2: expected 'u v [w]'"),
    ("n -3", "line 1: vertex count must be nonnegative"),
    ("n x", "line 1: vertex count must be an integer"),
    ("n 9223372036854775808", "line 1: vertex count exceeds"),
    # Only "\n" ends a line, as in a text stream read from stdin.
    ("n 3\n0 1\x0c1 2", "line 2: expected 'u v [w]'"),
    ("n 3\n0 1\r1 2", "line 2: expected 'u v [w]'"),
]

TRIANGLE = graph(3, (0, 1, 1), (1, 2, 1), (0, 2, 1))
STAR521 = graph(4, (0, 1, 5), (0, 2, 2), (0, 3, 1))


class TestParsing:
    def test_single_weighted_edge(self):
        s = parse_edge_list("n 2\n0 1 5")
        assert s.n == 2 and s.m_edges == 1
        assert s.edges[0] == E(0, 1, Fraction(5))

    def test_default_weight_is_one(self):
        s = parse_edge_list("n 3\n0 1\n1 2")
        assert [e.w for e in s.edges] == [1, 1]

    def test_rational_and_decimal_weights(self):
        s = parse_edge_list("n 2\n0 1 3/4")
        assert s.edges[0].w == Fraction(3, 4)
        s = parse_edge_list("n 2\n0 1 0.5")
        assert s.edges[0].w == Fraction(1, 2)

    def test_comments_and_blank_lines(self):
        s = parse_edge_list("# graph\nn 2\n\n0 1\n")
        assert s.m_edges == 1

    @pytest.mark.parametrize("text,fragment", PARSE_ERRORS)
    def test_errors_name_the_line(self, text, fragment):
        with pytest.raises(GraphParseError, match=fragment.replace("[", "\\[")):
            parse_edge_list(text)

    def test_duplicate_past_the_first_block(self):
        text = "n 2000\n" + "".join(f"{i} {i + 1}\n" for i in range(READ_BLOCK + 100)) + "601 600\n"
        with pytest.raises(GraphParseError, match=f"^line {READ_BLOCK + 102}: duplicate edge 600-601$"):
            parse_edge_list(text)

    def test_denominator_bound(self):
        with pytest.raises(GraphParseError, match="denominator"):
            parse_edge_list("n 2\n0 1 1/1000000007")

    def test_parse_serialize_roundtrip(self):
        for i in range(25):
            rng = fresh_rng(20, i)
            n = int(rng.integers(2, 12))
            g = random_graph(rng, n, 0.4, weights=(1, 2, 7))
            text = f"n {n}\n" + "".join(f"{e.u} {e.v} {e.w}\n" for e in g.edges)
            parsed = parse_edge_list(text)
            assert (parsed.n, parsed.edges, parsed.adjacency) == (n, g.edges, g.adjacency)

    def test_stream_rejects_duplicates(self):
        with pytest.raises(ValueError, match="duplicate"):
            WeightedGraph(3, (E(0, 1), E(1, 0)))

    def test_graph_caps_its_vertex_count(self):
        assert WeightedGraph(800_000, [E(0, 799_999)]).n == 800_000
        with pytest.raises(InfeasibleSizeError, match=f"cap {MAX_VERTICES}$"):
            WeightedGraph(MAX_VERTICES + 1, [])

    @pytest.mark.parametrize("edge", [E(0, 3), E(-1, 2)])
    def test_graph_rejects_out_of_range_vertices(self, edge):
        with pytest.raises(ValueError, match="out of range"):
            WeightedGraph(3, (E(0, 1), edge))


class TestParameters:
    @pytest.mark.parametrize(
        "g,m,w",
        [
            (TRIANGLE, 3, 3),
            (graph(2, (0, 1, 5)), 5, 10),
            (STAR521, 8, 13),
            (WeightedGraph(4, []), 0, 0),
            (graph(4, (0, 1, 4), (2, 3, 3)), 7, 14),
        ],
    )
    def test_m_and_w(self, g, m, w):
        assert total_weight(g) == m
        assert max_incident_sum(g) == w

    @settings(max_examples=60, deadline=None)
    @given(st.integers(0, 10**6))
    def test_w_at_most_twice_m(self, seed):
        rng = fresh_rng(21, seed)
        g = random_graph(rng, int(rng.integers(1, 14)), 0.4, weights=(1, 2, 3, 9))
        assert max_incident_sum(g) <= 2 * total_weight(g)


class TestHeaviestEdgeDecomposition:
    def test_single_edge_is_matched(self):
        hed = heaviest_edge_decomposition(graph(2, (0, 1, 3)))
        assert [e.pair for e in hed.matching] == [(0, 1)]
        assert hed.forest == ()

    def test_star_splits_by_choosers(self):
        hed = heaviest_edge_decomposition(STAR521)
        assert [e.pair for e in hed.matching] == [(0, 1)]
        assert sorted(e.pair for e in hed.forest) == [(0, 2), (0, 3)]
        assert 2 * hed.matching_weight + hed.forest_weight == max_incident_sum(STAR521)

    def test_perfect_matching_all_matched(self):
        g = graph(4, (0, 1, 1), (2, 3, 1))
        hed = heaviest_edge_decomposition(g)
        assert len(hed.matching) == 2 and not hed.forest

    @settings(max_examples=100, deadline=None)
    @given(st.integers(0, 10**6))
    def test_weight_identity_and_acyclic(self, seed):
        rng = fresh_rng(22, seed)
        n = int(rng.integers(2, 30))
        g = random_graph(rng, n, 0.3, weights=(1, 2, 3, 4, 8))
        hed = heaviest_edge_decomposition(g)
        assert 2 * hed.matching_weight + hed.forest_weight == max_incident_sum(g)
        union = list(hed.matching) + list(hed.forest)
        assert _is_forest(g.n, union)
        matched = [v for e in hed.matching for v in e.pair]
        assert len(matched) == len(set(matched))

    def test_acyclic_on_many_random_graphs(self):
        for i in range(1000):
            rng = fresh_rng(23, i)
            n = int(rng.integers(2, 65))
            g = random_graph(rng, n, 3.0 / n, weights=(1, 2, 5))
            hed = heaviest_edge_decomposition(g)
            assert _is_forest(g.n, list(hed.matching) + list(hed.forest))
            assert 2 * hed.matching_weight + hed.forest_weight == max_incident_sum(g)


def _is_forest(n, edges):
    parent = list(range(n))

    def find(x):
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    for e in edges:
        ru, rv = find(e.u), find(e.v)
        if ru == rv:
            return False
        parent[ru] = rv
    return True


def _all_graphs(max_n):
    """Every labeled simple graph on 1..max_n vertices, unit weights."""
    for n in range(1, max_n + 1):
        pairs = list(itertools.combinations(range(n), 2))
        for mask in range(1 << len(pairs)):
            yield WeightedGraph(n, [E(u, v) for i, (u, v) in enumerate(pairs) if (mask >> i) & 1])


class TestDfsForest:
    @staticmethod
    def assert_non_tree_edges_join_ancestors(g, neighbors):
        forest = dfs_forest(neighbors)
        parent = dict(forest)
        assert len(parent) == len(forest)  # each vertex discovered once
        assert set(parent) == set(g.non_isolated())

        def ancestors(v):
            out = set()
            while parent[v] is not None:
                v = parent[v]
                out.add(v)
            return out

        for e in g.edges:
            assert e.u in ancestors(e.v) or e.v in ancestors(e.u), (g.edges, e)

    def test_non_tree_edges_join_ancestors_random(self):
        for i in range(400):
            rng = fresh_rng(27, i)
            n = int(rng.integers(1, 30))
            g = random_graph(rng, n, float(rng.choice([1.5 / n, 0.3, 0.8])))
            self.assert_non_tree_edges_join_ancestors(g, [[v for v, _ in adj] for adj in g.adjacency])
            shuffled = [list(rng.permutation([v for v, _ in adj])) for adj in g.adjacency]
            self.assert_non_tree_edges_join_ancestors(g, shuffled)

    def test_non_tree_edges_join_ancestors_exhaustive_small(self):
        checked = 0
        for g in _all_graphs(5):
            self.assert_non_tree_edges_join_ancestors(g, [[v for v, _ in adj] for adj in g.adjacency])
            checked += 1
        assert checked == 1 + 2 + 8 + 64 + 1024

    def test_roots_and_child_order(self):
        # Vertex 3 is isolated; children follow the order the lists give.
        neighbors = [[4, 1], [0, 4], [5], [], [1, 0], [2]]
        assert dfs_forest(neighbors) == [(0, None), (4, 0), (1, 4), (2, None), (5, 2)]


class TestComponents:
    def test_isolated_vertices_are_left_out(self):
        g = graph(8, (6, 2, 1), (2, 5, 1), (7, 3, 1), (0, 3, 1))
        assert g.components() == [[0, 3, 7], [2, 5, 6]]

    def test_matches_union_find(self):
        for i in range(300):
            rng = fresh_rng(28, i)
            n = int(rng.integers(1, 26))
            g = random_graph(rng, n, 1.2 / n)
            root = list(range(n))

            def find(u):
                while root[u] != u:
                    u = root[u]
                return u

            for e in g.edges:
                root[find(e.u)] = find(e.v)
            groups = {}
            for u in g.non_isolated():
                groups.setdefault(find(u), []).append(u)
            assert g.components() == sorted(groups.values())


def test_random_builders_keep_fractional_weights():
    rng = fresh_rng(29)
    w = Fraction(5, 2)
    for g in (random_graph(rng, 5, 1.0, weights=(w,)), random_connected_graph(rng, 5, weights=(w,))):
        assert {e.w for e in g.edges} == {w}
    assert {e.w for e in random_stream(rng, 5, 4, weights=(w,)).edges} == {w}


class TestDfsDecomposition:
    def test_path_levels(self):
        dec = dfs_decomposition(graph(3, (0, 1, 1), (1, 2, 1)))
        assert tree_levels(dec) == [[(0, 1)], [(1, 2)]]
        assert dec.stars == (((0, (1,)),), ((1, (2,)),))

    def test_triangle_tree_and_crossing_edge(self):
        dec = dfs_decomposition(TRIANGLE)
        assert dec.parent == (None, 0, 1)
        assert tree_levels(dec) == [[(0, 1)], [(1, 2)]]
        assert dec.non_tree_edges == ((0, 2),)
        assert level_separation_violations(dec) == []

    def test_two_level_example_with_stars(self):
        # 8 vertices, 11 edges; levels alternate two stars of degree 2.
        g = graph(
            8,
            (0, 1, 1), (0, 6, 1), (1, 2, 1), (1, 5, 1), (2, 3, 1), (3, 4, 1),
            (3, 7, 1), (0, 5, 1), (1, 3, 1), (1, 7, 1), (0, 2, 1),
        )
        dec = dfs_decomposition(g)
        sizes = [len(level) for level in tree_levels(dec)]
        assert sizes == [2, 2, 1, 2]
        assert dec.stars[1] == ((1, (2, 5)),)
        assert dec.stars[3] == ((3, (4, 7)),)
        assert level_separation_violations(dec) == []

    def test_spanning_forest(self):
        rng = fresh_rng(24)
        g = random_graph(rng, 20, 0.15)
        dec = dfs_decomposition(g)
        non_isolated = set(g.non_isolated())
        covered = {v for level in tree_levels(dec) for e in level for v in e} | set(dec.roots)
        assert covered == non_isolated

    def test_level_separation_random(self):
        for i in range(1000):
            rng = fresh_rng(25, i)
            n = int(rng.integers(2, 65))
            g = random_graph(rng, n, 2.5 / n)
            assert level_separation_violations(dfs_decomposition(g)) == []

    def test_level_separation_exhaustive_small(self):
        # Every labeled connected graph on up to 6 vertices (DFS structure
        # depends on labels, so isomorphism reduction would not be exhaustive).
        checked = 0
        for n in range(2, 7):
            pairs = list(itertools.combinations(range(n), 2))
            for mask in range(1, 1 << len(pairs)):
                edges = [E(u, v) for i, (u, v) in enumerate(pairs) if (mask >> i) & 1]
                g = WeightedGraph(n, edges)
                comps = g.components()
                if len(comps) != 1 or len(comps[0]) != n:
                    continue
                assert level_separation_violations(dfs_decomposition(g)) == []
                checked += 1
        assert checked == 1 + 4 + 38 + 728 + 26704  # labeled connected counts


class TestBipartite:
    def test_even_cycle(self):
        g = graph(4, (0, 1, 1), (1, 2, 1), (2, 3, 1), (0, 3, 1))
        wit = is_bipartite(g)
        assert wit.bipartite
        assert all(wit.coloring[e.u] != wit.coloring[e.v] for e in g.edges)

    def test_triangle_gives_odd_cycle(self):
        wit = is_bipartite(TRIANGLE)
        assert not wit.bipartite
        cyc = wit.odd_cycle
        assert len(cyc) % 2 == 1
        pairs = {e.pair for e in TRIANGLE.edges}
        for a, b in zip(cyc, cyc[1:] + cyc[:1]):
            assert (min(a, b), max(a, b)) in pairs

    def test_empty_graph(self):
        assert is_bipartite(WeightedGraph(3, [])).bipartite

    @settings(max_examples=60, deadline=None)
    @given(st.integers(0, 10**6))
    def test_witness_always_checks_out(self, seed):
        rng = fresh_rng(26, seed)
        g = random_graph(rng, int(rng.integers(2, 20)), 0.25)
        wit = is_bipartite(g)
        if wit.bipartite:
            assert all(wit.coloring[e.u] != wit.coloring[e.v] for e in g.edges)
        else:
            cyc = wit.odd_cycle
            assert len(cyc) % 2 == 1
            pairs = {e.pair for e in g.edges}
            for a, b in zip(cyc, cyc[1:] + cyc[:1]):
                assert (min(a, b), max(a, b)) in pairs
