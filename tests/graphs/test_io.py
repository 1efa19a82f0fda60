"""Graph JSON serialization."""

import json

from repro.graphs.generators import Graph, erdos_renyi_graph
from repro.graphs.io import graph_from_dict, graph_to_dict


class TestDictRoundTrip:
    def test_unweighted(self):
        g = erdos_renyi_graph(8, 0.5, seed=1)
        assert graph_from_dict(graph_to_dict(g)) == g

    def test_weighted(self):
        g = Graph(3, ((0, 1), (1, 2)), (2.0, 0.5))
        restored = graph_from_dict(graph_to_dict(g))
        assert restored.weights == (2.0, 0.5)

    def test_unit_weights_omitted_from_dict(self):
        d = graph_to_dict(Graph(2, ((0, 1),)))
        assert "weights" not in d

    def test_dict_is_json_safe(self):
        g = erdos_renyi_graph(5, 0.5, seed=2)
        json.dumps(graph_to_dict(g))  # must not raise

