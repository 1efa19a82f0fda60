"""Paper dataset pinning."""

import pytest

from repro.core.cache import workload_fingerprint
from repro.graphs.datasets import (
    DATASET_FAMILIES,
    ER_PROBABILITIES,
    paper_er_dataset,
    paper_regular_dataset,
    profiling_graph,
)

#: ``workload_fingerprint`` of each family's graphs at ``(count,
#: dataset_seed)``: every dataset is part of every cache key, so a family
#: whose instances change turns each stored result into a miss
DIGESTS = {
    ("er", 3, 2023): "85f5370811f1410b24a9dba6b1b6ca4d7a3b31ed7d9b07f955dcc0e51944c0df",
    ("er", 6, 7): "9b0accad9b33dc6444e84d88d7cff80c5542006284cfaa2802ef9062717593e2",
    ("regular", 3, 2023): "16514958c4a8cb57cb960e334017ff45bb0c96f634d49ea7d648af91902e4780",
    ("regular", 6, 7): "398f633ebf49cdd609363acdd536cd11cb6795c234ad4e81a00073361add747a",
    ("wmaxcut", 3, 2023): "2611881fa977aca4902df07466c7a91d383e61bc561d3f858af4cac29a581079",
    ("wmaxcut", 6, 7): "ade363c1227910a10b7c0cc02c048a9c74741954474907373ce39cf013d01543",
    ("maxsat", 3, 2023): "23bbcd31c5df7c15261b10cb32515df076da1bea2aa11fcc8baedb0488a593a6",
    ("maxsat", 6, 7): "ad32e30a44879245f03bf67b479bf8b5becd24b6d622c7de9c9445255bd828f2",
    ("ising", 3, 2023): "a38de779af569ec06beaa493731c79f2c049a0d02f2622a339e67aa676fb7a24",
    ("ising", 6, 7): "f71672db37b3d133c867c8967ad7058b034c2be6ae7fd818abd385d5e5fb3dec",
}


@pytest.mark.parametrize("family, count, dataset_seed", sorted(DIGESTS))
def test_every_family_keeps_its_instances(family, count, dataset_seed):
    _, factory = DATASET_FAMILIES[family]
    graphs = factory(count, dataset_seed=dataset_seed)
    assert workload_fingerprint(graphs) == DIGESTS[family, count, dataset_seed]


@pytest.mark.parametrize("family", sorted(DATASET_FAMILIES))
def test_every_family_is_prefix_stable(family):
    """Fewer graphs are a prefix of more, topology and weights alike, so a
    scaled-down run sees the paper-scale run's first instances."""
    _, factory = DATASET_FAMILIES[family]
    assert factory(3, dataset_seed=9) == factory(7, dataset_seed=9)[:3]


class TestERDataset:
    def test_default_matches_paper_shape(self):
        graphs = paper_er_dataset()
        assert len(graphs) == 20
        assert all(g.num_nodes == 10 for g in graphs)

    def test_all_connected(self):
        assert all(g.is_connected() for g in paper_er_dataset())

    def test_varying_connectivity(self):
        """'varying degrees of connectivity': densities spread over the ladder."""
        graphs = paper_er_dataset()
        counts = sorted({g.num_edges for g in graphs})
        assert len(counts) >= 5
        assert counts[-1] - counts[0] >= 8

    def test_deterministic(self):
        assert paper_er_dataset() == paper_er_dataset()

    def test_seed_changes_instances(self):
        assert paper_er_dataset(dataset_seed=1) != paper_er_dataset(dataset_seed=2)

    def test_prefix_stability(self):
        """Requesting fewer graphs yields a prefix of the full dataset, so
        scaled-down benches use the same instances as the paper-scale run."""
        assert paper_er_dataset(5) == paper_er_dataset(20)[:5]

    def test_probability_ladder_length(self):
        assert len(ER_PROBABILITIES) == 5


class TestRegularDataset:
    def test_default_matches_paper_shape(self):
        graphs = paper_regular_dataset()
        assert len(graphs) == 20
        assert all(g.num_nodes == 10 for g in graphs)

    def test_four_regular(self):
        for g in paper_regular_dataset():
            assert all(g.degree(v) == 4 for v in range(g.num_nodes))

    def test_deterministic(self):
        assert paper_regular_dataset() == paper_regular_dataset()

    def test_distinct_instances(self):
        graphs = paper_regular_dataset()
        assert len(set(graphs)) == len(graphs)

    def test_disjoint_from_er_dataset(self):
        """§3.2 calls it 'a separate dataset'."""
        er = set(paper_er_dataset())
        regular = set(paper_regular_dataset())
        assert not (er & regular)


class TestProfilingGraph:
    def test_is_first_er_instance(self):
        assert profiling_graph() == paper_er_dataset(1)[0]


class TestWorkloadDatasets:
    """The per-workload dataset factories added with the workload registry."""

    def _is_connected(self, graph):
        import numpy as np

        adj = np.zeros((graph.num_nodes, graph.num_nodes), dtype=bool)
        for u, v in graph.edges:
            adj[u, v] = adj[v, u] = True
        reach = np.linalg.matrix_power(
            adj + np.eye(graph.num_nodes, dtype=bool), graph.num_nodes
        )
        return bool(reach[0].all())

    def test_weighted_shares_er_topology(self):
        from repro.graphs.datasets import paper_weighted_dataset

        plain = paper_er_dataset(4, dataset_seed=9)
        weighted = paper_weighted_dataset(4, dataset_seed=9)
        assert [g.edges for g in plain] == [g.edges for g in weighted]
        assert all(
            0.25 <= w <= 1.75 for g in weighted for w in g.weights
        )

    def test_weighted_deterministic_and_seed_sensitive(self):
        from repro.graphs.datasets import paper_weighted_dataset

        assert (
            paper_weighted_dataset(2, dataset_seed=9)[0].weights
            == paper_weighted_dataset(2, dataset_seed=9)[0].weights
        )
        assert (
            paper_weighted_dataset(2, dataset_seed=9)[0].weights
            != paper_weighted_dataset(2, dataset_seed=10)[0].weights
        )

    def test_maxsat_instances_connected_positive_weights(self):
        from repro.graphs.datasets import paper_maxsat_dataset

        for graph in paper_maxsat_dataset(5, dataset_seed=9):
            assert self._is_connected(graph)
            assert all(0.5 <= w <= 1.5 for w in graph.weights)

    def test_spin_glass_couplings_signed_and_bounded(self):
        from repro.graphs.datasets import paper_spin_glass_dataset

        weights = [
            w for g in paper_spin_glass_dataset(5, dataset_seed=9) for w in g.weights
        ]
        assert all(-1.0 <= w <= 1.0 for w in weights)
        assert min(weights) < 0 < max(weights)

    def test_family_table_keys_and_implications(self):
        from repro.graphs.datasets import DATASET_FAMILIES
        from repro.workloads import available_workloads

        assert set(DATASET_FAMILIES) == {"er", "regular", "wmaxcut", "maxsat", "ising"}
        implied = {key for key, _ in DATASET_FAMILIES.values()}
        assert implied == set(available_workloads())

    def test_families_are_mutually_disjoint(self):
        from repro.graphs.datasets import DATASET_FAMILIES

        first_instances = {
            family: factory(1, dataset_seed=9)[0]
            for family, (_, factory) in DATASET_FAMILIES.items()
        }
        # er/wmaxcut intentionally share topology; all other pairs differ
        assert first_instances["er"].edges != first_instances["maxsat"].edges or (
            first_instances["er"].weights != first_instances["maxsat"].weights
        )
        assert first_instances["maxsat"].weights != first_instances["ising"].weights
