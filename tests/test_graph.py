import pytest

from isotn.errors import CycleError
from isotn.graph import (
    Quiver,
    build_binary_tree,
    build_chain,
    build_mera,
    is_tree,
    topological_layers,
)


def test_chain_minimal():
    q = build_chain(1)
    assert len(q.vertices) == 1
    assert len(q.in_edges) == 1 and len(q.out_edges) == 1
    assert len(q.internal_edges) == 0


def test_chain_counts():
    q = build_chain(3)
    assert len(q.vertices) == 3
    assert len(q.internal_edges) == 2
    assert len(q.out_edges) == 3


def test_chain_layers_are_singletons():
    layering = topological_layers(build_chain(4))
    assert [len(l) for l in layering] == [1, 1, 1, 1]


def test_chain_rejects_zero():
    with pytest.raises(ValueError):
        build_chain(0)


def test_tree_two_leaves_single_vertex():
    q = build_binary_tree(2)
    assert len(q.vertices) == 1
    assert len(q.internal_edges) == 0
    assert len(q.out_edges) == 2


def test_tree_eight_leaves():
    q = build_binary_tree(8)
    assert len(q.vertices) == 7
    assert len(q.internal_edges) == 6
    assert [len(l) for l in topological_layers(q)] == [1, 2, 4]


def test_tree_sixteen_layer_sizes():
    layering = topological_layers(build_binary_tree(16))
    assert [len(l) for l in layering] == [1, 2, 4, 8]


@pytest.mark.parametrize("n", [2, 4, 8, 16, 32, 64])
def test_tree_count_formulas(n):
    q = build_binary_tree(n)
    assert len(q.vertices) == n - 1
    assert len(q.internal_edges) == n - 2


@pytest.mark.parametrize("n", [3, 5, 6, 12, 1, 0])
def test_tree_rejects_non_powers(n):
    with pytest.raises(ValueError):
        build_binary_tree(n)


def test_mera_two_equals_tree():
    q = build_mera(2)
    t = build_binary_tree(2)
    assert (len(q.vertices), len(q.internal_edges), len(q.out_edges)) == (
        len(t.vertices), len(t.internal_edges), len(t.out_edges))


def test_mera_eight_vertex_count():
    # 7 tree vertices plus 3 disentanglers: 1 at the width-4 row, 2 at width-8
    q = build_mera(8)
    assert len(q.vertices) == 10
    two_input = [v for v in q.vertices if len(q.vertex_in_edges(v)) == 2]
    assert len(two_input) == 3
    assert len(q.out_edges) == 8
    assert len(q.in_edges) == 1


def test_mera_four_disentangler_count():
    q = build_mera(4)
    two_input = [v for v in q.vertices if len(q.vertex_in_edges(v)) == 2]
    assert len(two_input) == 1


@pytest.mark.parametrize("n", [2, 4, 8, 16, 32, 64])
def test_mera_acyclic(n):
    q = build_mera(n)
    layering = topological_layers(q)  # raises on a cycle
    assert sum(len(l) for l in layering) == len(q.vertices)


def test_mera_is_not_a_tree():
    q = build_mera(4)
    assert not is_tree(q)
    # two distinct directed paths from the root to the disentangler
    dis = next(v for v in q.vertices if len(q.vertex_in_edges(v)) == 2)
    parents = {q.source[e] for e in q.vertex_in_edges(dis)}
    assert len(parents) == 2  # reached through two different mid vertices


def test_single_vertex_one_layer():
    q = Quiver((0,), (), (0,), (1, 2), {1: 0, 2: 0}, {0: 0})
    assert [len(l) for l in topological_layers(q)] == [1]


def test_two_cycle_detected():
    q = Quiver((0, 1), (1, 2), (0,), (3,),
               {1: 0, 2: 1, 3: 0}, {0: 0, 1: 1, 2: 0})
    with pytest.raises(CycleError) as err:
        topological_layers(q)
    assert len(err.value.cycle_edges) == 2
    for _ in range(2):  # the lazy plan raises on every use and caches nothing
        with pytest.raises(CycleError):
            q.plan


def test_cycle_walk_skips_out_edges():
    # Out edges 1 and 2 come before the cycle's internal edges 3 and 4 in
    # each vertex's out-edge list, and have no target to walk to
    q = Quiver((0, 1), (3, 4), (0,), (1, 2),
               {1: 0, 2: 1, 3: 0, 4: 1}, {0: 0, 3: 1, 4: 0})
    assert q.vertex_out_edges(0) == (1, 3)
    with pytest.raises(CycleError) as err:
        topological_layers(q)
    assert err.value.cycle_edges == (3, 4)


def test_stray_endpoint_rejected():
    # a target on Out edge 2 would list it among vertex 1's in edges
    with pytest.raises(ValueError, match=r"edges \[2\] have an endpoint"):
        Quiver((0, 1), (1,), (0,), (2, 3), {1: 0, 2: 0, 3: 1}, {0: 0, 1: 1, 2: 1})
    with pytest.raises(ValueError, match=r"edges \[0\] have an endpoint"):
        Quiver((0,), (), (0,), (1,), {0: 0, 1: 0}, {0: 0})


def test_constructor_boundary_maps_are_total():
    for q in (build_chain(5), build_binary_tree(8), build_mera(8)):
        for e in q.out_edges:
            assert e in q.source
        for e in q.in_edges:
            assert e in q.target
        ids = set(q.internal_edges) | set(q.in_edges) | set(q.out_edges)
        assert len(ids) == len(q.internal_edges) + len(q.in_edges) + len(q.out_edges)


def test_layering_deterministic():
    q = build_mera(16)
    a = topological_layers(q)
    b = topological_layers(q)
    assert a == b


def test_constructors_deterministic():
    assert build_mera(8) == build_mera(8)
    assert build_binary_tree(8) == build_binary_tree(8)
    assert build_chain(8) == build_chain(8)


def test_layering_respects_edge_direction():
    q = build_mera(8)
    layering = topological_layers(q)
    index = {v: i for i, layer in enumerate(layering) for v in layer}
    for e in q.internal_edges:
        assert index[q.source[e]] < index[q.target[e]]


def test_quiver_rejects_overlapping_edge_ids():
    with pytest.raises(ValueError):
        Quiver((0,), (1,), (1,), (2,), {1: 0, 2: 0}, {0: 0, 1: 0})


def test_plan_holds_the_layers():
    for q in (build_chain(5), build_binary_tree(8), build_mera(8)):
        layers = topological_layers(q)
        assert type(layers) is tuple and all(type(l) is tuple for l in layers)
        assert q.plan.layers == layers


@pytest.mark.parametrize("args,message", [
    (((0, 0, 1), (1,), (0,), (2, 3), {1: 0, 2: 0, 3: 1}, {0: 0, 1: 1}), "vertex 0 is repeated"),
    (((0, 1), (1, 1), (0,), (2, 3), {1: 0, 2: 0, 3: 1}, {0: 0, 1: 1}), "internal edge 1 is repeated"),
    (((0,), (), (0, 0), (1,), {1: 0}, {0: 0}), "In edge 0 is repeated"),
    (((0,), (), (0,), (2, 1, 2), {1: 0, 2: 0}, {0: 0}), "Out edge 2 is repeated"),
], ids=["vertex", "internal", "in", "out"])
def test_quiver_rejects_repeated_ids(args, message):
    # a repeated vertex once fell through Kahn's count to a bare StopIteration
    with pytest.raises(ValueError, match=message):
        Quiver(*args)


def test_quiver_rejects_isolated_vertex():
    with pytest.raises(ValueError):
        Quiver((0, 5), (), (0,), (1,), {1: 0}, {0: 0})
