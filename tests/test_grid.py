import numpy as np
import pytest
from numpy.testing import assert_allclose

from blochlab.grid import PeriodicGrid, make_grid


def test_make_grid_basic():
    g = make_grid(2, (8, 4))
    assert g.d == 2
    assert g.n == (8, 4)
    assert g.num_cells == 32
    assert_allclose(g.h, (2 * np.pi / 8, 2 * np.pi / 4))
    assert_allclose(g.cell_volume, (2 * np.pi / 8) * (2 * np.pi / 4))


def test_make_grid_scalar_count():
    g = make_grid(3, 4)
    assert g.n == (4, 4, 4)


@pytest.mark.parametrize("d,n", [(0, (4,)), (4, (4, 4, 4, 4)), (2, (4,)),
                                 (1, (0,)), (2, (4, -2)), (1, (1,)),
                                 # just past N (2d + 1) <= 2**31 - 1
                                 (1, (715827883,)), (2, (20725, 20724)),
                                 (3, (675, 675, 674)), (2, (10**300, 2))])
def test_make_grid_rejects(d, n):
    with pytest.raises(ValueError):
        make_grid(d, n)


@pytest.mark.parametrize("d,n", [(1, 715827882), (2, 20724), (3, 674)])
def test_make_grid_admits_every_int32_indexable_grid(d, n):
    # assemble_shifted's int32 indptr ends at N (2d + 1), which fits here
    g = make_grid(d, n)
    assert g.num_cells * (2 * d + 1) <= 2**31 - 1


def test_axis_centers_are_midpoints():
    g = make_grid(1, (6,))
    c = g.axis_centers(0)
    h = 2 * np.pi / 6
    assert_allclose(c, h / 2 + h * np.arange(6))
    assert c[-1] < 2 * np.pi


def test_center_mesh_shapes():
    g = make_grid(2, (4, 6))
    mesh = g.center_mesh()
    assert mesh[0].shape == (4, 1)
    assert mesh[1].shape == (1, 6)


def test_neighbor_is_cyclic_shift():
    g = make_grid(2, (4, 3))
    idx = np.arange(g.num_cells)
    for axis in range(2):
        nb = g.neighbor(axis)
        # a permutation...
        assert np.array_equal(np.sort(nb), idx)
        # ...of order n_axis
        cur = idx
        for _ in range(g.n[axis]):
            cur = nb[cur]
        assert np.array_equal(cur, idx)


def test_neighbor_inverse_step():
    g = make_grid(2, (4, 6))
    for axis in range(2):
        fwd = g.neighbor(axis, 1)
        back = g.neighbor(axis, -1)
        assert np.array_equal(back[fwd], np.arange(g.num_cells))


def test_neighbor_values_read_through_the_index_map():
    # values and index map share one shift; columns of a block ride along
    g = make_grid(3, (2, 3, 4))
    u = np.random.default_rng(2).standard_normal((g.num_cells, 2))
    for axis in range(3):
        for step in (1, -1):
            nb = g.neighbor(axis, step)
            assert np.array_equal(g.neighbor_values(u, axis, step), u[nb])
            assert np.array_equal(g.neighbor_values(u[:, 0], axis, step), u[nb, 0])
    with pytest.raises(ValueError, match="axis"):
        g.neighbor_values(u, 3)


def test_grid_is_frozen():
    g = make_grid(1, (4,))
    with pytest.raises(Exception):
        g.n = (8,)
    assert isinstance(g, PeriodicGrid)
