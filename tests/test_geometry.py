import re

import numpy as np
import pytest

from comp_noma import build_layout, distance_matrix, geometry
from oracles import distance_plain, layout_plain, link

SQRT_1_75 = 1.3228756555322953  # sqrt(1.75), BS2 -> UE1 at near radius 0.5
BS_SITES = geometry._BS_SITES


def test_near_user_placed_on_own_ray(default_layout):
    d = distance_matrix(default_layout)
    assert d[link(1, 1)] == pytest.approx(0.5, abs=1e-15)
    assert d[link(2, 2)] == pytest.approx(0.5, abs=1e-15)
    assert d[link(1, "A")] == pytest.approx(0.95, abs=1e-15)


def test_centroid_is_unit_distance_from_every_base_station():
    centroid = BS_SITES.mean(axis=0)
    for bs in BS_SITES:
        assert np.linalg.norm(bs - centroid) == pytest.approx(1.0, abs=1e-12)


def test_cross_link_distance_matches_coordinate_arithmetic(default_layout):
    # BS1=(0,0), BS2=(sqrt(3),0), UE1=(sqrt(3)/4, 1/4) -> sqrt(1.75)
    assert BS_SITES[0] == pytest.approx([0.0, 0.0], abs=1e-15)
    assert BS_SITES[1] == pytest.approx([np.sqrt(3.0), 0.0], abs=1e-15)
    assert default_layout[0] == pytest.approx(
        [np.sqrt(3.0) / 4.0, 0.25], abs=1e-12)
    assert distance_matrix(default_layout)[link(2, 1)] == pytest.approx(
        SQRT_1_75, abs=1e-12)


def test_far_users_at_full_radius_coincide_at_centroid():
    layout = build_layout((0.5,) * 3, (1.0,) * 3)
    far = distance_matrix(layout)[:, 3:]
    assert np.all(np.abs(far - 1.0) < 1e-12)


def test_serving_distance_equals_given_radius():
    d = distance_matrix(build_layout((0.123, 0.456, 0.789),
                                     (0.9, 0.8, 0.7)))
    for cell, radius in enumerate((0.123, 0.456, 0.789), start=1):
        assert d[link(cell, cell)] == pytest.approx(radius, abs=1e-15)
    for cell, (radius, far) in enumerate(zip((0.9, 0.8, 0.7), "ABC"), start=1):
        assert d[link(cell, far)] == pytest.approx(radius, abs=1e-15)


def test_radius_out_of_range_names_offending_user():
    with pytest.raises(ValueError, match="far user B"):
        build_layout((0.5,) * 3, (0.95, 1.2, 0.95))
    with pytest.raises(ValueError, match="near user 1"):
        build_layout((0.0, 0.5, 0.5), (0.95,) * 3)
    with pytest.raises(ValueError, match=r"near user 3: radius 1.1 outside "
                                         r"\(0, 1\]"):
        build_layout((0.5, 0.5, 1.1), (0.7,) * 3)
    with pytest.raises(ValueError, match="near user 2"):
        build_layout((0.5, float("nan"), 0.5), (0.95,) * 3)
    with pytest.raises(ValueError, match="far user C"):
        build_layout((0.5,) * 3, (0.95, 0.95, float("inf")))


def test_base_stations_pairwise_distinct_and_equilateral():
    bs = BS_SITES
    sides = [np.linalg.norm(bs[i] - bs[j]) for i, j in ((0, 1), (1, 2), (0, 2))]
    assert np.allclose(sides, np.sqrt(3.0), atol=1e-12)


def _same_bits(a, b):
    return a.shape == b.shape and a.tobytes() == b.tobytes()


def test_layout_and_distances_match_the_plain_arithmetic_bitwise():
    rng = np.random.default_rng(10)
    for _ in range(200):
        # radii in (0, 1], some of them at the cell edge
        near, far = (1.0 - rng.random(3) for _ in range(2))
        far[rng.random(3) < 0.2] = 1.0
        positions = build_layout(near, far)
        bs, near_positions, far_positions = layout_plain(near, far)
        assert _same_bits(BS_SITES, bs)
        assert _same_bits(positions[:3], near_positions)
        assert _same_bits(positions[3:], far_positions)
        assert _same_bits(distance_matrix(positions),
                          distance_plain(bs, near_positions, far_positions))


def test_layouts_of_one_cell_radius_share_read_only_sites():
    positions = build_layout((0.2, 0.4, 0.6), (0.9,) * 3)
    assert positions.shape == (6, 2)
    for array in (positions, geometry._BS_SITES, geometry._USER_SITES,
                  geometry._USER_RAYS):
        with pytest.raises(ValueError, match="read-only"):
            array[0, 0] = 1.0


@pytest.mark.parametrize("radius, label", [
    (True, "True"), (np.True_, "np.True_"), ("0.5", "'0.5'"),
    (None, "None"), (1 + 0j, r"\(1\+0j\)"),
])
def test_radii_of_other_types_are_rejected_by_user(radius, label):
    with pytest.raises(ValueError, match=f"near user 2: radius {label} is not "
                                         f"a real number"):
        build_layout((0.5, radius, 0.5), (0.95,) * 3)
    with pytest.raises(ValueError, match="far user C: radius"):
        build_layout((0.5,) * 3, (0.95, 0.95, radius))


@pytest.mark.parametrize("bad", [0.5, 1, None, np.float64(0.9)])
def test_radii_that_are_not_a_sequence_are_rejected_by_name(bad):
    with pytest.raises(ValueError, match="near_radii must be a sequence"):
        build_layout(bad, (0.95,) * 3)
    with pytest.raises(ValueError, match="far_radii must be a sequence"):
        build_layout((0.5,) * 3, bad)


def test_python_and_numpy_real_radii_are_accepted_bitwise():
    plain = build_layout((0.5, 0.25, 1.0), (0.95,) * 3)
    for near in ((np.float64(0.5), np.float32(0.25), np.int64(1)),
                 np.array([0.5, 0.25, 1.0]), (0.5, 0.25, 1)):
        assert _same_bits(build_layout(near, (0.95,) * 3), plain)


@pytest.mark.parametrize("shape", [(5, 2), (6, 3), (2, 6), (12,)], ids=str)
def test_positions_of_another_shape_are_rejected_by_name(shape):
    # (5, 2) and (6, 3) used to fail inside numpy's broadcasting
    with pytest.raises(ValueError, match=rf"positions must have shape "
                                         rf"\(6, 2\), got {re.escape(str(shape))}"):
        distance_matrix(np.full(shape, 0.3))


def test_positions_as_a_list_of_six_pairs_are_accepted_bitwise(default_layout):
    assert _same_bits(distance_matrix(default_layout.tolist()),
                      distance_matrix(default_layout))
