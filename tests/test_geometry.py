import numpy as np
import pytest

from comp_noma import NetworkLayout, build_layout, distance_matrix
from comp_noma.geometry import user_index
from oracles import link

SQRT_1_75 = 1.3228756555322953  # sqrt(1.75), BS2 -> UE1 at near radius 0.5


def test_near_user_placed_on_own_ray(default_layout):
    d = distance_matrix(default_layout)
    assert d[link(1, 1)] == pytest.approx(0.5, abs=1e-15)
    assert d[link(2, 2)] == pytest.approx(0.5, abs=1e-15)
    assert d[link(1, "A")] == pytest.approx(0.95, abs=1e-15)


def test_centroid_is_unit_distance_from_every_base_station(default_layout):
    centroid = default_layout.bs_positions.mean(axis=0)
    for bs in default_layout.bs_positions:
        assert np.linalg.norm(bs - centroid) == pytest.approx(1.0, abs=1e-12)


def test_cross_link_distance_matches_coordinate_arithmetic(default_layout):
    # BS1=(0,0), BS2=(sqrt(3),0), UE1=(sqrt(3)/4, 1/4) -> sqrt(1.75)
    assert default_layout.bs_positions[0] == pytest.approx([0.0, 0.0], abs=1e-15)
    assert default_layout.bs_positions[1] == pytest.approx([np.sqrt(3.0), 0.0],
                                                           abs=1e-15)
    assert default_layout.near_user_positions[0] == pytest.approx(
        [np.sqrt(3.0) / 4.0, 0.25], abs=1e-12)
    assert distance_matrix(default_layout)[link(2, 1)] == pytest.approx(
        SQRT_1_75, abs=1e-12)


def test_far_users_at_full_radius_coincide_at_centroid():
    layout = build_layout(1.0, (0.5,) * 3, (1.0,) * 3)
    far = distance_matrix(layout)[:, 3:]
    assert np.all(np.abs(far - 1.0) < 1e-12)


def test_serving_distance_equals_given_radius():
    d = distance_matrix(build_layout(1.0, (0.123, 0.456, 0.789),
                                     (0.9, 0.8, 0.7)))
    for cell, radius in enumerate((0.123, 0.456, 0.789), start=1):
        assert d[link(cell, cell)] == pytest.approx(radius, abs=1e-15)
    for cell, (radius, far) in enumerate(zip((0.9, 0.8, 0.7), "ABC"), start=1):
        assert d[link(cell, far)] == pytest.approx(radius, abs=1e-15)


def test_radius_out_of_range_names_offending_user():
    with pytest.raises(ValueError, match="far user B"):
        build_layout(1.0, (0.5,) * 3, (0.95, 1.2, 0.95))
    with pytest.raises(ValueError, match="near user 1"):
        build_layout(1.0, (0.0, 0.5, 0.5), (0.95,) * 3)
    with pytest.raises(ValueError, match="near user 3"):
        build_layout(0.8, (0.5, 0.5, 0.9), (0.7,) * 3)
    with pytest.raises(ValueError, match="near user 2"):
        build_layout(1.0, (0.5, float("nan"), 0.5), (0.95,) * 3)
    with pytest.raises(ValueError, match="cell radius"):
        build_layout(float("inf"), (0.5,) * 3, (0.95,) * 3)


def test_unknown_indices_rejected():
    with pytest.raises(ValueError, match="user id"):
        user_index("D")
    with pytest.raises(ValueError, match="user id"):
        user_index(4)


def test_user_index_accepts_both_spellings():
    assert user_index(1) == 0
    assert user_index("2") == 1
    assert user_index("a") == 3
    assert user_index("C") == 5


def test_distances_invariant_under_rotation_and_translation(default_layout):
    angle = 0.731
    rot = np.array([[np.cos(angle), -np.sin(angle)],
                    [np.sin(angle), np.cos(angle)]])
    shift = np.array([2.5, -1.75])

    def moved(points):
        return points @ rot.T + shift

    transformed = NetworkLayout(
        default_layout.cell_radius,
        moved(default_layout.bs_positions),
        moved(default_layout.near_user_positions),
        moved(default_layout.far_user_positions),
    )
    original = distance_matrix(default_layout)
    assert np.allclose(distance_matrix(transformed), original, atol=1e-12)


def test_base_stations_pairwise_distinct_and_equilateral(default_layout):
    bs = default_layout.bs_positions
    sides = [np.linalg.norm(bs[i] - bs[j]) for i, j in ((0, 1), (1, 2), (0, 2))]
    assert np.allclose(sides, np.sqrt(3.0), atol=1e-12)
