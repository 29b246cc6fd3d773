import numpy as np
import pytest

from comp_noma import (InfeasibleCsiError, LinkStatistics, build_layout,
                       derive_link_statistics)
from comp_noma import channel
from comp_noma.channel import check_seed
from oracles import kernel_gains, link, link_statistics, per_link


def uniform_stats(sigma_hat=1.0, sigma_eps=0.0):
    return LinkStatistics(np.full((3, 6), float(sigma_hat)),
                          np.full((3, 6), float(sigma_eps)))


def test_unit_distance_perfect_csi_gives_unit_variance():
    layout = build_layout((0.5,) * 3, (1.0,) * 3)
    stats = derive_link_statistics(layout, 4.0, 0.0)
    assert stats.sigma_hat[link(1, "A")] == pytest.approx(1.0, abs=1e-12)
    assert stats.sigma_eps[link(1, "A")] == 0.0


def test_variance_formula_at_half_radius(default_stats):
    # d = 0.5, v = 4: 0.5^-4 - 0.001 = 15.999
    assert default_stats.sigma_hat[link(1, 1)] == pytest.approx(15.999,
                                                                abs=1e-12)
    assert default_stats.sigma_hat[link(2, 1)] == pytest.approx(
        1.75 ** -2 - 0.001, rel=1e-12)


def test_infeasible_csi_error_names_link(default_layout):
    # sigma_eps larger than the weakest cross-link mean power
    with pytest.raises(InfeasibleCsiError, match=r"BS1, UE2"):
        derive_link_statistics(default_layout, 4.0, 0.4)
    with pytest.raises(InfeasibleCsiError, match=r"BS2, UE1"):
        link_statistics(default_layout, 4.0, per_link(0.001, {(2, 1): 0.9}))


def test_override_applies_per_link(default_layout):
    eps = per_link(0.001, {(3, "B"): 0.05})
    stats = link_statistics(default_layout, 4.0, eps)
    assert stats.sigma_eps[link(3, "B")] == 0.05
    assert stats.sigma_eps[link(3, "A")] == 0.001
    assert stats.sigma_hat[link(3, "B")] == pytest.approx(
        stats.sigma_hat[link(3, "A")] - 0.049, rel=1e-9)
    # the statistics keep their own copy of the caller's array
    eps[link(3, "B")] = 0.0
    assert stats.sigma_eps[link(3, "B")] == 0.05


@pytest.mark.parametrize("value", [0.0, 0.001, 0.0123])
def test_per_link_array_of_one_value_matches_the_scalar_bitwise(
        default_layout, value):
    # the per-link statistics the tests build take derive_link_statistics'
    # arithmetic
    scalar = derive_link_statistics(default_layout, 4.0, value)
    array = link_statistics(default_layout, 4.0, np.full((3, 6), value))
    for name in ("sigma_hat", "sigma_eps", "eps_sums"):
        a, b = getattr(scalar, name), getattr(array, name)
        assert a.shape == b.shape and a.tobytes() == b.tobytes(), name


@pytest.mark.parametrize("shape", [(6,), (3, 1), (2,), (1, 6), (6, 3),
                                   (3, 6, 1), (3, 6), ()], ids=str)
def test_sigma_eps_of_any_other_shape_is_rejected_by_name(default_layout,
                                                          shape):
    # an array of any shape, even (3, 6) or (), is not the one real number
    # taken; (6,), (3, 1) and (1, 6) would broadcast against the (3, 6)
    # distances
    with pytest.raises(ValueError, match=r"sigma_eps must be a real number "
                                         r"in \[0, inf\) \(per-link values "
                                         r"go through LinkStatistics\)"):
        derive_link_statistics(default_layout, 4.0, np.full(shape, 0.001))


def test_negative_inputs_rejected(default_layout):
    with pytest.raises(ValueError, match="path-loss"):
        derive_link_statistics(default_layout, 0.0, 0.001)
    with pytest.raises(ValueError, match="sigma_eps"):
        derive_link_statistics(default_layout, 4.0, -0.1)
    with pytest.raises(ValueError, match=r"link \(BS1, UE1\): sigma_eps"):
        link_statistics(default_layout, 4.0, per_link(0.001, {(1, 1): -1e-6}))


def test_non_finite_inputs_rejected_by_name(default_layout):
    for bad in (float("nan"), float("inf")):
        with pytest.raises(ValueError, match="path-loss"):
            derive_link_statistics(default_layout, bad, 0.001)
        with pytest.raises(ValueError, match="sigma_eps must"):
            derive_link_statistics(default_layout, 4.0, bad)
        with pytest.raises(ValueError, match=r"link \(BS2, UEB\): sigma_eps"):
            link_statistics(default_layout, 4.0,
                            per_link(0.001, {(2, "B"): bad}))


@pytest.mark.parametrize("name, match", [
    ("pathloss_exponent", "path-loss exponent must be positive and finite, "
                          "got inf"),
    ("sigma_eps", r"sigma_eps must be a real number in \[0, inf\)"),
], ids=["pathloss_exponent", "sigma_eps"])
def test_an_int_too_large_for_a_float_is_rejected_by_name(default_layout,
                                                          name, match):
    args = {"pathloss_exponent": 4.0, "sigma_eps": 0.001, name: 10 ** 400}
    with pytest.raises(ValueError, match=match):
        derive_link_statistics(default_layout, **args)


@pytest.mark.parametrize("name, value", [
    ("sigma_eps", [[0.001] * 6, [0.001] * 6, [0.001] * 5]),
    ("sigma_eps", [[0.001] * 6] * 3),
    ("sigma_eps", "0.001"),
    ("sigma_eps", True),
    ("sigma_eps", np.full((3, 6), True)),
    ("pathloss_exponent", "4"),
    ("pathloss_exponent", True),
], ids=["sigma_eps-ragged", "sigma_eps-nested-list", "sigma_eps-string",
        "sigma_eps-bool", "sigma_eps-bool-array", "pathloss_exponent-string",
        "pathloss_exponent-bool"])
def test_arguments_of_other_types_are_rejected_by_name(default_layout, monkeypatch,
                                                       name, value):
    # rejected before any arithmetic: the distances are never computed
    monkeypatch.setattr(channel, "distance_matrix", None)
    args = {"pathloss_exponent": 4.0, "sigma_eps": 0.001, name: value}
    with pytest.raises(ValueError, match=name):
        derive_link_statistics(default_layout, **args)


@pytest.mark.parametrize("exponent, sigma_eps", [
    (4, 0.001), (np.float64(4.0), np.float64(0.001)),
    (np.float32(4.0), np.float32(0.001)), (np.int64(4), 0),
])
def test_python_and_numpy_scalars_are_accepted(default_layout, exponent,
                                               sigma_eps):
    stats = derive_link_statistics(default_layout, exponent, sigma_eps)
    plain = derive_link_statistics(default_layout, float(exponent),
                                   float(sigma_eps))
    for name in ("sigma_hat", "sigma_eps", "eps_sums"):
        assert getattr(stats, name).tobytes() == getattr(plain, name).tobytes()


def test_overflowing_sigma_hat_names_its_link():
    # the near users' serving links are too short to raise to -4 in float64
    layout = build_layout((1e-80,) * 3, (0.95,) * 3)
    with pytest.raises(InfeasibleCsiError, match=r"BS1, UE1\): d\^-v = inf"):
        derive_link_statistics(layout, 4.0, 0.001)


def test_link_statistics_built_directly_are_validated_by_link():
    hat, eps = np.ones((3, 6)), np.zeros((3, 6))
    for bad in (float("nan"), 0.0, float("inf")):
        broken = hat.copy()
        broken[link(2, "B")] = bad
        with pytest.raises(InfeasibleCsiError, match=r"link \(BS2, UEB\)"):
            LinkStatistics(broken, eps)
    for bad in (-1e-6, float("nan"), float("inf")):
        broken = eps.copy()
        broken[link(3, 1)] = bad
        with pytest.raises(ValueError, match=r"link \(BS3, UE1\): sigma_eps"):
            LinkStatistics(hat, broken)
    with pytest.raises(ValueError, match=r"sigma_hat must have shape \(3, 6\)"):
        LinkStatistics(np.ones((2, 6)), np.zeros((2, 6)))
    with pytest.raises(ValueError, match=r"sigma_eps must have shape \(3, 6\)"):
        LinkStatistics(hat, np.zeros(6))


def test_eps_sums_are_each_users_read_only_column_sums(default_layout):
    stats = link_statistics(
        default_layout, 4.0, per_link(0.001, {(1, "A"): 0.004, (3, 2): 0.0}))
    assert stats.eps_sums.tolist() == [
        (a + b) + c for a, b, c in zip(*stats.sigma_eps.tolist())]
    assert np.array_equal(stats.eps_sums, stats.sigma_eps.sum(axis=0))
    with pytest.raises(ValueError, match="read-only"):
        stats.eps_sums[0] = 1.0


def test_same_seed_and_trial_reproduce_bitwise(default_stats):
    a = kernel_gains(99, 1234, 1, default_stats.sigma_hat)[0]
    b = kernel_gains(99, 1234, 1, default_stats.sigma_hat)[0]
    assert np.array_equal(a, b)
    c = kernel_gains(99, 1235, 1, default_stats.sigma_hat)[0]
    assert not np.array_equal(a, c)


def test_draws_are_pure_functions_of_seed_trial_link(default_stats):
    batch = kernel_gains(42, 0, 200, default_stats.sigma_hat)
    for trial in (0, 1, 57, 199):
        single = kernel_gains(42, trial, 1, default_stats.sigma_hat)[0]
        assert np.array_equal(batch[trial], single)
    # starting mid-stream yields the identical trials
    tail = kernel_gains(42, 150, 50, default_stats.sigma_hat)
    assert np.array_equal(batch[150:], tail)


def test_scaling_one_links_variance_scales_its_gain_exactly():
    stats = uniform_stats(1.0)
    scaled = np.ones((3, 6))
    scaled[1, 4] = 2.5
    stats_scaled = LinkStatistics(scaled, np.zeros((3, 6)))
    a = kernel_gains(5, 7, 1, stats.sigma_hat)[0]
    b = kernel_gains(5, 7, 1, stats_scaled.sigma_hat)[0]
    assert b[1, 4] == 2.5 * a[1, 4]
    mask = np.ones((3, 6), bool)
    mask[1, 4] = False
    assert np.array_equal(a[mask], b[mask])


def test_seed_must_be_a_64_bit_integer():
    for seed in (-1, 2**64, 1.5, True):
        with pytest.raises(ValueError, match="seed"):
            check_seed(seed)
    check_seed(2**64 - 1)


def test_gain_moments_and_independence():
    # exponential with mean sigma_hat: mean, variance and cross-correlation
    stats = uniform_stats(1.0)
    trials = 1_000_000
    chunk = 100_000
    count = 0
    link_sum = np.zeros(18)
    outer_sum = np.zeros((18, 18))
    for start in range(0, trials, chunk):
        gains = kernel_gains(2024, start, chunk,
                             stats.sigma_hat).reshape(chunk, 18)
        count += chunk
        link_sum += gains.sum(axis=0)
        outer_sum += gains.T @ gains
    mean = link_sum / count
    cov = outer_sum / count - np.outer(mean, mean)
    assert np.all(np.abs(mean - 1.0) < 0.01)
    assert np.all(np.abs(np.diag(cov) - 1.0) < 0.03)
    corr = cov / np.sqrt(np.outer(np.diag(cov), np.diag(cov)))
    off_diagonal = corr[~np.eye(18, dtype=bool)]
    assert np.max(np.abs(off_diagonal)) < 0.01


def test_positions_of_another_shape_are_rejected_by_name():
    with pytest.raises(ValueError, match=r"positions must have shape \(6, 2\), "
                                         r"got \(5, 2\)"):
        derive_link_statistics(np.zeros((5, 2)) + 0.3)


@pytest.mark.parametrize("bad", [False, True, "0.001", None])
def test_a_non_real_among_per_link_floats_is_rejected_by_name(default_layout,
                                                               bad):
    # rejected as a list, before np.array could turn a lone bool among
    # floats into 0.0 or 1.0
    values = [[0.001] * 6 for _ in range(3)]
    values[2][5] = bad
    with pytest.raises(ValueError, match="sigma_eps must be a real number"):
        derive_link_statistics(default_layout, 4.0, values)
