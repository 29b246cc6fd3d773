"""Three-cell layout and base-station-to-user distances.

Base stations sit at the vertices of an equilateral triangle with inter-site
distance sqrt(3)*R, so the shared centroid is exactly R away from every base
station. Each cell's near and far user are placed on the ray from their
serving base station toward the centroid, which clusters the far users at the
common cell edge. Lengths are in units of the cell radius, R = 1.
"""

from numbers import Real

import numpy as np

NEAR_USERS = ("1", "2", "3")
FAR_USERS = ("A", "B", "C")
USERS = NEAR_USERS + FAR_USERS

N_BS = 3
N_USERS = 6


def _is_real(value) -> bool:
    """A Python or numpy real number that is not a bool."""
    return type(value) is float or (isinstance(value, Real)
                                    and not isinstance(value, bool))


def _all_real(values) -> bool:
    """Whether every element of values is a real number that is not a bool:
    an array by its dtype, anything else element by element, so that a
    bool or a string among floats is seen before numpy converts it."""
    if isinstance(values, np.ndarray):
        return values.dtype.kind in "iuf"
    return all(map(_is_real, np.array(values, dtype=object).flat))


def _as_tuple(values, name: str) -> tuple:
    """values as a tuple; a ValueError naming them if they are not a
    sequence."""
    try:
        return tuple(values)
    except TypeError:
        raise ValueError(f"{name} must be a sequence of three reals, got "
                         f"{values!r}") from None


def _unit_cell_sites() -> tuple:
    """Base-station sites (3, 2), and each user's serving site and unit ray
    toward the sites' centroid (6, 2), users 1..3, A..C."""
    side = np.sqrt(3.0)
    bs = np.array([
        [0.0, 0.0],
        [side, 0.0],
        [side / 2.0, 1.5],
    ])
    centroid = bs.mean(axis=0)
    rays = centroid - bs
    rays /= np.linalg.norm(rays, axis=1)[:, None]
    user_sites = np.concatenate((bs, bs))
    user_rays = np.concatenate((rays, rays))
    for array in (bs, user_sites, user_rays):
        array.flags.writeable = False
    return bs, user_sites, user_rays


# The sites never move, so they are built once and read-only.
_BS_SITES, _USER_SITES, _USER_RAYS = _unit_cell_sites()


def build_layout(near_radii, far_radii) -> np.ndarray:
    """Place the six users of the symmetric three-cell scenario.

    near_radii / far_radii give each cell's user distance from its serving
    base station along the ray toward the centroid; each must be a real
    number in (0, 1]. Returns the read-only (6, 2) user positions, rows
    users 1..3, A..C.
    """
    near_radii = _as_tuple(near_radii, "near_radii")
    far_radii = _as_tuple(far_radii, "far_radii")
    if len(near_radii) != 3 or len(far_radii) != 3:
        raise ValueError("expected exactly three near radii and three far radii")
    radii = near_radii + far_radii
    for user, r in zip(USERS, radii):
        kind = "near" if user in NEAR_USERS else "far"
        if not _is_real(r):
            raise ValueError(f"{kind} user {user}: radius {r!r} is not a "
                             f"real number")
        if not 0 < r <= 1.0:
            raise ValueError(f"{kind} user {user}: radius {float(r)} outside "
                             f"(0, 1]")

    positions = np.array(radii, dtype=np.float64)[:, None] * _USER_RAYS
    positions += _USER_SITES
    positions.flags.writeable = False
    return positions


def distance_matrix(positions: np.ndarray) -> np.ndarray:
    """All 18 link distances from the base-station sites to the (6, 2) user
    positions, as a (3, 6) array, rows = BS, cols = users 1..3,A..C."""
    if np.shape(positions) != (N_USERS, 2):
        raise ValueError(f"positions must have shape ({N_USERS}, 2), got "
                         f"{np.shape(positions)}")
    diff = _BS_SITES[:, None, :] - positions
    # the Euclidean norm over the last axis, as np.linalg.norm computes it:
    # its sum of the two squares is one addition
    diff *= diff
    distances = diff[..., 0] + diff[..., 1]
    return np.sqrt(distances, out=distances)
