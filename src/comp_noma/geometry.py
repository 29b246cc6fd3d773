"""Three-cell layout and base-station-to-user distances.

Base stations sit at the vertices of an equilateral triangle with inter-site
distance sqrt(3)*R, so the shared centroid is exactly R away from every base
station. Each cell's near and far user are placed on the ray from their
serving base station toward the centroid, which clusters the far users at the
common cell edge. Lengths are in units of the cell radius, R = 1.
"""

from dataclasses import dataclass

import numpy as np

NEAR_USERS = ("1", "2", "3")
FAR_USERS = ("A", "B", "C")
USERS = NEAR_USERS + FAR_USERS

N_BS = 3
N_USERS = 6


def user_index(user) -> int:
    """Map a user id (1..3, 'A'..'C', or their string forms) to 0..5."""
    if isinstance(user, (int, np.integer)):
        if 1 <= user <= 3:
            return int(user) - 1
        raise ValueError(f"unknown user id {user!r}")
    label = str(user).upper()
    if label in USERS:
        return USERS.index(label)
    raise ValueError(f"unknown user id {user!r}")


@dataclass(frozen=True)
class NetworkLayout:
    """Positions of the 3 base stations and 6 users, in units of the cell radius."""

    bs_positions: np.ndarray    # (3, 2)
    user_positions: np.ndarray  # (6, 2), users 1..3, A..C

    @property
    def near_user_positions(self) -> np.ndarray:
        return self.user_positions[:3]

    @property
    def far_user_positions(self) -> np.ndarray:
        return self.user_positions[3:]


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


# Every layout holds the same sites, so they are built once and read-only.
_BS_SITES, _USER_SITES, _USER_RAYS = _unit_cell_sites()


def build_layout(near_radii, far_radii) -> NetworkLayout:
    """Place base stations and users for the symmetric three-cell scenario.

    near_radii / far_radii give each cell's user distance from its serving
    base station along the ray toward the centroid; all must lie in (0, 1].
    """
    near_radii = [float(r) for r in near_radii]
    far_radii = [float(r) for r in far_radii]
    if len(near_radii) != 3 or len(far_radii) != 3:
        raise ValueError("expected exactly three near radii and three far radii")
    radii = near_radii + far_radii
    for user, r in zip(USERS, radii):
        if not 0 < r <= 1.0:
            kind = "near" if user in NEAR_USERS else "far"
            raise ValueError(f"{kind} user {user}: radius {r} outside (0, 1]")

    positions = np.array(radii)[:, None] * _USER_RAYS
    positions += _USER_SITES
    return NetworkLayout(_BS_SITES, positions)


def distance_matrix(layout: NetworkLayout) -> np.ndarray:
    """All 18 link distances as a (3, 6) array, rows = BS, cols = users 1..3,A..C."""
    diff = layout.bs_positions[:, None, :] - layout.user_positions
    # the Euclidean norm over the last axis, as np.linalg.norm computes it:
    # its sum of the two squares is one addition
    diff *= diff
    distances = diff[..., 0] + diff[..., 1]
    return np.sqrt(distances, out=distances)
