"""Three-cell layout and base-station-to-user distances.

Base stations sit at the vertices of an equilateral triangle with inter-site
distance sqrt(3)*R, so the shared centroid is exactly R away from every base
station. Each cell's near and far user are placed on the ray from their
serving base station toward the centroid, which clusters the far users at the
common cell edge.
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

    cell_radius: float
    bs_positions: np.ndarray        # (3, 2)
    near_user_positions: np.ndarray  # (3, 2), users 1..3
    far_user_positions: np.ndarray   # (3, 2), users A..C


def build_layout(cell_radius, near_radii, far_radii) -> NetworkLayout:
    """Place base stations and users for the symmetric three-cell scenario.

    near_radii / far_radii give each cell's user distance from its serving
    base station along the ray toward the centroid; all must lie in
    (0, cell_radius].
    """
    radius = float(cell_radius)
    if not 0 < radius < np.inf:
        raise ValueError(f"cell radius must be positive and finite, got "
                         f"{cell_radius!r}")
    near_radii = [float(r) for r in near_radii]
    far_radii = [float(r) for r in far_radii]
    if len(near_radii) != 3 or len(far_radii) != 3:
        raise ValueError("expected exactly three near radii and three far radii")
    for user, r in zip(USERS, near_radii + far_radii):
        if not 0 < r <= radius:
            kind = "near" if user in NEAR_USERS else "far"
            raise ValueError(f"{kind} user {user}: radius {r} outside (0, {radius}]")

    side = np.sqrt(3.0) * radius
    bs = np.array([
        [0.0, 0.0],
        [side, 0.0],
        [side / 2.0, 1.5 * radius],
    ])
    centroid = bs.mean(axis=0)
    rays = centroid - bs
    rays /= np.linalg.norm(rays, axis=1)[:, None]
    near = bs + np.asarray(near_radii)[:, None] * rays
    far = bs + np.asarray(far_radii)[:, None] * rays
    return NetworkLayout(radius, bs, near, far)


def distance_matrix(layout: NetworkLayout) -> np.ndarray:
    """All 18 link distances as a (3, 6) array, rows = BS, cols = users 1..3,A..C."""
    positions = np.vstack([layout.near_user_positions, layout.far_user_positions])
    diff = layout.bs_positions[:, None, :] - positions[None, :, :]
    return np.linalg.norm(diff, axis=2)
