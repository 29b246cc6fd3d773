"""Monte-Carlo ergodic sum capacity estimation with deterministic parallelism.

Trials are processed in fixed-size chunks whose partial sums are stored by
chunk index and reduced in a single deterministic order, so any worker count
reproduces the serial result. All schemes estimated from the same seed share
the same fading draws (common random numbers), which makes scheme-ordering
comparisons sharp at modest trial counts.
"""

import collections
import math
import threading
from dataclasses import dataclass

import numpy as np

from . import kernels
from .analytic import total_esc_closed
from .channel import LinkStatistics, check_count, check_seed
from .geometry import USERS
from .schemes import SchemeId, SystemParams


@dataclass(frozen=True)
class EscEstimate:
    """Monte-Carlo ESC estimate, with the closed-form value where one exists."""

    scheme: SchemeId
    mean_total: float
    per_user_mean: dict
    ci95_halfwidth: float
    trials: int
    seed: int
    analytic_total: float | None = None


def estimate_esc(stats: LinkStatistics, params: SystemParams,
                 scheme: SchemeId, trials: int, seed: int,
                 workers: int = 1) -> EscEstimate:
    """Average the scheme's total rate over `trials` fading realizations.

    The result is a pure function of (stats, params, scheme, trials, seed),
    identical to the serial order for any worker count. Up to `workers`
    threads compute, the calling thread among them, and none outlives the
    call; the first error a chunk raises is raised here.
    """
    if not isinstance(scheme, SchemeId):
        raise TypeError(f"scheme must be a SchemeId, got {scheme!r}")
    check_count("trials", trials)
    check_count("workers", workers)
    check_seed(seed)
    chunk = kernels.CHUNK_TRIALS
    n_chunks = (trials + chunk - 1) // chunk
    # row 0: each chunk's sum of per-trial totals; row 1: their sum of squares
    chunk_moments = np.zeros((2, n_chunks))
    chunk_user_sums = np.zeros((n_chunks, len(USERS)))

    def run_chunk(index: int) -> None:
        start = index * chunk
        count = min(chunk, trials - start)
        draws = kernels.sample_gains(seed, start, count)
        rates = kernels.scheme_rates(draws, scheme.code, params, stats)
        # by_user is the kernel's contiguous user-major (6, count) buffer.
        # Summing over its outer axis adds the users in order, one row at a
        # time, as rates.sum(axis=1) does, which keeps mean_total and
        # ci95_halfwidth bit-identical to a C-ordered reduction; per-user
        # sums are numpy's pairwise row sums. np.add.reduce is what
        # ndarray.sum calls, without the Python wrapper around it.
        by_user = rates.T
        totals = np.add.reduce(by_user, axis=0)
        chunk_moments[0, index] = np.add.reduce(totals)
        totals *= totals
        chunk_moments[1, index] = np.add.reduce(totals)
        chunk_user_sums[index] = np.add.reduce(by_user, axis=1)

    # The calling thread and its helpers share one list iterator; next() on
    # it is one C call under the GIL, so each index goes to one thread, and
    # a failing chunk empties it, also in one C call.
    indices = iter(kernels.chunk_order(seed, trials))
    errors = []

    def work() -> None:
        try:
            for index in indices:
                run_chunk(index)
        except BaseException as exc:
            errors.append(exc)
            collections.deque(indices, maxlen=0)

    helpers = []
    try:
        for _ in range(min(workers, n_chunks) - 1):
            helper = threading.Thread(target=work)
            helper.start()
            helpers.append(helper)
        work()
    finally:
        for helper in helpers:
            helper.join()
    if errors:
        raise errors[0]

    # each row reduces as the 1-d sum of its chunks would, pairwise in order
    total_sum, total_sumsq = np.add.reduce(chunk_moments, axis=1).tolist()
    mean_total = total_sum / trials
    per_user = np.add.reduce(chunk_user_sums, axis=0) / trials
    if trials > 1:
        variance = (total_sumsq - trials * mean_total ** 2) / (trials - 1)
        variance = max(variance, 0.0)
    else:
        variance = 0.0
    ci95 = 1.96 * math.sqrt(variance / trials)

    analytic = None
    if scheme is SchemeId.COMP_VPNOMA:
        analytic = total_esc_closed(stats, params)
    return EscEstimate(
        scheme=scheme,
        mean_total=mean_total,
        per_user_mean=dict(zip(USERS, per_user.tolist())),
        ci95_halfwidth=float(ci95),
        trials=trials,
        seed=seed,
        analytic_total=analytic,
    )
