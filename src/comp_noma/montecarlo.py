"""Monte-Carlo ergodic sum capacity estimation with deterministic parallelism.

Trials are processed in fixed-size chunks whose partial sums are stored by
chunk index and reduced in a single deterministic order, so any worker count
reproduces the serial result. All schemes estimated from the same seed share
the same fading draws (common random numbers), which makes scheme-ordering
comparisons sharp at modest trial counts.
"""

import math
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass

import numpy as np

from . import kernels
from .analytic import total_esc_closed
from .channel import LinkStatistics, check_seed
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
    identical to the serial order for any worker count.
    """
    trials = int(trials)
    if trials < 1:
        raise ValueError(f"trials must be a positive integer, got {trials}")
    if workers < 1:
        raise ValueError(f"workers must be a positive integer, got {workers}")
    check_seed(seed)
    chunk = kernels.CHUNK_TRIALS
    n_chunks = (trials + chunk - 1) // chunk
    chunk_sums = np.zeros(n_chunks)
    chunk_sumsq = np.zeros(n_chunks)
    chunk_user_sums = np.zeros((n_chunks, len(USERS)))

    def run_chunk(index: int) -> None:
        start = index * chunk
        count = min(chunk, trials - start)
        draws = kernels.sample_gains(seed, start, count)
        rates = kernels.scheme_rates(draws, scheme.code, params.alpha,
                                     params.beta, params.rho, params.upsilon,
                                     params.band_fractions, stats.eps_sums,
                                     stats.sigma_hat)
        # by_user is the kernel's contiguous user-major (6, count) buffer.
        # Summing over its outer axis adds the users in order, one row at a
        # time, as rates.sum(axis=1) does, which keeps mean_total and
        # ci95_halfwidth bit-identical to a C-ordered reduction; per-user
        # sums are numpy's pairwise row sums.
        by_user = rates.T
        totals = by_user.sum(axis=0)
        chunk_sums[index] = totals.sum()
        totals *= totals
        chunk_sumsq[index] = totals.sum()
        chunk_user_sums[index] = by_user.sum(axis=1)

    pool_size = min(workers, n_chunks)
    if pool_size > 1:
        with ThreadPoolExecutor(max_workers=pool_size) as pool:
            list(pool.map(run_chunk, range(n_chunks)))
    else:
        for index in range(n_chunks):
            run_chunk(index)

    mean_total = float(chunk_sums.sum()) / trials
    per_user = chunk_user_sums.sum(axis=0) / trials
    if trials > 1:
        variance = (float(chunk_sumsq.sum()) - trials * mean_total ** 2) / (trials - 1)
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
        per_user_mean={label: float(per_user[i]) for i, label in enumerate(USERS)},
        ci95_halfwidth=float(ci95),
        trials=trials,
        seed=seed,
        analytic_total=analytic,
    )
