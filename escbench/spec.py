"""The ESC benchmark's workloads.

Each workload is a generated key=value config plus the way it is run. The
workload seed given to the benchmark becomes the config's `seed` line, so the
program receives nothing but the config. This module imports only the
standard library: run.py reads it without loading the simulator.
"""

from dataclasses import dataclass

# Seeds outside [0, 2**64) are folded into it, so every benchmark seed is a
# seed the simulator accepts.
SEED_MODULUS = 2 ** 64


@dataclass(frozen=True)
class Workload:
    name: str
    config: str
    workers: int
    # True: run through `cli.main`, as `simulate --config ...` does.
    # False: one estimate at the config's rho_db, run as a one-point sweep,
    # since parse_config insists on at least two sweep points.
    via_cli: bool
    estimates: int
    # Call counts of the traced run at the seed commit. They repeat exactly
    # on every run and are printed next to the measured counts.
    counts: dict


WORKLOADS = {w.name: w for w in (
    # The default `simulate` sweep, single-threaded: 9 SNR points x 4
    # schemes, and the same fading draws are made again for every pair.
    Workload(
        name="rho_sweep",
        config="sweep=rho\nfrom=0\nto=40\nsteps=9\ntrials=100000\n"
               "schemes=oma,noma,vpnoma,comp-vpnoma\n",
        workers=1, via_cli=True, estimates=36,
        counts={"montecarlo.estimate_esc.calls": 36,
                "kernels.sample_gains.calls": 468,
                "kernels.scheme_rates.calls": 468,
                "analytic.total_esc_closed.calls": 9}),
    # One long CoMP estimate on two threads: nothing to share across points
    # or schemes, so it exercises chunk scheduling and the reduction.
    Workload(
        name="comp_1e6",
        config="sweep=rho\nrho_db=20\ntrials=1000000\nschemes=comp-vpnoma\n",
        workers=2, via_cli=False, estimates=1,
        counts={"montecarlo.estimate_esc.calls": 1,
                "kernels.sample_gains.calls": 123,
                "analytic.total_esc_closed.calls": 1}),
    # Many cheap points whose link statistics all differ: the closed form
    # and per-point overhead dominate, the kernels do little.
    Workload(
        name="radius_fine",
        config="sweep=near-radius\nfrom=0.1\nto=0.9\nsteps=200\ntrials=2000\n"
               "schemes=comp-vpnoma\n",
        workers=1, via_cli=True, estimates=200,
        counts={"montecarlo.estimate_esc.calls": 200,
                "analytic.total_esc_closed.calls": 200,
                "channel.derive_link_statistics.calls": 200}),
)}


def config_text(workload: Workload, seed: int) -> str:
    return workload.config + f"seed={seed % SEED_MODULUS}\n"
