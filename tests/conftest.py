import numpy as np
import pytest

from comp_noma import (SystemParams, build_layout, db_to_linear,
                       derive_link_statistics, kernels)


@pytest.fixture(scope="session")
def default_layout():
    return build_layout((0.5, 0.5, 0.5), (0.95, 0.95, 0.95))


@pytest.fixture(scope="session")
def default_stats(default_layout):
    return derive_link_statistics(default_layout, 4.0, 0.001)


@pytest.fixture(scope="session")
def params_20db():
    return SystemParams(alpha=0.1, rho=db_to_linear(20.0), upsilon=0.01)


@pytest.fixture(scope="session")
def params_10db():
    return SystemParams(alpha=0.1, rho=db_to_linear(10.0), upsilon=0.01)


@pytest.fixture(autouse=True)
def no_held_blocks():
    """A held draw block answers a draw call without drawing, an estimate's
    chunk order follows the full block the draw kernel holds, and the held
    short block's far rates answer a rate-kernel call on it, so every test
    starts with no block and no far rates held, whichever tests ran
    before."""
    kernels._held.clear()


@pytest.fixture
def drawn(monkeypatch):
    """(seed, start_trial, n) of each block drawn from here on, in order,
    short and full alike: sample_gains reaches kernels._draws only when it
    holds no block for the call."""
    blocks = []
    draws = kernels._draws

    def counting(*block):
        blocks.append(block)
        return draws(*block)

    monkeypatch.setattr(kernels, "_draws", counting)
    return blocks


@pytest.fixture
def far_lookups(monkeypatch):
    """One entry per rate-kernel call that consults the far rates of the
    held short block, in order: True where they answered with the far
    users' rows, so that the kernel formed only the near users'."""
    lookups = []
    far_key, sinr = kernels._far_key, kernels._sinr

    def keyed(*args):
        key = far_key(*args)
        if key is not None:
            lookups.append(False)
        return key

    def forming(out, d, w, eps, code, users, *scalars):
        if users == kernels.N_BS:
            lookups[-1] = True
        return sinr(out, d, w, eps, code, users, *scalars)

    monkeypatch.setattr(kernels, "_far_key", keyed)
    monkeypatch.setattr(kernels, "_sinr", forming)
    return lookups


@pytest.fixture
def rng():
    return np.random.default_rng(20240815)


def pytest_terminal_summary(terminalreporter, exitstatus, config):
    try:
        from test_acceptance import RESULT_LINES
    except ImportError:
        return
    if RESULT_LINES:
        terminalreporter.section("acceptance criteria")
        for line in RESULT_LINES:
            terminalreporter.line(line)
