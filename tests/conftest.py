import time

import pytest

from miniwhy import corpus

from helpers import wp_triple


@pytest.fixture(scope="session")
def quickselect_unit():
    return corpus.unit("find_nth_lowest_number")


@pytest.fixture(scope="session")
def sqrt_unit():
    return corpus.unit("sqrt_newton")


@pytest.fixture(scope="session")
def stddev_unit():
    return corpus.unit("calculate_std_dev")


@pytest.fixture(scope="session")
def translate_unit():
    return corpus.unit("rectangle_translate")


@pytest.fixture(scope="session")
def lemmas_unit():
    return corpus.unit("lemmas")


@pytest.fixture(scope="session")
def quickselect_grid():
    """The report of the exhaustive 30 948-case quickselect grid, run once
    per session, and the seconds it took."""
    t0 = time.perf_counter()
    rep = corpus.run_exhaustive("find_nth_lowest_number", mode="rational")
    return rep, time.perf_counter() - t0


@pytest.fixture(scope="session")
def wp_triples():
    """The wp/execution triples of ProgramGen seeds 0-999 (see
    helpers.wp_triple), built once per session."""
    return [wp_triple(seed) for seed in range(1000)]
