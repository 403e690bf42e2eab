import pytest

from pgglmc import lmc


@pytest.fixture(scope="module")
def eight_cores():
    # run_chain splits its chains into max(1, min(threads, chains // 2, cores))
    # groups; a fixed core count keeps the splits the tests check (up to 4
    # groups) the same on any host, so only threads and chains set them
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(lmc, "_cores", lambda: 8)
        yield
