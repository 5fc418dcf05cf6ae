import pytest

import corpus
from spexcess import fixtures as fx
from spexcess.pipeline import analyze_graph, run_all_checks

# every bundled fixture plus a few extras the tests lean on
EXTRA = {
    "k13": lambda: fx.star(3),
    "p4": lambda: fx.path(4),
    "p5": lambda: fx.path(5),
}

ALL_NAMES = sorted(fx.BUNDLED) + sorted(EXTRA)

# distance-regular fixtures used by the equality-side tests
DRG_NAMES = ["petersen", "c4", "c5", "c6", "c7", "c8", "k2", "k3", "k4", "k5"]


def make_graph(name):
    if name in fx.BUNDLED:
        return fx.BUNDLED[name]()
    return EXTRA[name]()


@pytest.fixture(scope="session")
def analyses():
    """Lazily built, session-cached GraphAnalysis per fixture name."""
    cache = {}

    def get(name):
        if name not in cache:
            cache[name] = analyze_graph(make_graph(name))
        return cache[name]

    return get


@pytest.fixture(scope="session")
def checks(analyses):
    """Session-cached run_all_checks output per fixture name."""
    cache = {}

    def get(name):
        if name not in cache:
            cache[name] = run_all_checks(analyses(name))
        return cache[name]

    return get


@pytest.fixture(scope="session")
def analyzed():
    """The seeded property corpus (n <= 12), analysed and checked once."""
    graphs = corpus.build_corpus()
    assert len(graphs) >= 100
    return corpus.analyze_corpus(graphs)


@pytest.fixture(scope="session")
def wide():
    """The wide corpus (d up to about 60), analysed and checked once."""
    return corpus.analyze_corpus(corpus.build_wide_corpus())


@pytest.fixture(scope="session")
def atlas():
    """The 995 connected graphs with 2 <= n <= 7, analysed and checked once."""
    return corpus.analyze_corpus(corpus.build_atlas())


@pytest.fixture
def p31_passes(monkeypatch):
    """Every call of P31's stacked pass while the test runs, as ((nodes,
    weights, degrees, scale), result): a spy on ``theorems.top_q_lambda0``."""
    from spexcess import theorems
    calls, real = [], theorems.top_q_lambda0

    def spy(*args):
        calls.append((args, out := real(*args)))
        return out

    monkeypatch.setattr(theorems, "top_q_lambda0", spy)
    return calls
