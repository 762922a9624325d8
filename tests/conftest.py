import tracemalloc

import pytest

import mapdefs
from intervaldyn import induction
from intervaldyn.classify import ClassifyConfig, classify_attractors


@pytest.fixture
def traced_peak():
    """`traced_peak(fn, *args)` calls fn and returns the peak of the memory
    that tracemalloc traces during the call."""
    def peak(fn, *args):
        tracemalloc.start()
        try:
            fn(*args)
            return tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
    return peak


@pytest.fixture
def tent():
    return mapdefs.tent()


@pytest.fixture
def doubling():
    return mapdefs.doubling()


@pytest.fixture
def logistic4():
    return mapdefs.logistic(4.0)


@pytest.fixture
def logistic32():
    return mapdefs.logistic(3.2)


@pytest.fixture
def feigenbaum():
    return mapdefs.logistic(mapdefs.FEIGENBAUM_A)


@pytest.fixture
def jump_map():
    return mapdefs.jump_contraction()


@pytest.fixture
def neutral_map():
    return mapdefs.neutral()


@pytest.fixture(scope="session")
def neutral_expansion():
    """Shared slow fixture: return map and expansion certificate of the
    almost-neutral fixture (the flank probing iterates a few million
    steps)."""
    m = mapdefs.neutral()
    ret = induction.first_return(m, (0.0, 1.0), 3)
    report = induction.expansion_analysis(ret, m)
    return m, ret, report


@pytest.fixture(scope="session")
def logistic4_classification():
    """Shared slow fixture: fully chaotic logistic classification.  The
    window must be long enough (20k) for single orbits to fill all ~1000
    histogram bins, else covers of the same attractor fail to cluster."""
    m = mapdefs.logistic(4.0)
    cfg = ClassifyConfig(samples=120, seed=11, length=20000)
    return m, cfg, classify_attractors(m, cfg)


@pytest.fixture(scope="session")
def feigenbaum_classification():
    """Shared slow fixture: classification at the period-doubling
    accumulation parameter (Cantor-type attractor)."""
    m = mapdefs.logistic(mapdefs.FEIGENBAUM_A)
    cfg = ClassifyConfig(samples=120, seed=3, length=20000)
    return m, cfg, classify_attractors(m, cfg)
