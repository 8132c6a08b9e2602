import pytest

from relspec import quad


@pytest.fixture
def quadratures(monkeypatch):
    """Every adaptive quadrature relspec runs while the test does, as its
    QuadratureResult in call order.

    Every quadrature ends in quad._adaptive, so the count does not depend
    on which module calls it or through which name.
    """
    results = []
    engine = quad._adaptive

    def counted(*args):
        results.append(engine(*args))
        return results[-1]

    monkeypatch.setattr(quad, "_adaptive", counted)
    return results
