"""The remainder table's oracle-limited rule, on estimates with known
stderr and errors."""
from types import SimpleNamespace

import numpy as np
import pytest

from fastswitch import analysis
from fastswitch.oracle import OracleEstimate

EPSILONS = (0.2, 0.1, 0.05)
STDERR = {0.2: 0.0, 0.1: 1e-4, 0.05: 2e-3}      # noise floors 0, 4e-4, 8e-3
# sup error of truncation order N at each eps: N = 0 follows eps^2 down to a
# floor of 5e-3 at eps 0.05; N = 1 is above its noise floor only at eps 0.2
ERRORS = {0.2: (4e-2, 8e-3), 0.1: (1e-2, 3e-4), 0.05: (5e-3, 2e-4)}


class FakeExpansion:
    order = 1

    def evaluate(self, eps, t, order):
        return np.full((1, 2), ERRORS[eps][order])


def _estimates(cfg, eps):
    # the largest stderr of the estimate sets its rows' noise floor
    stderr = np.array([[STDERR[eps] / 2, STDERR[eps]]])
    return [OracleEstimate(values=np.zeros((1, 2)), stderr=stderr, eps=eps, t=0.5,
                           u_indices=np.arange(2))]


@pytest.fixture
def doc(monkeypatch):
    monkeypatch.setattr(analysis, "_oracle_estimates", _estimates)
    return analysis.remainder_compare(FakeExpansion(), SimpleNamespace(epsilons=EPSILONS))


def test_rows_below_four_stderr_are_limited(doc):
    rows = {(r["eps"], r["order"]): r for r in doc["rows"]}
    assert len(rows) == 6
    for (eps, order), row in rows.items():
        assert row["error"] == ERRORS[eps][order]
        assert row["noise_floor"] == 4.0 * STDERR[eps]
        assert row["noise_limited"] == (row["error"] < 4.0 * STDERR[eps])
    assert [eps for (eps, order), row in sorted(rows.items()) if row["noise_limited"]] == \
        [0.05, 0.05, 0.1]


def test_zero_stderr_never_limits(doc):
    assert not any(r["noise_limited"] for r in doc["rows"] if r["eps"] == 0.2)


def test_limited_rows_left_out_of_the_slope_fit(doc):
    slopes = {s["order"]: s for s in doc["slopes"]}
    # eps 0.05's floor would pull the fit below 2 if it were kept
    assert slopes[0]["slope"] == pytest.approx(2.0, abs=1e-12)
    assert slopes[0]["status"] == "ok"


def test_cell_with_one_point_is_oracle_limited(doc):
    slopes = {s["order"]: s for s in doc["slopes"]}
    assert slopes[1]["slope"] is None
    assert slopes[1]["status"] == "oracle-limited"
    assert set(slopes[1]) == {"order", "t", "slope", "status"}
