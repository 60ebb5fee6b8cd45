import pytest

from perfbench import load
from perfbench.load import Phase


def test_window_qps_measures_each_window(monkeypatch):
    monkeypatch.setattr(load, "WINDOW_REQUESTS", 5)
    # 10 req/s for two seconds, then nothing, then 20 req/s; a 4 s phase.
    answered = [0.1 * step for step in range(1, 21)]
    answered += [3.0 + 0.05 * step for step in range(1, 21)]
    rates = Phase(answered=answered, started=0.0, ended=4.0).window_qps()
    assert len(rates) == 4
    assert rates[0] == pytest.approx(10.0)
    assert rates[1] == pytest.approx(10.0)
    assert rates[2] == 0.0
    # The window after a silent one runs from the last completion before it.
    assert rates[3] == pytest.approx(20 / 2.0)


def test_windows_hold_enough_requests(monkeypatch):
    monkeypatch.setattr(load, "WINDOW_REQUESTS", 10)
    answered = [0.1 * step for step in range(1, 41)]
    rates = Phase(answered=answered, started=0.0, ended=4.0).window_qps()
    assert rates == pytest.approx([10.0] * 4)
    monkeypatch.setattr(load, "WINDOW_REQUESTS", 20)
    rates = Phase(answered=answered, started=0.0, ended=4.0).window_qps()
    assert rates == pytest.approx([10.0] * 2)
