"""``ops/util.py::submit_windowed``: a raw-task wave never has more
tasks in flight than its width, and results keep submission order."""

import functools
import time

import pytest
import ray

from no_fasel_scrapers_ray.ops import util


@ray.remote(num_cpus=0)
class Gauge:
    """Counts the tasks inside ``_probe`` right now and the peak."""

    def __init__(self):
        self.now = self.peak = 0

    def enter(self):
        self.now += 1
        self.peak = max(self.peak, self.now)

    def leave(self):
        self.now -= 1

    def get_peak(self):
        return self.peak


@ray.remote
def _probe(gauge, i, hold):
    ray.get(gauge.enter.remote())
    time.sleep(hold)
    ray.get(gauge.leave.remote())
    return i


@ray.remote(num_returns=2)
def _pair(gauge, i):
    ray.get(gauge.enter.remote())
    time.sleep(0.05)
    ray.get(gauge.leave.remote())
    return i, -i


@pytest.fixture
def view(monkeypatch):
    """Pin the free-CPU reading the helper sees, with no earlier wave
    recent enough to carry its width over."""
    monkeypatch.setattr(util, "_last_wave",
                        {"width": 0, "end": float("-inf")})

    def set_cpus(cpus):
        monkeypatch.setattr(ray, "available_resources",
                            lambda: {"CPU": cpus})
    return set_cpus


def test_results_in_submission_order(view):
    view(3.0)
    g = Gauge.remote()
    # later tasks finish first
    refs = util.submit_windowed(
        functools.partial(_probe.remote, g, i, 0.01 * (8 - i))
        for i in range(8))
    assert ray.get(refs) == list(range(8))


@pytest.mark.parametrize("cpus,width", [(0.0, 1), (1.75, 1), (2.0, 2),
                                        (3.0, 3)])
def test_in_flight_never_exceeds_width(view, cpus, width):
    view(cpus)
    g = Gauge.remote()
    refs = util.submit_windowed(
        functools.partial(_probe.remote, g, i, 0.05) for i in range(10))
    # every task has finished when the helper returns
    assert ray.wait(refs, num_returns=len(refs), timeout=0)[1] == []
    assert 1 <= ray.get(g.get_peak.remote()) <= width
    assert util._last_wave["width"] == width


def test_back_to_back_wave_keeps_width(view):
    """Ray's view still counts a just-finished wave's slots as taken;
    the next wave keeps the previous width instead of reading 0."""
    view(3.0)
    g = Gauge.remote()
    util.submit_windowed(
        functools.partial(_probe.remote, g, i, 0.01) for i in range(4))
    view(0.0)
    util.submit_windowed(
        functools.partial(_probe.remote, g, i, 0.01) for i in range(4))
    assert util._last_wave["width"] == 3


def test_num_returns_waits_on_first_ref(view):
    view(2.0)
    g = Gauge.remote()
    out = util.submit_windowed(
        functools.partial(_pair.remote, g, i) for i in range(6))
    assert all(isinstance(r, list) and len(r) == 2 for r in out)
    assert [ray.get(r) for r in out] == [[i, -i] for i in range(6)]
    assert ray.get(g.get_peak.remote()) <= 2


def test_empty_wave():
    assert util.submit_windowed([]) == []
