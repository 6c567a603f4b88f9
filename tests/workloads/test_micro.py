"""Tests for the GET/PUT microbenchmarks.

Their Figure 6/7 claims (cached GET faster, the LAPI small-PUT
regression, GM small-PUT neutrality, the latency range) are checked
once, in tests/test_calibration.py."""

import pytest

from repro.network import GM_MARENOSTRUM
from repro.workloads.micro import (
    FIG6_SIZES,
    FIG7_SIZES,
    MicroParams,
    get_roundtrip_us,
)


def test_size_lists_match_paper_axes():
    assert FIG6_SIZES[0] == 1
    assert FIG6_SIZES[-1] == 4_194_304
    assert FIG7_SIZES[-1] == 8192


def test_params_validation():
    with pytest.raises(ValueError):
        MicroParams(machine=GM_MARENOSTRUM, msg_bytes=0, cache_enabled=True)
    with pytest.raises(ValueError):
        MicroParams(machine=GM_MARENOSTRUM, msg_bytes=8,
                    cache_enabled=True, reps=0)


def test_get_latency_deterministic():
    p = MicroParams(machine=GM_MARENOSTRUM, msg_bytes=64,
                    cache_enabled=True, reps=5)
    assert get_roundtrip_us(p) == get_roundtrip_us(p)


def test_get_latency_monotone_in_size():
    def lat(n):
        return get_roundtrip_us(MicroParams(
            machine=GM_MARENOSTRUM, msg_bytes=n, cache_enabled=False,
            reps=5))

    assert lat(16) <= lat(1024) <= lat(65536)
