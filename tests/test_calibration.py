"""Shape calibration against the paper's published results.

Each test pins one qualitative claim from the evaluation section to a
tolerance band (DESIGN.md section 4).  Absolute testbed numbers are
not expected to match — our substrate is a simulator — but who wins,
by roughly what factor, and where the crossovers fall must hold.
"""

import pytest

from repro.network import GM_MARENOSTRUM, LAPI_POWER5
from repro.util.stats import improvement_pct
from repro.workloads.micro import (
    FIG7_SIZES,
    MicroParams,
    get_roundtrip_us,
    put_overhead_us,
)

REPS = 8


def micro_improvement(fn, machine, size):
    z = fn(MicroParams(machine=machine, msg_bytes=size,
                       cache_enabled=False, reps=REPS))
    w = fn(MicroParams(machine=machine, msg_bytes=size,
                       cache_enabled=True, reps=REPS))
    return improvement_pct(z, w)


# ---------------------------------------------------------------- Figure 6

def test_fig6_get_small_gm_band():
    # "the gains in GET roundtrip latency ... are in 30% ... range for GM"
    imp = micro_improvement(get_roundtrip_us, GM_MARENOSTRUM, 16)
    assert 25.0 <= imp <= 40.0


def test_fig6_get_small_lapi_band():
    # "... and 16% range ... for LAPI"
    imp = micro_improvement(get_roundtrip_us, LAPI_POWER5, 16)
    assert 10.0 <= imp <= 24.0


def test_fig6_get_medium_peak():
    # "For medium message size range messages (1 KByte to 16 KByte)
    # there are even larger gains (around 40%)".
    for machine in (GM_MARENOSTRUM, LAPI_POWER5):
        small = micro_improvement(get_roundtrip_us, machine, 16)
        medium = max(micro_improvement(get_roundtrip_us, machine, s)
                     for s in (4096, 16384, 65536))
        assert medium > small
        assert medium >= 28.0


def test_fig6_get_gain_vanishes_for_huge_messages():
    # "differences ... diminish as message size increases and
    # communication becomes bandwidth dominated".
    for machine in (GM_MARENOSTRUM, LAPI_POWER5):
        imp = micro_improvement(get_roundtrip_us, machine, 4 * 1024 * 1024)
        assert abs(imp) < 5.0


def test_fig6_get_lapi_gain_persists_longer_than_gm():
    # "The gain is more visible on LAPI, fadding out at 2 MByte, than
    # on Myrinet because the rated bandwidth of the HPS switch is 8x".
    gm = micro_improvement(get_roundtrip_us, GM_MARENOSTRUM, 262144)
    lapi = micro_improvement(get_roundtrip_us, LAPI_POWER5, 262144)
    assert lapi > gm + 15.0


def test_fig6_put_gm_small_no_benefit():
    # "in GM we do not see any benefit of using the address cache for
    # small message transfers, up to 2 KBytes".
    for size in (16, 256, 1024, 2048):
        imp = micro_improvement(put_overhead_us, GM_MARENOSTRUM, size)
        assert abs(imp) < 15.0
    # ...and gains in the mid-size range, from copy avoidance.
    assert micro_improvement(put_overhead_us, GM_MARENOSTRUM, 16384) > 10.0


def test_fig6_put_lapi_regression_up_to_200pct():
    # "a net decrease in performance of up to 200% by using the
    # address cache" (the reason RDMA PUT got disabled on LAPI).
    imp = micro_improvement(put_overhead_us, LAPI_POWER5, 16)
    assert -300.0 <= imp <= -120.0


def test_fig6_put_lapi_crossover_positive_for_large():
    imp = micro_improvement(put_overhead_us, LAPI_POWER5, 262144)
    assert imp > 10.0


# ---------------------------------------------------------------- Figure 7

def test_fig7_absolute_latencies_in_paper_range():
    # GM ~19-20us uncached / ~13us cached at tiny sizes; LAPI ~10-12 /
    # ~9-10 (Figure 7's y-axes: 0-70us GM, 0-35us LAPI).
    z = get_roundtrip_us(MicroParams(machine=GM_MARENOSTRUM, msg_bytes=1,
                                     cache_enabled=False, reps=REPS))
    w = get_roundtrip_us(MicroParams(machine=GM_MARENOSTRUM, msg_bytes=1,
                                     cache_enabled=True, reps=REPS))
    assert 14.0 <= z <= 26.0
    assert 9.0 <= w <= 17.0
    z = get_roundtrip_us(MicroParams(machine=LAPI_POWER5, msg_bytes=1,
                                     cache_enabled=False, reps=REPS))
    w = get_roundtrip_us(MicroParams(machine=LAPI_POWER5, msg_bytes=1,
                                     cache_enabled=True, reps=REPS))
    assert 8.0 <= z <= 16.0
    assert 6.0 <= w <= 13.0
    # The 8 KB end of the axis: grown, and still on the paper's plot.
    for machine, ceiling in ((GM_MARENOSTRUM, 70.0), (LAPI_POWER5, 35.0)):
        tiny, big = (get_roundtrip_us(MicroParams(
            machine=machine, msg_bytes=size, cache_enabled=False,
            reps=REPS)) for size in (1, 8192))
        assert tiny < big <= ceiling


def test_fig7_cached_always_below_uncached_small_gets():
    for machine in (GM_MARENOSTRUM, LAPI_POWER5):
        for size in FIG7_SIZES:
            z = get_roundtrip_us(MicroParams(
                machine=machine, msg_bytes=size, cache_enabled=False,
                reps=REPS))
            w = get_roundtrip_us(MicroParams(
                machine=machine, msg_bytes=size, cache_enabled=True,
                reps=REPS))
            assert w < z


# ---------------------------------------------------------------- Figure 8

@pytest.fixture(scope="module")
def fig8_pointer():
    from repro.experiments import fig8
    return fig8("pointer", scales=[(8, 2), (32, 8), (128, 32)], seed=1)


@pytest.fixture(scope="module")
def fig8_neighborhood():
    from repro.experiments import fig8
    return fig8("neighborhood", scales=[(8, 2), (32, 8), (128, 32)],
                seed=1)


def test_fig8a_hit_rate_degrades_with_scale(fig8_pointer):
    # "Figure 8 (a) shows for Pointer hit ratio degradation as we
    # scale, with a prompt starting point as cache size is reduced."
    for cap in (4, 10, 100):
        series = fig8_pointer.series(f"hit_cap{cap}")
        assert series[0] > series[-1]
    # Small caches collapse first.
    assert fig8_pointer.series("hit_cap4")[-1] \
        < fig8_pointer.series("hit_cap10")[-1] \
        < fig8_pointer.series("hit_cap100")[-1]


def test_fig8b_hit_rate_flat_for_neighborhood(fig8_neighborhood):
    # "only a few cache entries are used and the hit ratio keeps
    # constant as we scale" — and it is insensitive to capacity.
    for cap in (4, 10, 100):
        series = fig8_neighborhood.series(f"hit_cap{cap}")
        assert min(series) > 0.85
        assert max(series) - min(series) < 0.08


# ---------------------------------------------------------------- Figure 9

@pytest.fixture(scope="module")
def fig9_gm():
    from repro.experiments import fig9
    return fig9("gm", scales=[(16, 4), (64, 16)], seeds=(1, 2))


@pytest.fixture(scope="module")
def fig9_lapi():
    from repro.experiments import fig9
    return fig9("lapi", scales=[(64, 4), (256, 16)], seeds=(1, 2))


def test_fig9a_pointer_band(fig9_gm):
    # "The Pointer Stressmark shows good performance, between 30% and
    # 60% improvement".
    for v in fig9_gm.series("pointer"):
        assert 25.0 <= v <= 62.0


def test_fig9a_update_band(fig9_gm):
    # "The Update Stressmark shows a 11% to 22% performance
    # improvement" (we allow a slightly wider band).
    for v in fig9_gm.series("update"):
        assert 9.0 <= v <= 28.0


def test_fig9a_neighborhood_band(fig9_gm):
    # "The Neighborhood Stressmark shows 10% to 20% improvement."
    for v in fig9_gm.series("neighborhood"):
        assert 8.0 <= v <= 25.0


def test_fig9a_field_gains_substantially(fig9_gm):
    # Paper: 35-40%.  Our conservative progress model (a blocked
    # requester polls and can service its node) reproduces the effect
    # directionally at 12-25%; see EXPERIMENTS.md for the discussion.
    for v in fig9_gm.series("field"):
        assert v >= 10.0


def test_fig9b_field_not_measurable_on_lapi(fig9_lapi):
    # "the effects of the address cache are not measurable" (4.7).
    for v in fig9_lapi.series("field"):
        assert abs(v) < 8.0


def test_fig9b_other_stressmarks_comparable_to_gm(fig9_lapi):
    # "The Pointer, Update and Neighborhood Stressmarks show results
    # comparable to the measurements on MareNostrum."
    assert all(20.0 <= v <= 60.0 for v in fig9_lapi.series("pointer"))
    assert all(5.0 <= v <= 28.0 for v in fig9_lapi.series("update"))
    assert all(5.0 <= v <= 25.0 for v in fig9_lapi.series("neighborhood"))


def test_field_asymmetry_gm_vs_lapi(fig9_gm, fig9_lapi):
    # The central section 4.6-vs-4.7 contrast.
    gm_field = min(fig9_gm.series("field"))
    lapi_field = max(abs(v) for v in fig9_lapi.series("field"))
    assert gm_field > 2 * lapi_field


# ---------------------------------------------------------------- Section 6

def test_miss_overhead_below_2pct():
    # "The overhead of unsuccessful attempts to cache remote addresses
    # is relatively small, typically 1.5% and never worse than 2%."
    from repro.experiments import miss_overhead
    fig = miss_overhead(threads=32, nodes=8, seeds=(1, 2, 3, 4))
    overheads = fig.series("overhead_pct")
    assert max(overheads) <= 2.5
    assert sum(overheads) / len(overheads) <= 2.0   # "typically 1.5%"
