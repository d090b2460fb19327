"""Arena-backed analog readout: ownership and allocation bounds.

The analog route (drive masks → conductance GEMMs → IR drop → decode →
ADC → accumulate) runs in place on per-thread scratch-arena buffers.
Arena memory must never escape the public API: entry points without
``out=`` return fresh arrays, stage outputs are fresh arrays, and a
warm read-noise engine call stays within a bounded transient peak.
"""

import tracemalloc

import numpy as np

from repro.bayesian import BayesianCim, make_spatial_spindrop_cnn
from repro.cim import CimConfig, OpLedger, PopcountADC, XnorCrossbar
from repro.devices import (
    DefectModel,
    DefectRates,
    DeviceVariability,
    VariabilityParams,
)

RNG = np.random.default_rng(77)


def _binary(shape):
    w = np.sign(RNG.standard_normal(shape))
    w[w == 0] = 1.0
    return w


def _noisy_bar(rows, cols, seed=3, weights=None):
    bar = XnorCrossbar(
        rows, cols,
        variability=DeviceVariability(VariabilityParams(),
                                      rng=np.random.default_rng(seed)),
        wire_resistance=25.0)
    bar.program(_binary((rows, cols)) if weights is None else weights)
    return bar


def _drives(rows, batch):
    x = np.sign(RNG.standard_normal((rows, batch)))
    x[RNG.random((rows, batch)) < 0.3] = 0.0
    pos = (x > 0).astype(np.float64)
    neg = (x < 0).astype(np.float64)
    return pos, neg, pos.sum(axis=0) + neg.sum(axis=0)


class TestNoArenaEscape:
    def test_successive_mvm_cols_do_not_alias(self):
        bar = _noisy_bar(18, 5)
        pos, neg, n_active = _drives(18, 40)
        first = bar.mvm_cols(pos, neg, n_active)
        kept = first.copy()
        second = bar.mvm_cols(pos, neg, n_active)
        assert not np.shares_memory(first, second)
        np.testing.assert_array_equal(first, kept)
        assert not np.array_equal(first, second)    # fresh read noise

    def test_successive_matvec_do_not_alias(self):
        bar = _noisy_bar(12, 4)
        x = _binary((6, 12))
        first = bar.matvec(x)
        kept = first.copy()
        second = bar.matvec(x)
        assert not np.shares_memory(first, second)
        np.testing.assert_array_equal(first, kept)

    def test_out_receives_the_same_mac(self):
        """``out=`` (here a strided column tile) changes where the MAC
        lands, not a bit of it, nor the ledger."""
        pos, neg, n_active = _drives(10, 7)
        w = _binary((10, 3))
        a, b = _noisy_bar(10, 3, 9, w), _noisy_bar(10, 3, 9, w)
        fresh = a.mvm_prepared(pos.T, neg.T, n_active[:, None])
        tile = np.full((7, 8), -7.0)
        got = b.mvm_prepared(pos.T, neg.T, n_active[:, None],
                             out=tile[:, 2:5])
        assert np.shares_memory(got, tile)
        np.testing.assert_array_equal(tile[:, 2:5], fresh)
        assert (tile[:, :2] == -7.0).all() and (tile[:, 5:] == -7.0).all()
        assert a.ledger.as_dict() == b.ledger.as_dict()

    def test_adc_convert_out_and_fresh(self):
        adc = PopcountADC(bits=4, rows=9, ledger=OpLedger())
        values = RNG.uniform(-12, 12, size=(3, 5))
        before = values.copy()
        fresh = adc.convert(values)
        assert not np.shares_memory(fresh, values)
        np.testing.assert_array_equal(values, before)
        in_place = adc.convert(values, out=values)
        assert in_place is values
        np.testing.assert_array_equal(in_place, fresh)
        assert adc.ledger.as_dict()["adc_conversion"] == 2 * values.size

    def test_analog_conv_stage_outputs_are_fresh(self):
        engine = _read_noise_engine()
        conv = engine.network.mvm_layers()[0]
        x = RNG.standard_normal((2, 1, 16, 16))
        first = conv(x)
        kept = first.copy()
        second = conv(x)
        assert not np.shares_memory(first, second)
        np.testing.assert_array_equal(first, kept)


def _read_noise_engine():
    model = make_spatial_spindrop_cnn(1, 16, 10, p=0.25, widths=(8, 16),
                                      seed=0)
    config = CimConfig(
        seed=0,
        variability=DeviceVariability(VariabilityParams(),
                                      rng=np.random.default_rng(0)),
        defects=DefectModel(DefectRates(stuck_at_p=0.005, stuck_at_ap=0.005),
                            rng=np.random.default_rng(1)))
    return BayesianCim(model, config, seed=0)


class TestTransientPeak:
    # A warm call of this engine allocated a 554 KiB transient peak
    # when every pass's readout temporaries were fresh arrays, and
    # ~210 KiB with the arena-backed chain (NumPy 2.4).  The bound sits
    # between the two, so a temporary that escapes the arena again
    # fails it.
    BOUND_KIB = 320

    def test_warm_read_noise_call_peak_is_bounded(self):
        engine = _read_noise_engine()
        x = RNG.standard_normal((4, 1, 16, 16))
        for _ in range(2):
            engine.mc_forward_batched(x, n_samples=20)
        tracemalloc.start()
        try:
            base = tracemalloc.get_traced_memory()[0]
            tracemalloc.reset_peak()
            engine.mc_forward_batched(x, n_samples=20)
            peak = tracemalloc.get_traced_memory()[1] - base
        finally:
            tracemalloc.stop()
        assert peak < self.BOUND_KIB * 1024, f"peak {peak / 1024:.0f} KiB"
