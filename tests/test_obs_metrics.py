"""Unit tests for the metrics registry (repro.obs.metrics).

Covers the three metric kinds' semantics, registry identity (name +
labels, kind clashes), exact serialisation round-trips and the
Prometheus text exposition.  The merge-exactness *properties* live in
``tests/test_obs_properties.py``.
"""

import math
from fractions import Fraction

import pytest

from repro.obs import (
    Counter,
    DEFAULT_BUCKETS,
    Gauge,
    Histogram,
    MetricsRegistry,
)


class TestCounter:
    def test_starts_at_zero_and_accumulates(self):
        counter = Counter()
        assert counter.value == 0.0
        counter.inc()
        counter.inc(2)
        assert counter.value == 3.0

    def test_rejects_negative_increment(self):
        with pytest.raises(ValueError, match=">= 0"):
            Counter().inc(-1)

    def test_rejects_float_increment(self):
        counter = Counter()
        with pytest.raises(TypeError):
            counter.inc(2.5)
        with pytest.raises(TypeError):
            counter.inc(-1.0)
        assert counter.value == 0.0

    def test_from_dict_rejects_non_integral_value(self):
        with pytest.raises(ValueError, match="integral"):
            Counter.from_dict({"value": 2.5})
        with pytest.raises(ValueError, match="integral"):
            Counter.from_dict({"value": float("nan")})

    def test_merge_adds(self):
        a, b = Counter(), Counter()
        a.inc(3)
        b.inc(4)
        a.merge(b)
        assert a.value == 7.0

    def test_round_trip(self):
        counter = Counter()
        counter.inc(11)
        assert Counter.from_dict(counter.to_dict()).value == 11.0


class TestGauge:
    def test_set_and_adjust(self):
        gauge = Gauge()
        gauge.set(5.0)
        gauge.inc(2.0)
        gauge.dec(1.0)
        assert gauge.value == 6.0

    def test_merge_keeps_explicitly_set_other(self):
        a, b = Gauge(), Gauge()
        a.set(1.0)
        b.set(9.0)
        a.merge(b)
        assert a.value == 9.0

    def test_merge_ignores_untouched_other(self):
        a, b = Gauge(), Gauge()
        a.set(1.0)
        a.merge(b)  # b was never set: last *written* value wins
        assert a.value == 1.0


class TestHistogram:
    def test_rejects_bad_buckets(self):
        with pytest.raises(ValueError):
            Histogram(())
        with pytest.raises(ValueError, match="strictly increasing"):
            Histogram((1.0, 1.0))
        with pytest.raises(ValueError, match="strictly increasing"):
            Histogram((2.0, 1.0))
        with pytest.raises(ValueError, match="finite"):
            Histogram((1.0, float("inf")))

    def test_rejects_nan_observation(self):
        with pytest.raises(ValueError, match="NaN"):
            Histogram().observe(float("nan"))

    def test_bucket_placement_upper_bound_inclusive(self):
        histogram = Histogram((1.0, 2.0))
        histogram.observe(1.0)   # on the bound -> that bucket
        histogram.observe(1.5)
        histogram.observe(99.0)  # overflow bucket
        assert histogram.bucket_counts == [1, 1, 1]
        assert histogram.count == 3

    def test_exact_sum_and_mean(self):
        histogram = Histogram((10.0,))
        histogram.observe(0.1)
        histogram.observe(0.2)
        # 0.1 + 0.2 != 0.3 in floats; the Fraction sum is exact.
        assert histogram._sum == Fraction(0.1) + Fraction(0.2)
        assert histogram.mean() == float(
            (Fraction(0.1) + Fraction(0.2)) / 2)

    def test_empty_mean_and_quantile_are_nan(self):
        histogram = Histogram()
        assert math.isnan(histogram.mean())
        assert math.isnan(histogram.quantile(0.5))

    def test_quantile_interpolates_and_clamps(self):
        histogram = Histogram((10.0, 20.0))
        for _ in range(10):
            histogram.observe(5.0)
        # All mass in [0, 10]: the median interpolates inside it.
        assert 0.0 <= histogram.quantile(0.5) <= 10.0
        histogram.observe(1000.0)  # overflow
        # Quantiles never exceed the highest finite bound.
        assert histogram.quantile(1.0) == 20.0

    def test_merge_requires_same_buckets(self):
        with pytest.raises(ValueError, match="different buckets"):
            Histogram((1.0,)).merge(Histogram((2.0,)))

    def test_round_trip_is_exact(self):
        histogram = Histogram()
        for value in (0.1, 0.2, 7.0, 5000.0):
            histogram.observe(value)
        clone = Histogram.from_dict(histogram.to_dict())
        assert clone.to_dict() == histogram.to_dict()
        assert clone._sum == histogram._sum
        assert clone.bounds == DEFAULT_BUCKETS


class TestMetricsRegistry:
    def test_identity_is_name_plus_labels(self):
        registry = MetricsRegistry()
        registry.counter("phy.frames_sent", device="obu").inc()
        registry.counter("phy.frames_sent", device="rsu").inc(2)
        assert registry.counter("phy.frames_sent",
                                device="obu").value == 1.0
        assert registry.counter("phy.frames_sent",
                                device="rsu").value == 2.0
        assert len(registry) == 2

    def test_kind_clash_rejected(self):
        registry = MetricsRegistry()
        registry.counter("x")
        with pytest.raises(ValueError, match="already registered"):
            registry.gauge("x")

    def test_merge_folds_every_metric(self):
        a, b = MetricsRegistry(), MetricsRegistry()
        a.counter("c").inc(1)
        b.counter("c").inc(2)
        b.gauge("g", device="obu").set(4.0)
        b.histogram("h").observe(0.5)
        a.merge(b)
        assert a.counter("c").value == 3.0
        assert a.gauge("g", device="obu").value == 4.0
        assert a.histogram("h").count == 1

    def test_dict_round_trip(self):
        registry = MetricsRegistry()
        registry.counter("phy.frames_sent", device="obu").inc(3)
        registry.gauge("dcc.state", device="rsu").set(2.0)
        registry.histogram("mac.access_delay_ms").observe(0.13)
        clone = MetricsRegistry.from_dict(registry.to_dict())
        assert clone.to_dict() == registry.to_dict()

    def test_prometheus_text(self):
        registry = MetricsRegistry()
        registry.counter("phy.frames_sent", device="obu").inc(3)
        registry.histogram("mac.access_delay_ms",
                           buckets=(1.0, 10.0)).observe(0.5)
        text = registry.to_prometheus_text()
        assert "# TYPE repro_phy_frames_sent counter" in text
        assert 'repro_phy_frames_sent{device="obu"} 3.0' in text
        assert "# TYPE repro_mac_access_delay_ms histogram" in text
        assert 'repro_mac_access_delay_ms_bucket{le="1.0"} 1' in text
        assert 'repro_mac_access_delay_ms_bucket{le="+Inf"} 1' in text
        assert "repro_mac_access_delay_ms_count 1" in text
        assert text.endswith("\n")
