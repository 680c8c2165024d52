"""Property tests for the metric invariants (repro.obs.metrics).

The campaign aggregate folds per-run registries in whatever order the
engine streams them back; the fold is only order-independent if the
histogram merge is exactly associative and commutative.  These
properties, plus count/sum conservation and quantile monotonicity,
are the contract pinned here with hypothesis.  The integer counter is
checked differentially against the exact-rational counter it
replaced, which is kept here as the reference.
"""

import json
from fractions import Fraction

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.obs import Counter, Histogram, MetricsRegistry

#: Non-negative finite observations (durations, sizes).
observations = st.lists(
    st.floats(min_value=0.0, max_value=1e9,
              allow_nan=False, allow_infinity=False),
    max_size=50)

#: Strictly increasing positive bucket bounds.
bucket_bounds = st.lists(
    st.floats(min_value=1e-6, max_value=1e6,
              allow_nan=False, allow_infinity=False),
    min_size=1, max_size=8, unique=True,
).map(lambda bounds: tuple(sorted(bounds)))


def _filled(values):
    histogram = Histogram()
    for value in values:
        histogram.observe(value)
    return histogram


def _state(histogram):
    """The complete observable state, bit for bit."""
    return (histogram.bounds, tuple(histogram.bucket_counts),
            histogram.count, histogram._sum)


@settings(deadline=None, max_examples=60)
@given(observations, observations)
def test_merge_commutative(values_a, values_b):
    ab = _filled(values_a)
    ab.merge(_filled(values_b))
    ba = _filled(values_b)
    ba.merge(_filled(values_a))
    assert _state(ab) == _state(ba)


@settings(deadline=None, max_examples=60)
@given(observations, observations, observations)
def test_merge_associative(values_a, values_b, values_c):
    left = _filled(values_a)
    left.merge(_filled(values_b))
    left.merge(_filled(values_c))

    bc = _filled(values_b)
    bc.merge(_filled(values_c))
    right = _filled(values_a)
    right.merge(bc)

    assert _state(left) == _state(right)


@settings(deadline=None, max_examples=60)
@given(st.lists(observations, max_size=6))
def test_merge_conserves_count_and_sum(populations):
    merged = Histogram()
    for values in populations:
        merged.merge(_filled(values))
    flat = [value for values in populations for value in values]
    assert merged.count == len(flat)
    assert merged._sum == sum((Fraction(v) for v in flat), Fraction(0))
    assert sum(merged.bucket_counts) == len(flat)


@settings(deadline=None, max_examples=60)
@given(observations.filter(bool), bucket_bounds,
       st.lists(st.floats(min_value=0.0, max_value=1.0), min_size=2,
                max_size=10))
def test_quantile_monotone_in_q(values, bounds, qs):
    histogram = Histogram(bounds)
    for value in values:
        histogram.observe(value)
    estimates = [histogram.quantile(q) for q in sorted(qs)]
    assert all(b >= a for a, b in zip(estimates, estimates[1:]))


@settings(deadline=None, max_examples=30)
@given(observations, observations)
def test_registry_merge_commutative(values_a, values_b):
    def registry(values):
        reg = MetricsRegistry()
        for value in values:
            reg.counter("events").inc()
            reg.histogram("latency").observe(value)
        return reg

    ab = registry(values_a)
    ab.merge(registry(values_b))
    ba = registry(values_b)
    ba.merge(registry(values_a))
    assert ab.to_dict() == ba.to_dict()


class _FractionCounter:
    """Reference: the counter as an exact rational accumulator."""

    def __init__(self):
        self._value = Fraction(0)

    @property
    def value(self):
        return float(self._value)

    def inc(self, amount=1.0):
        if amount < 0:
            raise ValueError(f"counter increment must be >= 0, "
                             f"got {amount}")
        self._value += Fraction(amount)

    def merge(self, other):
        self._value += other._value

    def to_dict(self):
        return {"value": self.value}


def _prometheus(counter):
    """The registry's exposition text for a single labelled counter."""
    registry = MetricsRegistry()
    registry._metrics[("events", (("device", "obu"),))] = counter
    registry._kinds["events"] = "counter"
    return registry.to_prometheus_text()


#: Non-negative increments, past 2**53 so the float export rounds.
increments = st.lists(st.integers(min_value=0, max_value=2 ** 64),
                      max_size=40)


@settings(deadline=None, max_examples=100)
@given(st.data(), increments, st.integers(min_value=1, max_value=5))
def test_int_counter_matches_fraction_reference(data, amounts, n_shards):
    assignment = data.draw(st.lists(
        st.integers(min_value=0, max_value=n_shards - 1),
        min_size=len(amounts), max_size=len(amounts)))
    order = data.draw(st.permutations(range(n_shards)))

    def fold(kind):
        shards = [kind() for _ in range(n_shards)]
        for amount, shard in zip(amounts, assignment):
            shards[shard].inc(amount)
        total = kind()
        for index in order:
            total.merge(shards[index])
        return total

    counter, reference = fold(Counter), fold(_FractionCounter)
    assert json.dumps(counter.to_dict()) == \
        json.dumps(reference.to_dict())
    assert _prometheus(counter) == _prometheus(reference)
