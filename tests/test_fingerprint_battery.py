"""The runtime fingerprint battery (the FPR rules' dynamic twin).

For every entry in :mod:`repro.core.configregistry` this proves the
two halves of the serialization discipline end to end:

* **round trip** -- serialize -> JSON text -> deserialize is exact,
  and re-serializing yields byte-identical canonical JSON;
* **sensitivity** -- perturbing any single field (and, via
  Hypothesis, any random subset of fields) changes both the payload
  and the fingerprint, or the field carries a written exemption.

The stale-cache regressions at the bottom pin the concrete failure
the battery exists to prevent: an artifact stored under one config's
key must be a *miss* for any field-perturbed config.
"""

from __future__ import annotations

import dataclasses
import json

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.core.artifacts import ArtifactStore
from repro.core.configregistry import (
    RegisteredConfig,
    perturb_value,
    registered_config,
    registered_configs,
)
from repro.core.fingerprint import canonical_json
from repro.core.fleet.scenario import FleetScenario, fleet_fingerprint
from repro.core.scenario import EmergencyBrakeScenario
from repro.faults.plan import FaultPlan
from repro.vary.space import (
    BooleanAxis,
    CategoricalAxis,
    Constraint,
    ContinuousAxis,
    IntAxis,
    VariationSpec,
)

CONFIGS = {entry.name: entry for entry in registered_configs()}

#: Every (config, field) the per-field sweep must cover.
FIELD_PAIRS = [(name, field)
               for name in sorted(CONFIGS)
               for field in CONFIGS[name].perturbable_fields()]


def _apply(entry: RegisteredConfig, instance, field):
    """One field's registered (or generic) perturbation."""
    if field in entry.alternatives:
        value = entry.alternatives[field]
    else:
        value = perturb_value(getattr(entry.example, field))
    return dataclasses.replace(instance, **{field: value})


class TestCatalogue:
    def test_covers_every_fingerprinted_config_class(self):
        classes = {entry.cls for entry in registered_configs()}
        for cls in (EmergencyBrakeScenario, FleetScenario,
                    FaultPlan, VariationSpec, ContinuousAxis,
                    IntAxis, CategoricalAxis, BooleanAxis,
                    Constraint):
            assert cls in classes

    def test_every_entry_is_a_frozen_dataclass(self):
        for entry in registered_configs():
            assert dataclasses.is_dataclass(entry.cls)
            assert entry.cls.__dataclass_params__.frozen
            assert isinstance(entry.example, entry.cls)

    def test_names_are_unique_and_lookup_works(self):
        names = [entry.name for entry in registered_configs()]
        assert len(names) == len(set(names))
        assert registered_config("fleet-scenario").cls is \
            FleetScenario
        with pytest.raises(KeyError):
            registered_config("no-such-config")

    def test_skip_and_exempt_reasons_are_written_down(self):
        for entry in registered_configs():
            fields = set(entry.field_names())
            for mapping in (entry.skip_fields,
                            entry.fingerprint_exempt):
                for field, reason in mapping.items():
                    assert field in fields
                    assert reason.strip()

    def test_constraint_shapes_jointly_cover_all_fields(self):
        literal = registered_config("constraint-literal")
        axis = registered_config("constraint-axis")
        covered = set(literal.perturbable_fields()) | \
            set(axis.perturbable_fields())
        assert covered == set(literal.field_names())


class TestRoundTrip:
    @pytest.mark.parametrize("name", sorted(CONFIGS))
    def test_json_text_round_trip_is_exact(self, name):
        entry = CONFIGS[name]
        payload = entry.serialize(entry.example)
        wire = json.loads(json.dumps(payload))
        rebuilt = entry.deserialize(wire)
        assert rebuilt == entry.example
        assert entry.serialize(rebuilt) == payload
        assert canonical_json(entry.serialize(rebuilt)) == \
            canonical_json(payload)

    @pytest.mark.parametrize("name", sorted(CONFIGS))
    def test_fingerprint_is_stable_across_the_round_trip(self, name):
        entry = CONFIGS[name]
        wire = json.loads(json.dumps(entry.serialize(entry.example)))
        rebuilt = entry.deserialize(wire)
        assert entry.fingerprint(rebuilt) == \
            entry.fingerprint(entry.example)


class TestPerFieldSensitivity:
    @pytest.mark.parametrize(("name", "field"), FIELD_PAIRS)
    def test_field_perturbs_payload_and_fingerprint(self, name,
                                                    field):
        entry = CONFIGS[name]
        perturbed = entry.perturbed(field)
        assert perturbed != entry.example
        assert entry.serialize(perturbed) != \
            entry.serialize(entry.example)
        if field in entry.fingerprint_exempt:
            assert entry.fingerprint_exempt[field].strip()
        else:
            assert entry.fingerprint(perturbed) != \
                entry.fingerprint(entry.example)

    @pytest.mark.parametrize(("name", "field"), FIELD_PAIRS)
    def test_perturbed_instance_still_round_trips(self, name,
                                                  field):
        entry = CONFIGS[name]
        perturbed = entry.perturbed(field)
        wire = json.loads(json.dumps(entry.serialize(perturbed)))
        assert entry.deserialize(wire) == perturbed


class TestSubsetSensitivity:
    @pytest.mark.parametrize("name", sorted(CONFIGS))
    @settings(max_examples=20, deadline=None,
              suppress_health_check=[HealthCheck.too_slow])
    @given(data=st.data())
    def test_any_field_subset_moves_the_fingerprint(self, name,
                                                    data):
        entry = CONFIGS[name]
        fields = [field for field in entry.perturbable_fields()
                  if field not in entry.fingerprint_exempt]
        subset = data.draw(st.sets(st.sampled_from(fields),
                                   min_size=1))
        changed = entry.example
        for field in sorted(subset):
            changed = _apply(entry, changed, field)
        assert entry.fingerprint(changed) != \
            entry.fingerprint(entry.example)
        wire = json.loads(json.dumps(entry.serialize(changed)))
        assert entry.deserialize(wire) == changed


class TestPerturbValue:
    def test_scalars(self):
        assert perturb_value(True) is False
        assert perturb_value(3) == 4
        assert perturb_value(1.5) == 2.5
        assert perturb_value(float("inf")) == 1.0
        assert perturb_value("x") == "x-alt"

    def test_containers_and_dataclasses(self):
        assert perturb_value((1, 2)) == (1, 2, 2)
        assert perturb_value({"a": 1}) == {"a": 1, "zz_alt": 1}
        spec = ContinuousAxis("speed", 0.5, 2.0)
        assert perturb_value(spec) != spec

    def test_unperturbable_values_demand_an_alternative(self):
        with pytest.raises(ValueError):
            perturb_value(())
        with pytest.raises(ValueError):
            perturb_value(None)


class TestStaleCacheRegressions:
    """An artifact stored under one key must miss for any other."""

    def test_field_change_is_a_store_miss(self, tmp_path):
        store = ArtifactStore(str(tmp_path / "store"))
        scenario = FleetScenario()
        store.put(fleet_fingerprint(scenario), {"kind": "fleet",
                                                "run": {"ok": 1}})
        changed = dataclasses.replace(scenario, cam_rate_hz=5.0)
        assert store.get(fleet_fingerprint(scenario)) is not None
        assert store.get(fleet_fingerprint(changed)) is None

    def test_every_registered_perturbation_is_a_store_miss(
            self, tmp_path):
        store = ArtifactStore(str(tmp_path / "store"))
        for entry in registered_configs():
            key = entry.fingerprint(entry.example)
            store.put(key, {"config": entry.name})
            for field in entry.perturbable_fields():
                if field in entry.fingerprint_exempt:
                    continue
                other = entry.fingerprint(entry.perturbed(field))
                assert store.get(other) is None, \
                    (entry.name, field)

    def test_fleet_payload_is_a_json_fixed_point(self):
        # to_dict emits the threshold tuple as a list, so the payload
        # hashes identically before and after a JSON round trip.
        payload = FleetScenario().to_dict()
        assert payload == json.loads(json.dumps(payload))

    def test_fleet_thresholds_normalise_to_tuple(self):
        built = FleetScenario(dcc_thresholds=[0.03, 0.06, 0.10,
                                              0.15])
        assert built == FleetScenario()
        assert hash(built) == hash(FleetScenario())

    def test_fleet_from_dict_rejects_partial_payloads(self):
        payload = FleetScenario().to_dict()
        del payload["cam_rate_hz"]
        with pytest.raises(ValueError, match="missing field"):
            FleetScenario.from_dict(payload)
        payload = FleetScenario().to_dict()
        payload["extra_knob"] = 1
        with pytest.raises(ValueError, match="unknown"):
            FleetScenario.from_dict(payload)

    def test_variation_spec_without_format_tag_is_rejected(self):
        payload = CONFIGS["variation-spec"].example.to_dict()
        del payload["format"]
        with pytest.raises(ValueError, match="format"):
            VariationSpec.from_dict(payload)

    def test_fault_plan_rejects_unknown_keys(self):
        payload = CONFIGS["fault-plan"].example.to_dict()
        payload["notes"] = "stale"
        with pytest.raises(ValueError, match="unknown"):
            FaultPlan.from_dict(payload)
