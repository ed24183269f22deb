"""The declarative component registry: every toggleable subsystem is
listed with a toggle, a contract, and the metrics it should move."""

import pytest

from repro.experiments import ablations2 as ab

EXPECTED_NAMES = {
    "fastpath", "snapshot_cache", "tracing", "revocation",
    "circuit_breaker", "admission_control", "retry_budget",
}


class TestRegistry:
    def test_every_component_is_registered(self):
        assert {c.name for c in ab.COMPONENTS} == EXPECTED_NAMES

    def test_lookup_by_name(self):
        assert ab.component("fastpath").knob == "REPRO_FASTPATH"
        with pytest.raises(KeyError):
            ab.component("warp_drive")

    def test_contracts_are_known_kinds(self):
        for comp in ab.COMPONENTS:
            assert comp.contract in (ab.BIT_IDENTICAL,
                                     ab.STATISTICALLY_EQUIVALENT)

    def test_only_fastpath_relaxes_bit_identity(self):
        relaxed = [c.name for c in ab.COMPONENTS
                   if c.contract == ab.STATISTICALLY_EQUIVALENT]
        assert relaxed == ["fastpath"]

    def test_batteries_are_known(self):
        for comp in ab.COMPONENTS:
            assert comp.battery in (ab.FIGURE3, ab.RESILIENCE,
                                    ab.OVERLOAD)

    def test_every_component_declares_metrics(self):
        for comp in ab.COMPONENTS:
            assert comp.metrics, comp.name

    def test_every_component_has_an_evidence_probe(self):
        assert set(ab.EVIDENCE_PROBES) == EXPECTED_NAMES

    def test_tracing_is_the_only_kwarg_toggle(self):
        knobless = [c.name for c in ab.COMPONENTS if c.knob is None]
        assert knobless == ["tracing"]

    def test_ablated_state_flips_the_default(self):
        assert ab.component("tracing").default_on is False
        assert ab.component("tracing").ablated_state is True
        assert ab.component("fastpath").ablated_state is False

    def test_failure_components_pin_revocation_off(self):
        """With dissemination on, failures never reach the proxy; the
        breaker measures under discovery-led recovery or it would
        always score zero."""
        context = dict(ab.component("circuit_breaker").context)
        assert context == {"REPRO_REVOCATION": False}

    def test_contexts_never_touch_the_component_itself(self):
        for comp in ab.COMPONENTS:
            assert comp.knob not in dict(comp.context)


class TestDefaultKnobStates:
    def test_covers_every_env_knob(self):
        states = ab.default_knob_states()
        assert len(states) == len(EXPECTED_NAMES) - 1  # tracing: no knob
        assert all(value is True for value in states.values())

    def test_respects_a_subset(self):
        subset = (ab.component("fastpath"), ab.component("tracing"))
        assert ab.default_knob_states(subset) == {"REPRO_FASTPATH": True}


class TestBatteryLabel:
    def test_plain_battery(self):
        assert ab.battery_label(ab.FIGURE3) == "figure3"

    def test_context_pins_are_spelled_out(self):
        label = ab.battery_label(
            ab.RESILIENCE, (("REPRO_REVOCATION", False),))
        assert label == "resilience(REPRO_REVOCATION=0)"
