"""Table 1 reproduction: the property × layer decision matrix.

The "measurement" here is structural: the decision model in
:mod:`repro.core.properties` derives each cell from per-property
attributes, and this module renders the table and checks the paper's
textual claims against it (the extraction's glyph alignment was garbled,
so the prose is the ground truth — see the module docstring of
``repro.core.properties``).
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.core.properties import (
    Layer,
    Property,
    PropertyClass,
    Suitability,
    decision_table,
    render_table,
    suitability,
)
from repro.experiments.harness import Battery, serial


@dataclass
class Table1Check:
    """One verifiable claim from the paper's §2 prose."""

    claim: str
    holds: bool


@dataclass
class Table1Result:
    """The rendered table plus per-claim verification."""

    table_text: str
    checks: list[Table1Check] = field(default_factory=list)

    @property
    def all_hold(self) -> bool:
        """True when every prose claim is satisfied by the model."""
        return all(check.holds for check in self.checks)

    def render(self) -> str:
        """Table plus check list."""
        lines = ["== Table 1 — which layer should select paths? ==", "",
                 self.table_text, ""]
        for check in self.checks:
            mark = "ok " if check.holds else "FAIL"
            lines.append(f"[{mark}] {check.claim}")
        return "\n".join(lines)


def run_table1() -> Table1Result:
    """Build the table and verify the paper's prose claims."""
    table = decision_table()
    checks = [
        Table1Check(
            claim=("OS can select paths for all performance and quality "
                   "properties"),
            holds=all(
                table[prop][Layer.OS] is Suitability.BEST
                for prop in Property
                if prop.spec.property_class in (PropertyClass.PERFORMANCE,
                                                PropertyClass.QUALITY)),
        ),
        Table1Check(
            claim=("OS lacks context for privacy/anonymity and ESG "
                   "properties"),
            holds=all(
                table[prop][Layer.OS] is Suitability.INAPPROPRIATE
                for prop in Property
                if prop.spec.property_class in (PropertyClass.PRIVACY,
                                                PropertyClass.ESG)),
        ),
        Table1Check(
            claim=("loss rate and path MTU are abstracted away from the "
                   "user"),
            holds=(table[Property.LOSS_RATE][Layer.USER]
                   is Suitability.INAPPROPRIATE
                   and table[Property.PATH_MTU][Layer.USER]
                   is Suitability.INAPPROPRIATE),
        ),
        Table1Check(
            claim=("user context is decisive for geofencing and carbon "
                   "footprint"),
            holds=(table[Property.GEOFENCING][Layer.USER]
                   is Suitability.BEST
                   and table[Property.CARBON_FOOTPRINT][Layer.USER]
                   is Suitability.BEST),
        ),
        Table1Check(
            claim=("the application layer can address every property "
                   "(the argument for the browser)"),
            holds=all(table[prop][Layer.APPLICATION] is Suitability.BEST
                      for prop in Property),
        ),
        Table1Check(
            claim="every property has at least one BEST layer",
            holds=all(
                any(suitability(prop, layer) is Suitability.BEST
                    for layer in Layer)
                for prop in Property),
        ),
    ]
    return Table1Result(table_text=render_table(), checks=checks)


TABLE1 = Battery(
    name="table1", label="Table 1",
    title="Table 1 (reconstructed; see repro/core/properties.py)",
    claim="OS suits performance/quality; app suits everything; user "
          "decisive for privacy/ESG/economics; loss+MTU abstracted from "
          "user",
    measured=lambda _table1: (
        "decision model derives the same matrix from §2's prose rules"),
    holds=lambda table1: table1.all_hold, assemble=serial(run_table1),
)
