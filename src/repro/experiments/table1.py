"""Table 1 reproduction: the property × layer decision matrix.

The "measurement" here is structural: the decision model in
:mod:`repro.core.properties` derives each cell from per-property
attributes, and this module renders the table and checks the paper's
textual claims against it (the extraction's glyph alignment was garbled,
so the prose is the ground truth — see the module docstring of
``repro.core.properties``).
"""

from __future__ import annotations

from collections.abc import Callable
from operator import itemgetter

from repro.core.properties import (
    Layer,
    Property,
    PropertyClass,
    Suitability,
    decision_table,
    render_table,
)
from repro.experiments.harness import Battery, Column


def _rates(layer: Layer, expected: Suitability, props) -> Callable:
    """A claim: ``layer`` rates each of ``props`` ``expected``."""
    return lambda table: all(table[prop][layer] is expected for prop in props)


def _of(*classes: PropertyClass) -> list[Property]:
    return [prop for prop in Property if prop.spec.property_class in classes]


#: §2's verifiable prose claims, each a predicate over the decision
#: table, in the order the report lists them.
CLAIMS = {
    "OS can select paths for all performance and quality properties":
        _rates(Layer.OS, Suitability.BEST,
               _of(PropertyClass.PERFORMANCE, PropertyClass.QUALITY)),
    "OS lacks context for privacy/anonymity and ESG properties":
        _rates(Layer.OS, Suitability.INAPPROPRIATE,
               _of(PropertyClass.PRIVACY, PropertyClass.ESG)),
    "loss rate and path MTU are abstracted away from the user":
        _rates(Layer.USER, Suitability.INAPPROPRIATE,
               (Property.LOSS_RATE, Property.PATH_MTU)),
    "user context is decisive for geofencing and carbon footprint":
        _rates(Layer.USER, Suitability.BEST,
               (Property.GEOFENCING, Property.CARBON_FOOTPRINT)),
    "the application layer can address every property (the argument for "
    "the browser)": _rates(Layer.APPLICATION, Suitability.BEST, Property),
    "every property has at least one BEST layer": lambda table: all(
        Suitability.BEST in table[prop].values() for prop in Property),
}


def table1_trial(claim: str, seed: int) -> tuple[str, bool]:
    """``(claim, holds)``: one prose claim checked against the decision
    table (structural, so every seed agrees)."""
    return claim, CLAIMS[claim](decision_table())


TABLE1 = Battery(
    name="table1", label="Table 1",
    title="Table 1 (reconstructed; see repro/core/properties.py)",
    claim="OS suits performance/quality; app suits everything; user "
          "decisive for privacy/ESG/economics; loss+MTU abstracted from "
          "user",
    measured=lambda _table1: (
        "decision model derives the same matrix from §2's prose rules"),
    holds=lambda table1: all(cell.holds for cell in table1.cells.values()),
    cells=tuple((claim,) for claim in CLAIMS), trial=table1_trial,
    trials=1,
    # One row per trial: (claim, holds).
    columns=(
        Column("claim", 0, itemgetter(0)),
        Column("holds", 1, all),
        Column("mark", kept=False,
               derive=lambda cell, _trials: "ok " if cell.holds else "FAIL",
               fmt="[{mark}] {claim}")),
    heading="Table 1 — which layer should select paths?",
    description=lambda trials: (
        f"the decision model's matrix, then §2's prose claims checked "
        f"against it ({trials} trial(s)/claim)\n\n{render_table()}"),
    note="expected shape: every claim ok — the model's per-property "
         "attributes reproduce §2's prose (the ground truth; the "
         "extraction garbled the paper's glyph alignment)",
    cells_key="claims",
)
