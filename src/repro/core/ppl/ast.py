"""PPL abstract syntax.

The AST is the policy's canonical form: the parser produces it, the
evaluator consumes it, and programmatic callers (the geofencing UI, the
built-in policies) construct it directly.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

from repro.errors import PolicyError
from repro.topology.isd_as import IsdAs, parse_isd

#: Metrics a policy can constrain or order by, mapped to
#: :class:`~repro.scion.path.PathMetadata` by the evaluator.
METRICS = ("latency", "bandwidth", "mtu", "hops", "co2", "esg", "price",
           "loss", "jitter")

#: Comparison operators usable in ``require`` statements.
OPERATORS = ("<=", ">=", "<", ">", "==", "!=")

#: Modifiers usable on sequence tokens.
MODIFIERS = ("", "?", "*", "+")


def parse_pattern(text: str) -> IsdAs:
    """Parse an ISD-AS pattern with wildcards.

    Accepted forms: ``0`` (everything), ``2`` (all of ISD 2),
    ``2-0`` (same), ``0-ff00:0:310`` (one AS in any ISD),
    ``1-ff00:0:110`` (exactly one AS).
    """
    if "-" not in text:
        return IsdAs(isd=parse_isd(text), asn=0)
    return IsdAs.parse(text)


def _render_number(value: float) -> str:
    """The shortest positional decimal that reads back as ``value``.

    The lexer's ``NUMBER`` is digits with an optional fraction, so no
    exponent: ``repr`` gives the shortest round-tripping digits and this
    only moves its decimal point (``1.23e-05`` -> ``0.0000123``,
    ``1e+16`` -> ``10000000000000000``, ``12.0`` -> ``12``).
    """
    text = repr(value)
    if "e" not in text:
        return text[:-2] if text.endswith(".0") else text
    mantissa, exponent = text.split("e")
    whole, _, fraction = mantissa.partition(".")
    digits = whole + fraction
    point = len(whole) + int(exponent)
    if point <= 0:
        return "0." + "0" * -point + digits
    if point >= len(digits):
        return digits + "0" * (point - len(digits))
    return f"{digits[:point]}.{digits[point:]}"


@dataclass(frozen=True)
class AclEntry:
    """One ACL line: allow (+) or deny (-) ASes matching ``pattern``."""

    allow: bool
    pattern: IsdAs

    def matches(self, isd_as: IsdAs) -> bool:
        """Wildcard-aware hop match."""
        return self.pattern.matches(isd_as)

    def render(self) -> str:
        """The PPL source form of this entry."""
        sign = "+" if self.allow else "-"
        if self.pattern == IsdAs(0, 0):
            return f"{sign} 0"
        return f"{sign} {self.pattern}"


@dataclass(frozen=True)
class SequenceToken:
    """One hop pattern in a sequence expression, with a modifier."""

    pattern: IsdAs
    modifier: str = ""

    def __post_init__(self) -> None:
        if self.modifier not in MODIFIERS:
            raise PolicyError(f"invalid sequence modifier {self.modifier!r}")

    def render(self) -> str:
        """The PPL source form of this token."""
        base = "0" if self.pattern == IsdAs(0, 0) else str(self.pattern)
        return base + self.modifier


@dataclass(frozen=True)
class Requirement:
    """A hard constraint: ``require <metric> <op> <value>``."""

    metric: str
    op: str
    value: float

    def __post_init__(self) -> None:
        if self.metric not in METRICS:
            raise PolicyError(f"unknown metric {self.metric!r}")
        if self.op not in OPERATORS:
            raise PolicyError(f"unknown operator {self.op!r}")
        # Only what the text form carries: its numbers are digits with
        # an optional fraction (no sign, exponent, infinity or NaN), read
        # as a float.
        try:
            value = float(self.value)
        except (TypeError, ValueError, OverflowError):
            value = math.nan
        if not 0.0 <= value < math.inf:
            raise PolicyError(
                f"requirement value {self.value!r} is not a finite "
                f"number >= 0")
        # abs: -0.0 passes the check above, and its text reads "0".
        object.__setattr__(self, "value", abs(value))

    def holds(self, actual: float) -> bool:
        """Evaluate the constraint against a concrete metric value."""
        if self.op == "<=":
            return actual <= self.value
        if self.op == ">=":
            return actual >= self.value
        if self.op == "<":
            return actual < self.value
        if self.op == ">":
            return actual > self.value
        if self.op == "==":
            return actual == self.value
        return actual != self.value

    def render(self) -> str:
        """The PPL source form of this requirement."""
        return f"require {self.metric} {self.op} {_render_number(self.value)}"


@dataclass(frozen=True)
class Preference:
    """An ordering directive: ``prefer <metric> asc|desc``."""

    metric: str
    descending: bool = False

    def __post_init__(self) -> None:
        if self.metric not in METRICS:
            raise PolicyError(f"unknown metric {self.metric!r}")

    def render(self) -> str:
        """The PPL source form of this preference."""
        return f"prefer {self.metric} {'desc' if self.descending else 'asc'}"


@dataclass(frozen=True)
class Policy:
    """A parsed PPL policy (see package docstring for semantics).

    An empty ACL means "allow all hops". The AST is a plain value
    object; evaluation lives in :mod:`repro.core.ppl.evaluator`
    (``permits`` / ``filter_paths`` / ``order_paths`` / ``select_path``).
    """

    name: str
    acl: tuple[AclEntry, ...] = ()
    sequence: tuple[SequenceToken, ...] | None = None
    requirements: tuple[Requirement, ...] = ()
    preferences: tuple[Preference, ...] = ()
    comment: str = ""

    def has_catch_all(self) -> bool:
        """True when the ACL ends in a pattern matching every AS (or is
        empty, which allows everything)."""
        if not self.acl:
            return True
        return self.acl[-1].pattern == IsdAs(0, 0)

    def render(self) -> str:
        """Round-trippable PPL source for this policy."""
        lines = [f'policy "{self.name}" {{']
        if self.acl:
            lines.append("    acl {")
            for entry in self.acl:
                lines.append(f"        {entry.render()}")
            lines.append("    }")
        if self.sequence is not None:
            tokens = " ".join(token.render() for token in self.sequence)
            lines.append(f'    sequence "{tokens}"')
        for requirement in self.requirements:
            lines.append(f"    {requirement.render()}")
        for preference in self.preferences:
            lines.append(f"    {preference.render()}")
        lines.append("}")
        return "\n".join(lines)


# Re-exported here to keep `from repro.core.ppl.ast import *` coherent.
__all__ = [
    "METRICS",
    "MODIFIERS",
    "OPERATORS",
    "AclEntry",
    "Policy",
    "Preference",
    "Requirement",
    "SequenceToken",
    "parse_pattern",
]
