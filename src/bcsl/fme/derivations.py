"""Re-derivation of the bound inequality lists from the raw coding systems.

Each driver loads the raw constraint fixtures, pins the two security
partition rates to their information-constant values, folds the secret-rate
decomposition into the retained rate symbols, projects out the bookkeeping
variables by exact Fourier-Motzkin elimination, and certifies two-way
equivalence against the target fixture.
"""

from __future__ import annotations

import functools
from fractions import Fraction
from importlib import resources
from typing import Iterable, Sequence

from .farkas import EquivalenceReport, check_equivalence, remove_redundant
from .system import IneqSystem

ONE = Fraction(1)

# value of the U2-layer security partition rate (slack taken to zero)
U2_LEAK = "I(U2;Y3|U1)"
# value of the X-layer security partition rate (slack taken to zero)
X_LEAK = "I(X;Y3|U2)"

INNER_ELIM_ORDER = ("R1dag", "P3dag", "Q2", "Q3", "P3")
TYPE1_ELIM_ORDER = ("Q2", "Q3", "P1e", "P2e")

# (rate, replacement) substitutions, applied in order
Pins = Sequence[tuple[str, dict[str, Fraction]]]

# inserted-layer constants -> base constants (None: conditioning collapses
# the constant to zero once the layer is pinned to the cloud center)
APPENDIX_MERGE: dict[str, str | None] = {
    "I(X;Y1|tU2)": "I(X;Y1|U1)",
    "I(X;Y1|U3,tU2)": "I(X;Y1|U3)",
    "I(U2;Y2|tU2)": "I(U2;Y2|U1)",
    "I(tU2;U3|U1)": None,
}


@functools.cache
def load_fixture(name: str) -> IneqSystem:
    text = resources.files(__package__).joinpath("fixtures", name).read_text()
    return IneqSystem.parse(text)


def load_identities() -> IneqSystem:
    return load_fixture("identities.txt")


def _drop(system: IneqSystem, tags: Iterable[str]) -> IneqSystem:
    tags = set(tags)
    unknown = tags - {r.tag for r in system.rows}
    if unknown:
        raise KeyError(f"no rows tagged {sorted(unknown)}")
    return IneqSystem(tuple(r for r in system.rows if r.tag not in tags))


def _raw_system(scheme: str) -> IneqSystem:
    """The raw coding system of a scheme: its bin-pairing, decoding and
    partition-floor fixtures, in that order."""
    return IneqSystem(tuple(
        row for part in ("bin_pairing", "decoding", "partition_floor")
        for row in load_fixture(f"{scheme}_{part}.txt").rows))


def _pin(system: IneqSystem, pins: Pins) -> IneqSystem:
    for var, expr in pins:
        system = system.substitute(var, expr)
    return system


def _derive(scheme: str, order: Sequence[str], drop_tags: Iterable[str], *,
            rates: tuple[str, ...], raw_pins: Pins, target_pins: Pins
            ) -> tuple[IneqSystem, EquivalenceReport]:
    """Pin the raw system, project `order` out of it, and certify the
    result against the scheme's pinned target list.  The retained `rates`
    live in the nonnegative orthant by definition."""
    derived = _pin(_drop(_raw_system(scheme), drop_tags), raw_pins)
    for var in order:
        derived = remove_redundant(derived.eliminate(var), nonneg_vars=rates)
    derived = derived.sorted()
    target = _pin(load_fixture(f"{scheme}_bound_target.txt"), target_pins)
    report = check_equivalence(derived, target, load_identities(),
                               a_name="derived", b_name="target",
                               nonneg_vars=rates)
    return derived, report


def derive_inner_bound(order: Sequence[str] = INNER_ELIM_ORDER,
                       drop_tags: Iterable[str] = (),
                       ) -> tuple[IneqSystem, EquivalenceReport]:
    """Project the raw three-message system and compare with its target list.

    Returns (derived system over {R0, R1e, R2e}, equivalence report).
    """
    # pin the security partition rates, then express the second private
    # message through its split R2e = P1e + P3
    return _derive(
        "inner", order, drop_tags, rates=("R0", "R1e", "R2e"),
        raw_pins=(("R1p", {U2_LEAK: ONE}), ("P1p", {X_LEAK: ONE}),
                  ("P1e", {"R2e": ONE, "P3": -ONE})),
        target_pins=(("R1", {"R1e": ONE, U2_LEAK: ONE}),
                     ("R2", {"R2e": ONE, X_LEAK: ONE})))


def derive_type1_bound(order: Sequence[str] = TYPE1_ELIM_ORDER,
                       drop_tags: Iterable[str] = (),
                       ) -> tuple[IneqSystem, EquivalenceReport]:
    """Project the raw two-message system and compare with its target list.

    Returns (derived system over {R0, R1e}, equivalence report).
    """
    # here the single private message splits as R1e = P1e + P2e + P3 and its
    # randomization layer carries both leak rates
    return _derive(
        "type1", order, drop_tags, rates=("R0", "R1e"),
        raw_pins=(("P2p", {U2_LEAK: ONE}), ("P1p", {X_LEAK: ONE}),
                  ("P3", {"R1e": ONE, "P1e": -ONE, "P2e": -ONE})),
        target_pins=(("R1", {"R1e": ONE, U2_LEAK: ONE, X_LEAK: ONE}),))


def base_system_for_appendix() -> IneqSystem:
    """Raw three-message system with the in-bin search depths projected out."""
    base = _raw_system("inner").eliminate("R1dag").eliminate("P3dag")
    return remove_redundant(base).sorted()


def appendix_reduction(outer_layer_symbolic: bool = False) -> EquivalenceReport:
    """Reduce the inserted-layer system onto the base constraint system.

    With the default pinning (layer partition and bank rates set to zero,
    inserted-layer constants merged into the base names) the two systems are
    exactly equivalent.  With `outer_layer_symbolic` the layer rates stay as
    free nonnegative variables and are projected out instead; the resulting
    system is weaker, so only the base -> reduced direction certifies.
    """
    app = load_fixture("appendix_system.txt").rename_constants(APPENDIX_MERGE)
    if outer_layer_symbolic:
        app = app.eliminate("Pt2").eliminate("Qt2")
    else:
        app = app.substitute("Pt2", {}).substitute("Qt2", {})
    app = remove_redundant(app).sorted()
    base = base_system_for_appendix()
    return check_equivalence(base, app, a_name="base", b_name="reduced")
