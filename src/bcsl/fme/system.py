"""Symbolic linear inequality systems over rates and named information constants.

An inequality is stored as `sum(coeff * symbol) <= rhs` with exact rational
coefficients.  Symbols come in two kinds: rate variables (eliminable) and
information constants (opaque nonnegative parameters, names beginning with
"I(").  A small text DSL round-trips systems to fixture files:

    # comment
    tag_name: 2 R0 + R1 <= I(U3;Y3) + I(U2;Y2) - 1/2

Tokens are whitespace-separated; `<=`, `>=` and `=` are accepted and
everything is normalized to `<=` (equalities expand to two opposite rows
sharing a tag suffix).  Strict `<` and `>` are rejected: Farkas certificates
prove only non-strict rows.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Iterable, Mapping

from ..errors import UsageError, ValidationError


def is_constant_symbol(name: str) -> bool:
    """Information constants are written as I(...) expressions."""
    return name.startswith("I(")


@dataclass(frozen=True)
class Ineq:
    """One row: coeffs . symbols <= rhs."""

    coeffs: tuple[tuple[str, Fraction], ...]  # sorted by symbol name, nonzero
    rhs: Fraction
    tag: str

    @staticmethod
    def make(coeffs: Mapping[str, Fraction], rhs: Fraction, tag: str) -> "Ineq":
        items = tuple(sorted((s, Fraction(c)) for s, c in coeffs.items() if c != 0))
        return Ineq(items, Fraction(rhs), tag)

    def coeff_dict(self) -> dict[str, Fraction]:
        return dict(self.coeffs)

    def coeff(self, sym: str) -> Fraction:
        for s, c in self.coeffs:
            if s == sym:
                return c
        return Fraction(0)

    def is_trivial(self) -> bool:
        """No symbols left: either vacuous (0 <= rhs) or infeasible."""
        return not self.coeffs

    def normalized_key(self) -> tuple:
        """Scale-invariant identity used for duplicate detection."""
        if not self.coeffs:
            return ((), self.rhs)
        lead = abs(self.coeffs[0][1])
        return (tuple((s, c / lead) for s, c in self.coeffs), self.rhs / lead)

    def __str__(self) -> str:
        lhs_terms = []
        for s, c in self.coeffs:
            sign = "-" if c < 0 else "+"
            mag = abs(c)
            coef = "" if mag == 1 else f"{mag} "
            lhs_terms.append(f"{sign} {coef}{s}")
        lhs = " ".join(lhs_terms).lstrip("+ ") or "0"
        return f"{self.tag}: {lhs} <= {self.rhs}"


@dataclass(frozen=True)
class IneqSystem:
    """Immutable collection of inequalities over a shared symbol table."""

    rows: tuple[Ineq, ...] = ()

    # -- construction --------------------------------------------------
    def with_rows(self, extra: Iterable[Ineq]) -> "IneqSystem":
        return IneqSystem(self.rows + tuple(extra))

    def symbols(self) -> list[str]:
        names: dict[str, None] = {}
        for row in self.rows:
            for s, _ in row.coeffs:
                names.setdefault(s)
        return list(names)

    def constants(self) -> list[str]:
        return [s for s in self.symbols() if is_constant_symbol(s)]

    # -- transformations -----------------------------------------------
    def substitute(self, var: str, expr: Mapping[str, Fraction],
                   const: Fraction = Fraction(0)) -> "IneqSystem":
        """Replace `var` by the affine expression `expr . symbols + const`."""
        out = []
        for row in self.rows:
            c = row.coeff(var)
            if c == 0:
                out.append(row)
                continue
            coeffs = row.coeff_dict()
            del coeffs[var]
            for s, e in expr.items():
                coeffs[s] = coeffs.get(s, Fraction(0)) + c * Fraction(e)
            out.append(Ineq.make(coeffs, row.rhs - c * const, row.tag))
        return IneqSystem(tuple(out))

    def rename_constants(self, mapping: Mapping[str, str | None]) -> "IneqSystem":
        """Merge constant names; a None target drops the constant (value 0)."""
        sys = self
        for old, new in mapping.items():
            if not is_constant_symbol(old):
                raise UsageError(f"rename_constants: {old} is not a constant")
            if new is None:
                sys = sys.substitute(old, {})
            else:
                sys = sys.substitute(old, {new: Fraction(1)})
        return sys

    def drop_trivial(self) -> "IneqSystem":
        kept = []
        for row in self.rows:
            if row.is_trivial():
                if row.rhs < 0:
                    raise ValidationError(f"infeasible constant row: {row}")
                continue
            kept.append(row)
        return IneqSystem(tuple(kept))

    def dedupe(self) -> "IneqSystem":
        seen = set()
        kept = []
        for row in self.rows:
            key = row.normalized_key()
            if key in seen:
                continue
            seen.add(key)
            kept.append(row)
        return IneqSystem(tuple(kept))

    def sorted(self) -> "IneqSystem":
        return IneqSystem(tuple(sorted(self.rows, key=lambda r: (r.coeffs, r.rhs))))

    # -- Fourier-Motzkin ------------------------------------------------
    def eliminate(self, var: str) -> "IneqSystem":
        """Project out one rate variable by pairing bounds (classical FME)."""
        if is_constant_symbol(var):
            raise UsageError(f"cannot eliminate constant {var}")
        zeros, uppers, lowers = [], [], []
        for row in self.rows:
            c = row.coeff(var)
            if c == 0:
                zeros.append(row)
            elif c > 0:
                uppers.append(row)   # var <= ...
            else:
                lowers.append(row)   # var >= ...
        out = list(zeros)
        for up in uppers:
            cu = up.coeff(var)
            for lo in lowers:
                cl = -lo.coeff(var)
                coeffs: dict[str, Fraction] = {}
                for s, c in up.coeffs:
                    coeffs[s] = coeffs.get(s, Fraction(0)) + c / cu
                for s, c in lo.coeffs:
                    coeffs[s] = coeffs.get(s, Fraction(0)) + c / cl
                coeffs.pop(var, None)
                rhs = up.rhs / cu + lo.rhs / cl
                out.append(Ineq.make(coeffs, rhs, f"{up.tag}*{lo.tag}"))
        return IneqSystem(tuple(out)).drop_trivial().dedupe()

    # -- text DSL --------------------------------------------------------
    def __str__(self) -> str:
        return "\n".join(str(r) for r in self.rows)

    @staticmethod
    def parse(text: str) -> "IneqSystem":
        rows: list[Ineq] = []
        for lineno, raw in enumerate(text.splitlines(), start=1):
            line = raw.split("#", 1)[0].strip()
            if not line:
                continue
            try:
                rows.extend(_parse_line(line))
            except ValueError as e:
                raise ValidationError(f"line {lineno}: {e} in {line!r}") from e
        return IneqSystem(tuple(rows))


_SENSES = ("<=", ">=", "=")


def _parse_terms(tokens: list[str]) -> tuple[dict[str, Fraction], Fraction]:
    coeffs: dict[str, Fraction] = {}
    number = Fraction(0)
    sign = Fraction(1)
    pending: Fraction | None = None
    for tok in tokens:
        if tok == "+":
            if pending is not None:
                number += sign * pending
                pending = None
            sign = Fraction(1)
        elif tok == "-":
            if pending is not None:
                number += sign * pending
                pending = None
            sign = Fraction(-1)
        else:
            try:
                value = Fraction(tok)
            except ValueError:
                # symbol token, with optional numeric coefficient before it
                coef = sign * (pending if pending is not None else Fraction(1))
                coeffs[tok] = coeffs.get(tok, Fraction(0)) + coef
                pending = None
                sign = Fraction(1)
                continue
            if pending is not None:
                raise ValueError("two numbers in a row")
            pending = value
    if pending is not None:
        number += sign * pending
    return coeffs, number


def _parse_line(line: str) -> list[Ineq]:
    if ":" not in line:
        raise ValueError("missing 'tag:' prefix")
    tag, body = line.split(":", 1)
    tag = tag.strip()
    tokens = body.split()
    if "<" in tokens or ">" in tokens:
        raise ValueError("strict '<'/'>' not supported: certificates prove "
                         "only non-strict rows")
    sense_positions = [i for i, t in enumerate(tokens) if t in _SENSES]
    if len(sense_positions) != 1:
        raise ValueError("need exactly one relational operator")
    pos = sense_positions[0]
    sense = tokens[pos]
    lhs_c, lhs_n = _parse_terms(tokens[:pos])
    rhs_c, rhs_n = _parse_terms(tokens[pos + 1:])

    def sub(a: dict[str, Fraction], b: dict[str, Fraction]) -> dict[str, Fraction]:
        out = dict(a)
        for s, c in b.items():
            out[s] = out.get(s, Fraction(0)) - c
        return out

    if sense == "=":
        fwd = Ineq.make(sub(lhs_c, rhs_c), rhs_n - lhs_n, tag)
        bwd = Ineq.make(sub(rhs_c, lhs_c), lhs_n - rhs_n, tag + "_rev")
        return [fwd, bwd]
    if sense == "<=":
        return [Ineq.make(sub(lhs_c, rhs_c), rhs_n - lhs_n, tag)]
    return [Ineq.make(sub(rhs_c, lhs_c), lhs_n - rhs_n, tag)]
