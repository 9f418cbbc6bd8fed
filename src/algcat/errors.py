"""Exception types shared across the package.

Validation failures carry enough structure for a caller to print a concrete
witness (the offending row, pair, axiom, ...) without re-deriving it.
"""

from __future__ import annotations


class StructureError(ValueError):
    """A value failed structural validation."""


class LatinSquareViolation(StructureError):
    """A Cayley table row or column repeats (or omits) a value."""

    def __init__(self, axis: str, index: int, value: int):
        self.axis = axis
        self.index = index
        self.value = value
        super().__init__(f"{axis} {index} repeats value {value}")


class IdentityViolation(StructureError):
    """The designated identity element fails one of its unit laws."""

    def __init__(self, side: str, element: int):
        self.side = side
        self.element = element
        super().__init__(f"{side} unit law fails at element {element}")


class MissingIdentity(StructureError):
    """A permutation set that must contain the identity does not."""


class RegularityViolation(StructureError):
    """A point pair is reached by the wrong number of set members."""

    def __init__(self, alpha: int, beta: int, count: int):
        self.alpha = alpha
        self.beta = beta
        self.count = count
        super().__init__(f"{count} members map {alpha} to {beta}, expected exactly 1")


class AxiomViolation(StructureError):
    """A numbered structure axiom fails; `witness` pins the failing tuple."""

    def __init__(self, axiom: int, witness: object):
        self.axiom = axiom
        self.witness = witness
        super().__init__(f"axiom {axiom} fails at {witness}")


class InvariantViolation(StructureError):
    """A property the mathematics guarantees failed to hold; `witness` pins
    where. Raised explicitly, so the check still runs under python -O."""

    def __init__(self, claim: str, witness: object):
        self.claim = claim
        self.witness = witness
        super().__init__(f"{claim} fails at {witness}")


class NotAGroup(StructureError):
    """A permutation set is not closed, lacks inverses, or lacks the identity."""


class NotSharplyTransitive(StructureError):
    """Some ordered point pair is moved to another by != 1 group elements."""

    def __init__(self, source_pair: tuple[int, int], target_pair: tuple[int, int], count: int):
        self.source_pair = source_pair
        self.target_pair = target_pair
        self.count = count
        super().__init__(f"{count} elements map {source_pair} to {target_pair}, expected exactly 1")


class DegenerateOmega(StructureError):
    """Base points out of range, equal, or the point set is too small."""


class DichotomyViolation(StructureError):
    """Involutions disagree on their fixed-point count (must be all 0 or all 1)."""


class ResourceLimitExceeded(RuntimeError):
    """The work would pass perms.TABLE_CAP, the one size budget: a composition
    table over TABLE_CAP entries, or a closure whose table would be. Raised
    before the over-budget work is done; the CLI exits 2."""


class ParseError(ValueError):
    """A structure file is syntactically malformed; carries the 1-based line."""

    def __init__(self, line: int, message: str):
        self.line = line
        super().__init__(f"line {line}: {message}")
