"""Exception hierarchy for the exunits package."""


class ExunitsError(Exception):
    """Base class for all package-specific errors."""


# --- number ring construction ---

class NotMonic(ExunitsError):
    pass


class ZeroDegree(ExunitsError):
    pass


class Reducible(ExunitsError):
    pass


class MinPolyTooLarge(ExunitsError):
    """The defining polynomial is past MAX_DEGREE or MAX_COEFF."""


class DimensionMismatch(ExunitsError):
    pass


# --- ideals ---

class ZeroIdeal(ExunitsError):
    pass


class NotFullRank(ExunitsError):
    pass


class UnitIdeal(ExunitsError):
    pass


class FactorCapExceeded(ExunitsError):
    pass


# --- residue rings ---

class NotAUnit(ExunitsError):
    pass


class NotPrime(ExunitsError):
    pass


class EvenCharacteristic(ExunitsError):
    pass


# --- polynomial parsing ---

class PolySyntaxError(ExunitsError):
    """Malformed polynomial source text; ``pos`` is a 0-based offset."""

    def __init__(self, message, pos):
        super().__init__(f"{message} (at offset {pos})")
        self.pos = pos


class UnknownVariable(PolySyntaxError):
    pass


class ExponentTooLarge(PolySyntaxError):
    pass


# --- counting ---

class CapExceeded(ExunitsError):
    pass


class ConstantPolynomial(ExunitsError):
    pass


class BadReduction(ExunitsError):
    """The reduced fiber fails the smoothness/rank check at some point.

    ``prime`` is the offending PrimeFactor, ``witness`` the first bad point
    (tuple of canonical residue representatives) in enumeration order.
    """

    def __init__(self, prime, witness):
        super().__init__(
            f"bad reduction at prime above {prime.p} (h={list(prime.h_coeffs)}), "
            f"witness point {[list(x) for x in witness]}"
        )
        self.prime = prime
        self.witness = witness


class NotQSqrtMinus5(ExunitsError):
    pass


class BadModulus(ExunitsError):
    pass
