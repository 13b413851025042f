"""Exception types shared across the package."""


class UprollError(Exception):
    """Base class for all library errors."""


class InvalidSeriesRank(UprollError):
    """The (series, rank) pair does not name a known Dynkin type."""


class HypothesisViolated(UprollError):
    """The order of the root of unity fails a standing hypothesis."""


class DimensionMismatch(UprollError):
    """A weight has the wrong number of coordinates for this datum."""


class NotInSimpleCurrentLattice(UprollError):
    """A generator or odd weight lies outside the simple-current lattice."""


class MuNotHalfOdd(UprollError):
    """The odd generator must satisfy mu not in L and 2*mu in L."""


class NotSubgroup(UprollError):
    """A lattice generator fails the dual condition of the target group."""


class IncompleteTable(UprollError):
    """A cocycle-table lookup fell outside the stored coefficient box."""


class AlgebraInvalid(UprollError):
    """The operation needs a spec that passes its (super)commutativity check."""


class InfiniteCensus(UprollError):
    """The operation needs a finite census and the quotient is not finite."""


class NotLocal(UprollError):
    """The operation is only defined on local module weights."""


class OddEll(UprollError):
    """The operation needs an even order root of unity."""


class NonADESeries(UprollError):
    """The triplet construction is only defined for series A, D, E."""


class BudgetExceeded(UprollError):
    """The requested work exceeds a fixed size budget and was refused
    before anything was allocated."""


def check_budget(stage: str, size: int, what: str, limit: int) -> None:
    """Refuse work of more than limit units before it starts: raise
    BudgetExceeded as "<stage>: <size> <what>, over the budget of <limit>",
    with a size too long to print as a decimal shown as "about 2^<bits>"."""
    if size > limit:
        try:
            shown = str(size)
        except ValueError:  # past the interpreter's limit on integer digits
            shown = f"about 2^{size.bit_length()}"
        raise BudgetExceeded(f"{stage}: {shown} {what}, over the budget of {limit}")


class InternalError(RuntimeError):
    """An invariant of the library itself failed: a bug, never bad input."""
