"""Exception hierarchy with stable machine-readable codes.

Every error raised by this package derives from ParkingModelError and
carries a ``code`` string that CLI consumers can match on without parsing
messages.
"""


class ParkingModelError(Exception):
    code = "Error"

    def __init__(self, message=""):
        super().__init__(message or self.code)


# --- arrival-law construction and evaluation --------------------------------

class LawError(ParkingModelError):
    code = "LawError"


class NegativeProbability(LawError):
    code = "NegativeProbability"


class ProbabilitySumNotOne(LawError):
    code = "ProbabilitySumNotOne"


class MuZeroIsZero(LawError):
    code = "MuZeroIsZero"


class Mu01IsOne(LawError):
    code = "Mu01IsOne"


class BadFamilyParameter(LawError):
    code = "BadFamilyParameter"


class EvaluationBeyondRadius(ParkingModelError):
    code = "EvaluationBeyondRadius"


# --- truncated series --------------------------------------------------------

class SeriesError(ParkingModelError):
    code = "SeriesError"


class NonpositiveConstantTerm(SeriesError):
    code = "NonpositiveConstantTerm"


class ZeroConstantTerm(SeriesError):
    code = "ZeroConstantTerm"


# --- analytic engine ---------------------------------------------------------

class AnalyticError(ParkingModelError):
    code = "AnalyticError"


class NoRootWithinBudget(AnalyticError):
    code = "NoRootWithinBudget"


class OutOfDomain(AnalyticError):
    code = "OutOfDomain"


class NegativeRadicand(AnalyticError):
    code = "NegativeRadicand"


class NoSolution(AnalyticError):
    code = "NoSolution"


class NotCritical(AnalyticError):
    code = "NotCritical"


class NegativeCoefficient(AnalyticError):
    code = "NegativeCoefficient"


class BracketFailure(AnalyticError):
    code = "BracketFailure"


class IterationCapExceeded(AnalyticError):
    code = "IterationCapExceeded"


# --- enumeration and simulation ----------------------------------------------

class EnumerationError(ParkingModelError):
    code = "EnumerationError"


class NonExactLaw(EnumerationError):
    code = "NonExactLaw"


class OracleMismatch(EnumerationError):
    code = "OracleMismatch"


class BudgetExceeded(ParkingModelError):
    code = "BudgetExceeded"


class UnsampleableLaw(ParkingModelError):
    code = "UnsampleableLaw"
