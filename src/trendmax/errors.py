"""Exception hierarchy for trendmax.

Every contract violation raises a named subclass of :class:`TrendmaxError`
so callers can distinguish failure modes without string matching. Errors
that arise from bad user input also subclass ``ValueError``.
"""


class TrendmaxError(Exception):
    """Base class for all trendmax errors."""


class InputError(TrendmaxError, ValueError):
    """Invalid input that does not fit a more specific category."""


# ---- genotype tables ----

class NegativeCell(InputError):
    """A genotype count is negative."""


class EmptyRow(InputError):
    """An entire case or control row is zero."""


class DegenerateTable(InputError):
    """Table cannot support the requested resampling procedure."""


# ---- population model ----

class FrequencyOutOfRange(InputError):
    """An allele frequency lies outside (0, 1)."""


class DegeneratePrevalence(InputError):
    """Disease prevalence is not strictly between 0 and 1."""


class OrderViolation(InputError):
    """Penetrances violate the required ordering f0 <= f1 <= f2."""


# ---- correlation structure ----

class DegenerateProportions(TrendmaxError):
    """Pooled genotype proportions do not allow correlation estimation."""


class CorrelationOutOfRange(InputError):
    """A pairwise null correlation lies outside (-1, 1]."""


# ---- simulation engine ----

class ScenarioError(InputError):
    """A scenario definition is inconsistent or incomplete."""


class UnknownStatistic(InputError):
    """A statistic identifier is not in the battery registry."""
