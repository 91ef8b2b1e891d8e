"""Exception hierarchy shared by all beliefkit modules.

Every domain failure raised by this package derives from
:class:`BeliefkitError`, so callers (and the CLI) can distinguish domain
errors from programming mistakes such as ``TypeError``.
"""


class BeliefkitError(Exception):
    """Base class for all domain errors raised by beliefkit."""


class UnknownLabel(BeliefkitError):
    """A hypothesis label does not belong to the frame."""


class FrameMismatch(BeliefkitError):
    """Two values built over different frames were combined."""


class MassOnEmptySet(BeliefkitError):
    """A mass function would assign positive mass to the empty set."""


class NegativeMass(BeliefkitError):
    """A mass entry is negative."""


class MassNotNormalized(BeliefkitError):
    """Mass entries do not sum exactly to 1."""


class NotABeliefFunction(BeliefkitError):
    """A belief table admits no valid mass function under inversion."""


class UnknownMessage(BeliefkitError):
    """A message label is not part of the model's alphabet."""


class UnknownPlaintext(BeliefkitError):
    """A subset is not part of the model's plaintext domain."""


class CodeNotPossible(BeliefkitError):
    """The code does not appear in the constraining relation."""


class TotalConflict(BeliefkitError):
    """All probability mass is ruled out; no belief function exists."""


class DuplicateCodeName(BeliefkitError):
    """Two codes in one model share a name."""


class IncompleteCodebook(BeliefkitError):
    """A codebook does not cover exactly the declared plaintext domain."""


class ProbabilitySumError(BeliefkitError):
    """Code probabilities are not positive or do not sum exactly to 1."""


class InvalidPrior(BeliefkitError):
    """Prior weights are negative, do not sum to 1, or odds are not positive."""


class ZeroMarginal(BeliefkitError):
    """The observed message has probability 0 under the prior."""


class UndefinedOdds(BeliefkitError):
    """Both likelihoods vanish; the odds ratio is undefined."""


class InfiniteOdds(BeliefkitError):
    """Only the denominator likelihood vanishes; the odds ratio is infinite."""


class NoAcceptedTrials(BeliefkitError):
    """A simulation run accepted no trials; retry with a larger sample count."""


class ModelSyntaxError(BeliefkitError):
    """A model document cannot be parsed; the message carries position context."""


class RationalTooLarge(BeliefkitError):
    """An exact value has an integer with more digits than Python writes as text."""
