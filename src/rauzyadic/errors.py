"""Shared exception types.

Every refusal in the library is a typed exception; operations never
silently truncate or guess.
"""


class RauzyadicError(Exception):
    """Base class for all library errors."""


class HorizonExceeded(RauzyadicError):
    """A factor-set query went past the oracle's certified horizon, or a
    crosscheck window is too small to extract a valid routing's steps."""


class IdentityViolation(RauzyadicError):
    """A complexity identity failed, signalling an inconsistent oracle."""


class AlphabetMismatch(RauzyadicError):
    """Word or morphism used over the wrong alphabet."""


class NotRightProper(RauzyadicError):
    """Left conjugate requested for a morphism that is not right proper."""


class NotInCatalog(RauzyadicError):
    """Morphism matches no schema of the decomposition catalog."""


class NoStabilization(RauzyadicError):
    """No exact language certificate: the substitution is not primitive on
    its letters, or the directive word is finite; or no generated prefix
    can settle."""


class EnumerationBudgetExceeded(RauzyadicError):
    """Circuit or routing enumeration hit its budget."""


class OutOfClass(RauzyadicError):
    """Graph violates the special-vertex case analysis for slope <= 2."""


class ChainBlocked(RauzyadicError):
    """No right-special extension exists (periodicity or horizon)."""


class RuleViolation(RauzyadicError):
    """Circuits contradict the assignment rule for their graph type."""


class NoSchemaMatch(RauzyadicError):
    """Extracted morphism matches no evolution schema for its shapes."""


class AmbiguousMatch(RauzyadicError):
    """Two schema rows on one edge matched the same morphism."""


class UnsupportedCase(RauzyadicError):
    """Step sequence matches no length-computation case."""


class NotContractible(RauzyadicError):
    """No right-proper contraction found within the window."""


class Mismatch(RauzyadicError):
    """Cross-validation divergence between generation and extraction."""


class OutOfMemory(RauzyadicError):
    """A command that ran out of memory; names the command."""


class UnreadableInput(RauzyadicError):
    """An input file that is missing or cannot be read as text."""


class UnwritableOutput(RauzyadicError):
    """An output file that cannot be written, for example in a missing
    directory; names the path."""


class MalformedDirective(RauzyadicError, ValueError):
    """Directive or morphism text that does not parse; names the offending
    line.  A ValueError too, for callers that catch parse errors as such."""


class BadAlphabet(RauzyadicError, ValueError):
    """An alphabet size outside 1..10.  A ValueError too, as were the
    refusals below, before they had types of their own."""


class NegativeLength(RauzyadicError, ValueError):
    """A factor length below zero."""


class NotProlongable(RauzyadicError, ValueError):
    """A substitution whose image of 0 does not begin with 0, so that it has
    no one-sided fixed point from 0."""


class NotInLanguage(RauzyadicError, ValueError):
    """A word that is not a factor of the oracle's language."""



class MalformedMorphism(RauzyadicError, ValueError):
    """Morphism text that does not parse (rules, brackets or factor names);
    the directive parser reports it as MalformedDirective."""


class EmptyProduct(RauzyadicError, ValueError):
    """A directive word with no level, or an empty product with no alphabet size."""


class ErasingMorphism(RauzyadicError, ValueError):
    """A directive word level that maps a letter to the empty word."""
