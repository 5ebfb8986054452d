"""Exception hierarchy shared across the pipeline."""

from __future__ import annotations


class PipelineError(Exception):
    """Base class for all errors raised by this package."""


class UnknownDomain(PipelineError):
    """A domain is not declared in the ontology or has no database table."""


class UnknownSlot(PipelineError):
    """A constraint slot is not informable for the queried domain."""


class MissingGoal(PipelineError):
    """A dialog's goal_id (or its reference dialog) cannot be resolved."""


class LengthMismatch(PipelineError):
    """Hypothesis and reference corpora are not aligned."""


class IncompleteSamples(PipelineError):
    """Turn samples do not cover every turn of the source dialog."""


class CorpusError(PipelineError):
    """A corpus or predictions file failed validation; message lists diagnostics."""


class BackendError(PipelineError):
    """A generation backend failed; carries the offending prompt and retry count."""

    def __init__(self, message: str, *, prompt: str | None = None, attempts: int = 0):
        super().__init__(message)
        self.prompt = prompt
        self.attempts = attempts
