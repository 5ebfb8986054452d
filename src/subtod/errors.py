"""Exception hierarchy shared across the pipeline."""

from __future__ import annotations


class PipelineError(Exception):
    """Base class of this package's own errors; a bad argument raises ``ValueError`` instead."""


class CorpusError(PipelineError):
    """An input contradicts its format or the corpus; names its problems."""


class BackendError(PipelineError):
    """A generation failed; carries the offending prompt and retry count."""

    def __init__(self, message: str, *, prompt: str | None = None, attempts: int = 0):
        super().__init__(message)
        self.prompt = prompt
        self.attempts = attempts
