"""Shared exception types."""

from __future__ import annotations


class AnnotationError(ValueError):
    """A span, edge, or risk annotation violates the data contract."""


class ConfigError(ValueError):
    """A configuration value or combination of values is invalid."""


class CorpusFormatError(ValueError):
    """A corpus file is malformed; carries the offending line number, and the
    message without it as `detail`."""

    def __init__(self, message: str, line_number: int | None = None):
        super().__init__(message if line_number is None else f"line {line_number}: {message}")
        self.detail, self.line_number = message, line_number


class EmptyBatchError(ValueError):
    """No positions survive masking, so a loss average is undefined."""


class NonFiniteLogits(ValueError):
    """Logits hold a NaN or an infinity; training, evaluation and trace turn
    it into DivergenceError."""


class CheckpointError(ValueError):
    """A checkpoint file is unreadable or inconsistent with its config hash."""


class RunFileError(ValueError):
    """A run's metrics.json or resolved_config.json is unreadable or does not
    match its schema."""


class DivergenceError(RuntimeError):
    """Training produced a non-finite quantity."""
