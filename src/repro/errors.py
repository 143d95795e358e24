"""Exception hierarchy for the ``repro`` library.

All exceptions raised by this package derive from :class:`ReproError`, so a
caller can catch everything library-specific with a single ``except`` clause
while still letting programming errors (``TypeError`` etc.) propagate.
"""

from __future__ import annotations


class ReproError(Exception):
    """Base class for every error raised by the ``repro`` package."""


class SchemaError(ReproError):
    """An attribute, source, or object reference is unknown or inconsistent."""


class ValueParseError(ReproError):
    """A raw value string could not be parsed for its declared kind."""


class ConfigError(ReproError):
    """A generator or experiment configuration is invalid."""


class FusionError(ReproError):
    """A fusion method was invoked on an incompatible or empty problem."""


class ConvergenceError(FusionError):
    """An iterative fusion method failed to converge within ``max_rounds``.

    Methods only raise this when ``strict_convergence=True``; by default they
    return the last iterate and flag ``FusionResult.converged = False``.
    """


class GoldStandardError(ReproError):
    """The gold standard could not be constructed (e.g. no authority votes)."""


class StalePublishError(FusionError):
    """A monotonic :class:`~repro.serving.TruthStore` rejected an older day.

    Raised only when the store was built with ``monotonic_days=True`` and a
    publish carries a day that sorts before the currently-published one —
    the delayed re-publish of an old snapshot that would otherwise silently
    overwrite newer truths under a live publish loop.
    """


class StoreWriteError(ReproError):
    """A :class:`~repro.serving.StoreWriter` could not save the store file.

    The save ran on the writer's background thread; the error is raised
    again in the thread that publishes, flushes or closes, chained to the
    original exception.
    """
