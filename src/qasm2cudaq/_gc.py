"""Pausing the cyclic garbage collector while a pipeline stage runs."""

from __future__ import annotations

import functools
import gc


def gc_paused(stage):
    """Wrap a pipeline stage so that it runs with the cyclic collector off.

    Precondition: the data the stages build and hand on (tokens, AST,
    resolved statements, kernel ops, emitted lines) forms no reference
    cycles. Reference counting then frees all of it, and a collection during
    a stage finds nothing to free: it only walks live objects, and the
    full collections that a large AST or op list triggers walk all of them.

    Switching the collector is process-wide. While a stage runs, no thread
    of the process gets automatic collections, and cyclic garbage made
    meanwhile waits for the first collection after it. Only the outermost
    call switches: a stage called with the collector already disabled (by
    the caller, or by an enclosing stage) leaves it disabled. The outermost
    call enables it again in a `finally`, also when the stage raises.
    """

    @functools.wraps(stage)
    def paused(*args, **kwargs):
        if not gc.isenabled():
            return stage(*args, **kwargs)
        gc.disable()
        try:
            return stage(*args, **kwargs)
        finally:
            gc.enable()

    return paused
