"""An ordered map over two CPUs: the caller and one forked worker.

:func:`ordered_map` yields ``fn(item)`` for each item in item order. The
caller runs the even items (0, 2, 4, ...) and one worker process, forked
at the first odd item, runs the odd ones, so a call with one item never
forks. Items go to the worker, and its results and exceptions come back,
pickled over two pipes. An item's exception is raised again at that item's
place in the order, after the results of every item before it.

The worker leaves through ``os._exit`` on every path, so no ``finally``,
``with`` block or atexit hook of the caller's code runs in it (a hidden
output file is removed only by the caller), and the caller waits for it
before the generator ends, also when the generator is closed early. Where
``os.fork`` does not exist, the items are mapped in the caller.

The worker is a fork, not a fresh interpreter, so ``fn`` may be a closure
over the caller's data and only items and results are pickled. A fork is
safe only from a process whose other threads hold no lock the worker needs:
mgp starts no thread, and numpy's BLAS pool takes part in ``fork`` itself.
"""
from __future__ import annotations

import os
import pickle
from typing import Any, Callable, Iterable, Iterator, TypeVar

T = TypeVar("T")
R = TypeVar("R")

_END = object()


class _Worker:
    """One forked process that answers each item it is sent with
    ``(True, fn(item))`` or ``(False, exception)``."""

    def __init__(self, fn: Callable[[Any], Any]) -> None:
        items_r, items_w = os.pipe()
        results_r, results_w = os.pipe()
        self.pid = os.fork()
        if self.pid == 0:
            try:
                os.close(items_w)
                os.close(results_r)
                _serve(fn, os.fdopen(items_r, "rb"), os.fdopen(results_w, "wb"))
            finally:
                os._exit(0)
        os.close(items_r)
        os.close(results_w)
        self.items = os.fdopen(items_w, "wb")
        self.results = os.fdopen(results_r, "rb")

    def send(self, item: Any) -> None:
        pickle.dump(item, self.items, pickle.HIGHEST_PROTOCOL)
        self.items.flush()

    def receive(self) -> Any:
        try:
            ok, value = pickle.load(self.results)
        except EOFError:
            raise ChildProcessError(f"worker process {self.pid} ended without a result") from None
        if not ok:
            raise value
        return value

    def close(self) -> None:
        """End the worker's input, then wait for it: it finishes the item
        it holds, if any, finds no one to take the result, and exits."""
        self.items.close()  # empty: each send flushes
        self.results.close()
        os.waitpid(self.pid, 0)


def _serve(fn: Callable[[Any], Any], items: Any, results: Any) -> None:
    while True:
        try:
            item = pickle.load(items)
        except EOFError:
            return
        try:
            reply = pickle.dumps((True, fn(item)), pickle.HIGHEST_PROTOCOL)
        except BaseException as exc:  # raised again in the caller, as in one process
            try:
                reply = pickle.dumps((False, exc), pickle.HIGHEST_PROTOCOL)
            except Exception:
                fault = RuntimeError(f"{type(exc).__name__}: {exc}")
                reply = pickle.dumps((False, fault), pickle.HIGHEST_PROTOCOL)
        results.write(reply)
        results.flush()


def ordered_map(fn: Callable[[T], R], items: Iterable[T]) -> Iterator[R]:
    """``fn(item)`` for each of ``items``, in order, the odd items run by a
    forked worker (see the module docstring). Items and results must
    pickle. An exception that ``items`` raises comes, like one of ``fn``,
    after the results before it."""
    if not hasattr(os, "fork"):
        yield from map(fn, items)
        return
    items = iter(items)
    worker = None
    try:
        for mine in items:
            fault = None
            try:
                theirs = next(items, _END)
            except Exception as exc:
                theirs, fault = _END, exc
            if theirs is not _END:
                if worker is None:
                    worker = _Worker(fn)
                worker.send(theirs)
            yield fn(mine)
            if theirs is _END:
                if fault is not None:
                    raise fault
                return
            yield worker.receive()
    finally:
        if worker is not None:
            worker.close()
