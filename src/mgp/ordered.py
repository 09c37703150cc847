"""An ordered map over two CPUs: the caller and one forked worker.

:func:`ordered_map` yields ``fn(item)`` for each item in item order. The
caller runs item 0, and one worker process, forked when item 1 arrives,
runs item 1, so a call with at most one item never forks. After that the
items are shared on demand. The worker is sent the next item whenever it
is idle; that is checked before each result is yielded, so the worker
works while the consumer does. The caller runs an item itself only when
the result it needs next is the worker's and is not ready yet, and it holds
at most one result of its own ahead of the worker's. Which process runs an
item thus depends on timing; the results and their order do not.

Items go to the worker, and its results and exceptions come back, as
pickles over two pipes whose ends are buffered files: a pickle ends at its
STOP opcode, so ``pickle.load`` reads exactly one, and each is pickled
whole before any of it is written. The worker holds at most one item, so
the caller never writes an item while the worker writes a result, neither
can block the other on a full pipe, and no reader buffers a part of the
next message. An item that does not pickle is run in the caller. An item's
exception, and one that the items iterator raises, comes at that item's
place, after the results of every item before it. A worker that has ended,
idle or holding an item, is a ChildProcessError.

A process has at most one worker: an ordered_map that would fork while
another worker of its process is alive, or inside a worker, maps its items
in the caller, so a nested map, or one whose items come from another map,
starts no third process. Where ``os.fork`` does not exist, or where the
fork fails, the items are mapped in the caller.

The worker leaves through ``os._exit`` on every path, so no ``finally``,
``with`` block or atexit hook of the caller's code runs in it (a hidden
output file is removed only by the caller), and the caller waits for it
before the generator ends, also when the generator is closed early.

The worker is a fork, not a fresh interpreter, so ``fn`` may be a closure
over the caller's data and only items and results are pickled. A fork is
safe only from a process whose other threads hold no lock the worker needs:
mgp starts no thread, and numpy's BLAS pool takes part in ``fork`` itself.
"""
from __future__ import annotations

import contextlib
import itertools
import os
import pickle
import select
from typing import Any, BinaryIO, Callable, Iterable, Iterator, TypeVar

T = TypeVar("T")
R = TypeVar("R")

_END = object()
# True in a process with a live worker, and in every worker: an ordered_map
# there maps in the caller.
_busy = False


class _Fault:
    """An exception of the items iterator, in the place of the item it did
    not give."""

    def __init__(self, exc: Exception) -> None:
        self.exc = exc


def _pulled(items: Iterable[T]) -> Iterator[T | _Fault]:
    """``items``, then the exception that iterating them raised, if any."""
    try:
        yield from items
    except Exception as exc:
        yield _Fault(exc)


def _run(fn: Callable[[T], R], item: T | _Fault) -> R:
    if isinstance(item, _Fault):
        raise item.exc
    return fn(item)


def _call(fn: Callable[[T], R], item: T | _Fault) -> tuple[bool, Any]:
    """``(True, fn(item))``, or ``(False, exception)``."""
    try:
        return True, _run(fn, item)
    except Exception as exc:
        return False, exc


class _Worker:
    """One forked process that answers each item it is sent with
    ``(True, fn(item))`` or ``(False, exception)``."""

    def __init__(self, fn: Callable[[Any], Any]) -> None:
        global _busy
        fds: list[int] = []
        try:
            fds += os.pipe()
            fds += os.pipe()
            self.pid = os.fork()
        except OSError:
            for fd in fds:
                os.close(fd)
            raise
        items_r, items_w, results_r, results_w = fds
        _busy = True
        if self.pid == 0:
            try:
                os.close(items_w)
                os.close(results_r)
                _serve(fn, os.fdopen(items_r, "rb"), os.fdopen(results_w, "wb"))
            finally:
                os._exit(0)
        os.close(items_r)
        os.close(results_w)
        self.items, self.results = os.fdopen(items_w, "wb"), os.fdopen(results_r, "rb")
        # poll, not select, which takes no descriptor above FD_SETSIZE
        self.poll = select.poll()
        self.poll.register(results_r, select.POLLIN)

    def _ended(self) -> ChildProcessError:
        return ChildProcessError(f"worker process {self.pid} ended without a result")

    def send(self, item: Any) -> bool:
        """Send ``item``; False, and nothing written, if it does not pickle."""
        try:
            data = pickle.dumps(item, pickle.HIGHEST_PROTOCOL)
        except Exception:
            return False
        try:
            self.items.write(data)
            self.items.flush()
        except BrokenPipeError:
            raise self._ended() from None
        return True

    def ready(self) -> bool:
        """Whether the result of the item the worker holds has begun to
        arrive (or the worker has ended), without waiting."""
        return bool(self.poll.poll(0))

    def receive(self) -> tuple[bool, Any]:
        try:
            return pickle.load(self.results)
        except (EOFError, pickle.UnpicklingError):  # no result, or one cut short
            raise self._ended() from None

    def close(self) -> None:
        """End the worker's input, then wait for it: it finishes the item
        it holds, if any, finds no one to take the result, and exits."""
        global _busy
        # an item sent to a worker that had ended is left in the buffer
        with self.results, contextlib.suppress(BrokenPipeError):
            self.items.close()
        try:
            os.waitpid(self.pid, 0)
        finally:
            _busy = False


def _serve(fn: Callable[[Any], Any], items: BinaryIO, results: BinaryIO) -> None:
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
    """``fn(item)`` for each of ``items``, in order, shared with a forked
    worker (see the module docstring). Results must pickle; an item that
    does not is run in the caller. An exception that ``items`` raises comes,
    like one of ``fn``, after the results before it."""
    pulled = _pulled(items)
    head = list(itertools.islice(pulled, 2))
    worker = None
    if len(head) == 2 and not isinstance(head[1], _Fault) and not _busy and hasattr(os, "fork"):
        with contextlib.suppress(OSError):  # no pipe or no fork to be had
            worker = _Worker(fn)
    if worker is None:
        # at most one item, or no second process to be had: map here
        while head:
            yield _run(fn, head.pop(0))
        for item in pulled:
            yield _run(fn, item)
        return
    try:
        # the index of the item the worker holds, and the results in hand by
        # index: item 0's, and item 1's too if it does not pickle
        held = 1 if worker.send(head[1]) else None
        done = {k: _call(fn, item) for k, item in enumerate(head[:held])}
        head.clear()
        pulls = 2  # the items pulled so far, so the index of the next one
        more = True  # whether ``pulled`` may give more
        for k in itertools.count():
            while k not in done:
                if k != held:
                    return  # every item has come out
                if done or not more or worker.ready():
                    done[k], held = worker.receive(), None
                elif (item := next(pulled, _END)) is _END:
                    more = False
                else:
                    # the worker's result is not ready: run the next item here
                    done[pulls] = _call(fn, item)
                    pulls += 1
            # before the yield, an idle worker gets the next item
            if held is not None and worker.ready():
                done[held], held = worker.receive(), None
            if held is None and more:
                item = next(pulled, _END)
                if item is _END:
                    more = False
                elif not isinstance(item, _Fault) and worker.send(item):
                    held, pulls = pulls, pulls + 1
                else:  # a fault of the items, or an item that does not pickle
                    done[pulls] = _call(fn, item)
                    pulls += 1
            item = None  # keep no item alive while the consumer works
            ok, value = done.pop(k)
            if not ok:
                raise value
            yield value
    finally:
        worker.close()
