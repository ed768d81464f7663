"""Run one share of a job in this process and in forked children.

The census search and the ``verify lemmas`` sweeps are pure Python, so
they spread over processes, not threads.  :func:`fan_out` runs
``share(claim)`` in this process and in ``processes - 1`` children forked
off it; it alone decides how many processes run, clamping ``processes``
to :func:`cpus_in_use`.  ``claim()`` hands out tickets 0, 1, 2, ... from
one counter in shared memory, each to exactly one caller, so the
processes split the work as they go; a share takes tickets until they
run past its work.

The protocol, for every caller:

* each child pickles ``("ok", result)`` or ``("error", exception)`` into
  its own pipe and leaves through ``os._exit``, never into its caller's
  stack; an exception that does not pickle, or pickles but does not
  unpickle, reaches the caller as a ``RuntimeError`` naming it;
* a child's exception is raised here once this process's share is done;
* when this process's share fails, or a child's exception is raised, every
  child not yet reaped is SIGKILLed;
* a refused ``os.fork`` leaves neither a child nor an open pipe end;
* every child is reaped before :func:`fan_out` returns or raises;
* no child is forked while another thread runs, since it could inherit a
  lock that thread holds: the share then runs here alone.

``multiprocessing`` and ``signal`` are imported only by a fan-out that
forks, so importing grpinv pays for neither.
"""

from __future__ import annotations

import os
import pickle
import threading
from collections.abc import Callable
from itertools import chain, count
from operator import itemgetter
from typing import TypeVar

__all__ = ["cpus_in_use", "fan_out", "run_in_order"]

R = TypeVar("R")


def cpus_in_use() -> int:
    """The CPUs this process may run on: its affinity set where the
    platform has one, else every CPU; 1 where ``os.fork`` does not exist,
    since no second process could be started."""
    if not hasattr(os, "fork"):
        return 1
    # Looked up on each call, as ``os.sched_getaffinity`` is Linux-only.
    affinity = getattr(os, "sched_getaffinity", None)
    if affinity is None:
        return os.cpu_count() or 1
    return len(affinity(0))


def _run_child(write: int, share: Callable, claim: Callable[[], int]) -> None:
    """Run ``share(claim)`` in a forked child and pickle its outcome into
    the pipe ``write``; the child never returns."""
    code = 1
    try:
        try:
            data = pickle.dumps(("ok", share(claim)))
        except BaseException as exc:
            try:
                data = pickle.dumps(("error", exc))
                pickle.loads(data)
            except Exception:
                named = RuntimeError(f"worker process raised {type(exc).__name__}: {exc}")
                data = pickle.dumps(("error", named))
        with os.fdopen(write, "wb") as pipe:
            pipe.write(data)
        code = 0
    finally:
        os._exit(code)


def fan_out(share: Callable[[Callable[[], int]], R], processes: int) -> list[R]:
    """``share(claim)`` in this process and ``processes - 1`` forked
    children, all claiming tickets from one counter: the shares' results,
    this process's first and then the children's in the order forked.

    ``processes`` is clamped to :func:`cpus_in_use`.  With one process or
    fewer, or while another thread runs, the share runs here alone and
    claims every ticket in turn.
    """
    processes = min(processes, cpus_in_use())
    if processes <= 1 or threading.active_count() > 1:
        return [share(count().__next__)]
    # Imported here, so that only a fan-out pays for them.
    import multiprocessing
    import signal

    counter = multiprocessing.get_context("fork").Value("q", 0)

    def claim() -> int:
        with counter.get_lock():
            ticket = counter.value
            counter.value = ticket + 1
        return ticket

    children = []
    reaped = set()
    try:
        for _ in range(processes - 1):
            read, write = os.pipe()
            try:
                pid = os.fork()
            except OSError:
                os.close(read)
                os.close(write)
                raise
            if pid == 0:
                _run_child(write, share, claim)
            os.close(write)
            children.append((pid, os.fdopen(read, "rb")))
        results = [share(claim)]
        for pid, pipe in children:
            data = pipe.read()
            _, status = os.waitpid(pid, 0)
            reaped.add(pid)
            if not data:
                raise RuntimeError(
                    f"worker process {pid} sent nothing (wait status {status})"
                )
            # The bytes come from a child forked off this process.
            kind, result = pickle.loads(data)
            if kind == "error":
                raise result
            results.append(result)
    finally:
        for pid, pipe in children:
            pipe.close()
            if pid not in reaped:
                os.kill(pid, signal.SIGKILL)
                os.waitpid(pid, 0)
    return results


def run_in_order(tasks: list[Callable[[], R]]) -> list[R]:
    """Every task's result in task order, over one process per task as
    :func:`fan_out` clamps it, each claiming one task index at a time.  A
    process stops at its first task that raises.  Every task before the
    least index that raised was claimed and run, so that task's exception,
    raised here, is the one a serial run would raise."""

    def share(claim):
        outcomes = []
        while (k := claim()) < len(tasks):
            try:
                outcomes.append((k, tasks[k](), None))
            except Exception as exc:
                outcomes.append((k, None, exc))
                break
        return outcomes

    shares = fan_out(share, len(tasks))
    results = []
    for _, result, exc in sorted(chain.from_iterable(shares), key=itemgetter(0)):
        if exc is not None:
            raise exc
        results.append(result)
    return results
