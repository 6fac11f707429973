"""Batches of independent runs on forked worker processes.

run_batch(run, items) returns [run(item) for item in items], computed on up to
one process per CPU this process may use. The CLI runs its --x0 starts
through it. Each run's result must pickle (the CLI's are strings) and must
not be None, which marks a run to repeat; an exception need not pickle, as
it never crosses a process boundary.
"""

from __future__ import annotations

import os
import signal
import sys
import threading


def _run_each(run, items) -> list:
    """run(item) for each item in turn, stopping at the first that raises;
    its place holds the exception."""
    results = []
    for item in items:
        try:
            results.append(run(item))
        except Exception as exc:  # raised again, in item order, by run_batch
            results.append(exc)
            break
    return results


def _worker(run, items, conn) -> None:
    """A forked child's loop: send its results, None in place of an
    exception (which may not pickle)."""
    signal.signal(signal.SIGINT, signal.SIG_IGN)  # Ctrl-C is the parent's to handle
    results = _run_each(run, items)
    if results and isinstance(results[-1], Exception):
        results[-1] = None
    conn.send(results)


def run_batch(run, items: list) -> list:
    """[run(item) for item in items] on w processes.

    w is the number of CPUs in os.sched_getaffinity, at most len(items). It
    is 1 where the platform cannot say which CPUs this process may use, or
    where another thread is live: a forked child gets only the calling
    thread, and any lock another thread held stays locked in it.

    This process takes items 0, w, 2w, ...; each of w - 1 forked children
    takes another residue class mod w and sends back its results in one
    message. Fork, not spawn: a child starts in milliseconds, with what
    this process built (a system's compiled fields) in place. A run that
    raised, in this process or in a child, raises here in item order: the
    first one in a child is re-run here for its exception, so the caller
    reports the failure that running the items in turn reports. Every child
    is joined before this returns, and terminated first if this process is
    unwinding.
    """
    n = len(items)
    w = 1
    if n > 1 and threading.active_count() == 1 and hasattr(os, "sched_getaffinity"):
        w = min(n, len(os.sched_getaffinity(0)))
    results: list = [None] * n
    children = []
    try:
        if w > 1:
            import multiprocessing
            ctx = multiprocessing.get_context("fork")
            # a child exits through flushing these; their buffers must be empty
            sys.stdout.flush()
            sys.stderr.flush()
            for k in range(1, w):
                recv, send = ctx.Pipe(duplex=False)
                child = ctx.Process(target=_worker, args=(run, items[k::w], send))
                child.start()
                send.close()
                children.append((k, child, recv))
        for i, result in zip(range(0, n, w), _run_each(run, items[0::w])):
            results[i] = result
        for k, child, recv in children:
            try:
                for i, result in zip(range(k, n, w), recv.recv()):
                    results[i] = result
            except EOFError:  # the child died; its items are re-run below
                pass
    except BaseException:
        for _, child, _ in children:
            child.terminate()
        raise
    finally:
        for _, child, recv in children:
            child.join()
            recv.close()
    for i, result in enumerate(results):
        if isinstance(result, Exception):
            raise result
        if result is None:  # failed or lost in a child: its error, if any, here
            results[i] = run(items[i])
    return results
