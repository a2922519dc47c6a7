"""One forked worker process, for growing a fit's two forests at once.

``ForkWorker`` forks once, when it is made.  The parent sends a task,
``pickle((fn, args))``, over a task pipe and reads its reply over a result
pipe; a task gets its reply before the next one is sent, so a pipe never
holds more than one message.  ``fn`` is pickled by reference, so the worker
runs its own copy of the function that the name is bound to at the fork.

Worker rules:

- every exit path of the worker ends in ``os._exit``, so it never returns
  into the parent's code, flushes the parent's buffers or runs its exit
  handlers;
- an exception raised by a task is pickled back and raised again in the
  parent, with the same type and message;
- closing the task pipe ends the worker, and ``close`` reaps it with
  ``waitpid``.  A worker whose reply will never be read (the parent raised
  while it was busy) is killed instead of waited for.

No thread is started on either side.  This module is imported only when a
worker is made, so a run at one worker never loads it.
"""

from __future__ import annotations

import os
import pickle
import signal


def _serve(tasks: int, results: int) -> None:
    """The worker's loop: run each task and pickle back its reply, until
    the parent closes the task pipe."""
    with open(tasks, "rb") as inbox, open(results, "wb") as outbox:
        while True:
            try:
                fn, args = pickle.load(inbox)
            except EOFError:
                return
            try:
                ok, value = True, fn(*args)
            except Exception as exc:
                ok, value = False, exc
            try:
                data = pickle.dumps((ok, value), pickle.HIGHEST_PROTOCOL)
                if not ok:
                    pickle.loads(data)  # an exception can pickle and yet not unpickle
            except Exception as exc:  # a value or exception that does not pickle: send its text
                why = exc if ok else value
                data = pickle.dumps((False, RuntimeError(f"{type(why).__name__}: {why}")))
            outbox.write(data)
            outbox.flush()


class ForkWorker:
    """A forked process that runs one submitted call at a time.

    ``submit(fn, *args)`` sends the call and returns at once; ``result()``
    waits for its return value, or raises its exception.  Use it as a
    context manager, or call ``close``, so the process is reaped.
    """

    def __init__(self):
        task_r, task_w = os.pipe()
        result_r, result_w = os.pipe()
        try:
            pid = os.fork()
        except BaseException:
            for fd in (task_r, task_w, result_r, result_w):
                os.close(fd)
            raise
        if pid == 0:  # the worker
            code = 1
            try:
                # The parent's ends must close here too: a worker holding the
                # task pipe's write end would never read its end of file.
                os.close(task_w)
                os.close(result_r)
                _serve(task_r, result_w)
                code = 0
            finally:
                os._exit(code)
        os.close(task_r)
        os.close(result_w)
        self.pid = pid
        self._tasks = open(task_w, "wb")
        self._results = open(result_r, "rb")
        self._pending = False

    def submit(self, fn, *args) -> None:
        if self._pending:  # the caller raised before it read the last reply
            pickle.load(self._results)
        # Pickled whole before any byte is sent, so a failure sends nothing.
        self._tasks.write(pickle.dumps((fn, args), pickle.HIGHEST_PROTOCOL))
        self._tasks.flush()
        self._pending = True

    def result(self):
        self._pending = False
        try:
            ok, value = pickle.load(self._results)
        except EOFError:
            raise RuntimeError(f"worker process {self.pid} ended without a reply") from None
        if not ok:
            raise value
        return value

    def close(self) -> None:
        """End the worker and reap it; a busy worker is killed."""
        try:
            self._tasks.close()
        finally:
            self._results.close()
            if self._pending:
                os.kill(self.pid, signal.SIGKILL)
            os.waitpid(self.pid, 0)

    def __enter__(self) -> "ForkWorker":
        return self

    def __exit__(self, *exc) -> None:
        self.close()
