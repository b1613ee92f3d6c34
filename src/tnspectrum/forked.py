"""The forked fold: the caller and its forked children drain one queue of shards.

``spectrum`` imports this module only when a fold forks, so an invocation that
folds in-process never compiles it.
"""

from __future__ import annotations

import builtins
import marshal
import os
from operator import add
from signal import SIGKILL
from typing import Callable


def fold_forked(
    fold: Callable[[tuple[int, int]], None],
    shards: list[tuple[int, int]],
    workers: int,
    sums: tuple[list[int], ...],
) -> None:
    """Call ``fold(shard)`` for every shard, on the caller and ``workers - 1`` forked children.

    ``fold`` adds into the lists ``sums``, the caller's in the caller and a copy of them in
    each child, and the caller adds each child's ``sums`` into its own once. The shards'
    indices wait in one queue pipe, 2 bytes each in the order given; at n = 300 they take
    2,386 bytes, one atomic write. Every process, the caller too, reads one index at a time
    and folds that shard until the pipe is empty, so an idle worker takes the next shard,
    largest subtrees first. Right after each fork the caller moves the child onto the usable
    CPUs but its own: on a 2-core box whose scheduler left a forked child on its parent's
    CPU, ``tnspec spectrum N`` with the move beat it without in 35 and then 36 of 36
    fresh-process pairs, 12 at each of n = 38, 41 and 44. A child that moved itself could
    not run the move until the scheduler preempted its parent on the shared CPU: in 12 runs
    at each of n = 40 and 44 its first shard started a median 3.6 and 4.5 ms after the fold
    began, and 1.9 ms at both when the caller moves it. A child sends its ``sums`` on a pipe
    of its own as one ``marshal`` blob and ends with ``os._exit``, which flushes no buffer
    it shares with the caller. A child that raises sends the name of the nearest built-in
    class of its exception and the message instead, and exits 1 with no traceback; the
    caller raises that built-in type. The caller reads each pipe to EOF before it reaps the
    child, as one blob can outgrow the pipe's 64 KiB buffer (the whole fold's accumulators
    take 67.8 KB at n = 56 and 35.0 KB at n = 44), and it kills and reaps every child that
    is left when it raises itself, so no child outlives the call. A child holds no read end
    of any result pipe, so when the caller is killed its write fails instead of blocking,
    and it takes no more shards once it has a new parent.

    A failed ``os.pipe`` or ``os.fork`` (an ``OSError``, such as EMFILE or EAGAIN) ends the
    forking: without a queue the caller folds every shard itself, and otherwise the caller
    and the children already forked drain it. Bucket addition commutes, so the sums are the
    same.
    """

    def drain():  # a child stops once it has a new parent; the caller never does
        while caller in (os.getpid(), os.getppid()) and (index := os.read(queue, 2)):
            fold(shards[int.from_bytes(index, "little")])

    caller, others = os.getpid(), other_cpus()
    try:
        queue, feed = os.pipe()
    except OSError:  # no queue to share: the caller folds every shard itself
        for shard in shards:
            fold(shard)
        return
    os.write(feed, b"".join(i.to_bytes(2, "little") for i in range(len(shards))))
    os.close(feed)
    children = {}  # pid: the read end of its result pipe
    try:
        for _ in range(workers - 1):
            try:
                read, write = os.pipe()
            except OSError:  # out of descriptors: the processes already running drain the queue
                break
            try:
                pid = os.fork()
            except OSError:  # out of processes or memory: likewise, once this pipe is closed
                os.close(read)
                os.close(write)
                break
            if pid == 0:
                status = 1
                try:
                    os.close(read)  # else a write to a dead caller blocks forever
                    for pipe in children.values():
                        pipe.close()
                    try:
                        drain()
                        blob, code = marshal.dumps(sums), 0
                    except BaseException as exc:
                        kind = next(k for k in type(exc).__mro__ if k.__module__ == "builtins")
                        blob, code = marshal.dumps((kind.__name__, str(exc))), 1
                    with open(write, "wb") as pipe:
                        pipe.write(blob)
                    status = code
                finally:
                    os._exit(status)
            if others:  # a forked child starts on its parent's CPU and may stay there
                try:
                    os.sched_setaffinity(pid, others)
                except OSError:  # none of them is online, or the child has ended
                    pass
            os.close(write)
            children[pid] = open(read, "rb")
        drain()
        for pid, pipe in list(children.items()):
            blob = pipe.read()
            status = os.waitstatus_to_exitcode(os.waitpid(pid, 0)[1])
            del children[pid]
            pipe.close()
            if status == 0:
                for mine, theirs in zip(sums, marshal.loads(blob)):
                    mine[:] = map(add, mine, theirs)
            elif status == 1 and blob:
                name, message = marshal.loads(blob)
                raise getattr(builtins, name)(message)
            else:
                raise ChildProcessError(
                    f"fold worker {pid} ended with status {status} and sent no result"
                )
    finally:
        os.close(queue)
        for pid, pipe in children.items():  # left only when the call raises
            pipe.close()
            os.kill(pid, SIGKILL)
            os.waitpid(pid, 0)


def other_cpus() -> set[int]:
    """The usable CPUs but the one this process runs on, where Linux's ``/proc`` names it."""
    try:
        with open("/proc/self/stat", "rb") as stat:
            cpu = int(stat.read().rsplit(b")", 1)[1].split()[36])  # field 39, "processor"
    except OSError:
        return set()
    return os.sched_getaffinity(0) - {cpu}
