"""The forked fold: the caller and its forked children drain one queue of shards.

``spectrum`` imports this module only when a fold forks, so an invocation that
folds in-process never compiles it.
"""

from __future__ import annotations

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
) -> bool:
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
    it shares with the caller. The caller reads every pipe to EOF before it reaps any child,
    as one blob can outgrow the pipe's 64 KiB buffer (the whole fold's accumulators take
    67.8 KB at n = 56 and 35.0 KB at n = 44). Then it reaps every child, killing it first
    only if the call raised before that, so no child outlives the call. A child holds no
    read end of any result pipe, so when the caller is killed its write fails instead of
    blocking, and it takes no more shards once it has a new parent.

    A child counts when its whole blob decodes, whatever its exit status, and one reaped
    already is no error: where SIGCHLD is ignored, ``os.waitpid`` fails with ECHILD and the
    forked answer is kept. Every failure takes one path: a failed ``os.pipe``, ``os.fork``
    or ``os.read`` (an ``OSError``: EMFILE or EAGAIN), or a child that raises or ends before
    its blob is whole (it prints no traceback, and its empty or cut blob raises ``EOFError``
    or ``ValueError``). The caller zeroes ``sums`` and returns False, and ``spectrum`` folds
    the whole walk in-process: bucket addition commutes, so the answer is the same.
    """

    def drain():  # a child stops once it has a new parent; the caller never does
        while caller in (os.getpid(), os.getppid()) and (index := os.read(queue, 2)):
            fold(shards[int.from_bytes(index, "little")])

    caller, others = os.getpid(), other_cpus()
    try:
        queue, feed = os.pipe()
        os.write(feed, b"".join(i.to_bytes(2, "little") for i in range(len(shards))))
        os.close(feed)
        children, blobs = {}, None  # pid: the read end of its result pipe; then their blobs
        try:
            for _ in range(workers - 1):
                read, write = os.pipe()
                try:
                    pid = os.fork()
                except BaseException:  # the call fails with this child's pipe closed
                    os.close(read)
                    os.close(write)
                    raise
                if pid == 0:  # a child sends its sums, or nothing if it fails
                    try:
                        os.close(read)  # else a write to a dead caller blocks forever
                        for pipe in children.values():
                            pipe.close()
                        drain()
                        with open(write, "wb") as pipe:
                            pipe.write(marshal.dumps(sums))
                        os._exit(0)
                    finally:
                        os._exit(1)
                if others:  # a forked child starts on its parent's CPU and may stay there
                    try:
                        os.sched_setaffinity(pid, others)
                    except OSError:  # none of them is online, or the child has ended
                        pass
                os.close(write)
                children[pid] = open(read, "rb")
            drain()
            blobs = [pipe.read() for pipe in children.values()]
        finally:
            os.close(queue)
            for pid, pipe in children.items():
                pipe.close()
                try:
                    if blobs is None:  # the call raised before every blob was read
                        os.kill(pid, SIGKILL)
                    os.waitpid(pid, 0)
                except OSError:  # reaped already, as where SIGCHLD is ignored
                    pass
        for blob in blobs:  # an empty or cut blob raises EOFError or ValueError
            for mine, theirs in zip(sums, marshal.loads(blob)):
                mine[:] = map(add, mine, theirs)
    except (OSError, EOFError, ValueError):  # every failure: the caller folds the whole walk
        for mine in sums:
            mine[:] = [0] * len(mine)
        return False
    return True


def other_cpus() -> set[int]:
    """The usable CPUs but the one this process runs on, where Linux's ``/proc`` names it."""
    try:
        with open("/proc/self/stat", "rb") as stat:
            cpu = int(stat.read().rsplit(b")", 1)[1].split()[36])  # field 39, "processor"
    except OSError:
        return set()
    return os.sched_getaffinity(0) - {cpu}
