import errno
import importlib
import io
import math
import os
import select
import signal
import subprocess
import sys
from fractions import Fraction
from types import SimpleNamespace

import pytest

from tnspectrum import (
    Partition,
    Spectrum,
    character_ratio,
    conjugate,
    degree,
    eigenvalue,
    eigenvalue_set,
    eigenvalue_upper_bound,
    enumerate_partitions,
    multiplicity,
    spectrum,
    top_eigenvalues,
)
from tnspectrum.cli import main

spectrum_module = importlib.import_module("tnspectrum.spectrum")
forked_module = importlib.import_module("tnspectrum.forked")
FOLD_MAX_N = spectrum_module.FOLD_MAX_N
#: the sizes past n = 30 that the closed forms and the walk moments are checked at
LARGE_NS = [*range(38, 45), 50, 60]


def accumulators(n):
    """Empty ``strict`` and ``square`` accumulators for ``_fold``, one count per eigenvalue."""
    return [0] * (n * (n - 1) + 1), [0] * (n * (n - 1) + 1)


def plain_fold(n):
    """Reference spectrum: every partition folded on its own, no conjugation symmetry."""
    buckets = {}
    for p in enumerate_partitions(n):
        value = eigenvalue(p)
        buckets[value] = buckets.get(value, 0) + degree(p) ** 2
    return tuple(sorted(buckets.items(), reverse=True))


@pytest.fixture
def pools(monkeypatch):
    """Record the forked folds on a machine of 4 CPUs, all usable; the forks are real.

    ``sizes`` lists the worker count of each forked fold: the caller and the children
    it forked. A fork outside a forked fold fails the test that made it.
    """
    built = SimpleNamespace(sizes=[])
    fork, fold_forked = os.fork, forked_module.fold_forked

    def recording_fork():
        built.sizes[-1] += 1
        return fork()

    def recording_fold_forked(fold, shards, workers, sums):
        built.sizes.append(1)
        return fold_forked(fold, shards, workers, sums)

    monkeypatch.setattr(os, "fork", recording_fork)
    monkeypatch.setattr(forked_module, "fold_forked", recording_fold_forked)
    monkeypatch.setattr(spectrum_module.os, "cpu_count", lambda: 4)
    monkeypatch.setattr(
        spectrum_module.os, "sched_getaffinity", lambda pid: {0, 1, 2, 3}, raising=False
    )
    return built


def inexact_factorial(monkeypatch, k=None):
    """Make ``_fold`` read k! + 1 for k!, n! + 1 for n! by default, so a hook product no
    longer divides what it reads."""
    factorials = spectrum_module._factorials

    def inexact(n):
        fact = factorials(n)
        fact[n if k is None else k] += 1
        return fact

    monkeypatch.setattr(spectrum_module, "_factorials", inexact)


def append_line(path, line):
    """Append ``line`` to ``path`` in one write to a file opened with O_APPEND, from any process."""
    fd = os.open(path, os.O_WRONLY | os.O_APPEND | os.O_CREAT)
    try:
        os.write(fd, f"{line}\n".encode())
    finally:
        os.close(fd)


def fail_call(monkeypatch, name, call):
    """Make call number ``call`` of ``os.<name>`` raise as the OS does when it is out of
    processes (``fork``) or descriptors (``pipe``); the other calls run. Returns the calls made.
    """
    real, calls = getattr(os, name), []
    code = errno.EAGAIN if name == "fork" else errno.EMFILE

    def failing():
        calls.append(name)
        if len(calls) == call:
            raise OSError(code, os.strerror(code))
        return real()

    monkeypatch.setattr(os, name, failing)
    return calls


def open_fds():
    """The descriptors this process holds open, where Linux's ``/proc`` lists them; else None."""
    try:
        return set(os.listdir("/proc/self/fd"))
    except OSError:
        return None


@pytest.fixture
def fold_log(monkeypatch, tmp_path):
    """Log each ``_fold`` call, in whichever process makes it, to a file opened with O_APPEND.

    Calling the fixture reads and empties the log: (pid, n, root) per call, in the order
    the calls began.
    """
    path = tmp_path / "folds"
    fold = spectrum_module._fold

    def logging_fold(n, root, strict, square):
        append_line(path, f"{os.getpid()} {n} {root[0]} {root[1]}")
        return fold(n, root, strict, square)

    def read():
        lines = path.read_text().splitlines() if path.exists() else []
        path.unlink(missing_ok=True)
        rows = (map(int, line.split()) for line in lines)
        return [(pid, n, (s, m)) for pid, n, s, m in rows]

    monkeypatch.setattr(spectrum_module, "_fold", logging_fold)
    return read


def domino_removals(p):
    """(sign, p less the domino) for each domino on the rim of ``p``: +1 horizontal, -1 vertical."""
    rows = [*p, 0, 0]
    for i in range(len(p)):
        if rows[i] - 2 >= rows[i + 1]:  # the last two boxes of row i
            yield 1, Partition(filter(None, [*rows[:i], rows[i] - 2, *rows[i + 1:]]))
        if rows[i] == rows[i + 1] > rows[i + 2]:  # the last boxes of rows i and i + 1
            yield -1, Partition(filter(None, [*rows[:i], rows[i] - 1, rows[i] - 1, *rows[i + 2:]]))


class TestEigenvalue:
    def test_examples(self):
        assert eigenvalue(Partition((2,))) == 1
        assert eigenvalue(Partition((1, 1))) == -1
        assert eigenvalue(Partition((2, 1))) == 0
        assert eigenvalue(Partition((4,))) == 6
        assert eigenvalue(Partition((1,))) == 0

    def test_conjugation_negates_property(self, box_partitions):
        for p in box_partitions:
            assert eigenvalue(conjugate(p)) == -eigenvalue(p), p

    def test_magnitude_capped_by_transposition_count(self, box_partitions):
        for p in box_partitions:
            assert abs(eigenvalue(p)) <= p.n * (p.n - 1) // 2, p

    @pytest.mark.parametrize("n", range(1, 21))
    def test_murnaghan_nakayama_at_a_transposition(self, n):
        # the character at a transposition is the signed sum of the degrees left by
        # removing one rim domino, and the eigenvalue is C(n, 2) times it over the degree
        for p in enumerate_partitions(n):
            character = sum(sign * degree(rest) for sign, rest in domino_removals(p))
            assert eigenvalue(p) * degree(p) == n * (n - 1) // 2 * character, p


class TestCharacterRatio:
    def test_examples(self):
        assert character_ratio(Partition((5,))) == Fraction(1)
        assert character_ratio(Partition((1, 1))) == Fraction(-1)
        assert character_ratio(Partition((2, 1))) == Fraction(0)

    def test_rejects_n1(self):
        with pytest.raises(ValueError):
            character_ratio(Partition((1,)))

    @pytest.mark.parametrize("n", range(2, 13))
    def test_ratio_times_transposition_count_is_eigenvalue(self, n):
        pairs = n * (n - 1) // 2
        for p in enumerate_partitions(n):
            assert character_ratio(p) * pairs == eigenvalue(p)


class TestUpperBound:
    def test_examples(self):
        assert eigenvalue_upper_bound(Partition((6,))) == 15
        assert eigenvalue_upper_bound(Partition((2, 1))) == 2
        assert eigenvalue_upper_bound(Partition((2, 1, 1))) == 4
        assert eigenvalue_upper_bound(Partition()) == 0 == eigenvalue(Partition())

    @pytest.mark.parametrize("n", range(21))
    def test_values_are_the_closed_form(self, n):
        # twice the bound is (n - n_k)(n - n_k + 1) + n_k (n_k - 2k + 1) for k parts,
        # the smallest n_k; the empty partition has k = n_k = 0
        for p in enumerate_partitions(n) if n else [Partition()]:
            k, last = len(p), p[-1] if p else 0
            twice = (n - last) * (n - last + 1) + last * (last - 2 * k + 1)
            assert 2 * eigenvalue_upper_bound(p) == twice

    def test_bound_property(self, box_partitions):
        for p in box_partitions:
            assert eigenvalue(p) <= eigenvalue_upper_bound(p), p


class TestSpectrum:
    def test_n3(self):
        assert spectrum(3).entries == ((3, 1), (0, 4), (-3, 1))

    def test_n5(self):
        assert spectrum(5).entries == (
            (10, 1), (5, 16), (2, 25), (0, 36), (-2, 25), (-5, 16), (-10, 1),
        )

    def test_resource_guard(self):
        # the ceiling is TestFoldCeiling's, whose stubbed fold cannot run if the check slips
        with pytest.raises(ValueError, match="^n must be positive, got 0$"):
            spectrum(0)

    @pytest.mark.parametrize(
        "entries, failed",
        [
            (((6, 1), (2, 9), (0, 5), (-2, 9), (-6, 1)), {"multiplicity_sum_is_factorial"}),
            (((6, 1), (2, 10), (0, 4), (-2, 8), (-6, 1)),
             {"trace_is_zero", "symmetric_about_zero"}),  # a symmetric spectrum has trace 0
            (((6, 1), (2, 8), (0, 6), (-2, 8), (-6, 1)), {"square_trace_is_twice_edge_count"}),
            (((6, 1), (4, 1), (1, 6), (0, 13), (-5, 2), (-6, 1)), {"symmetric_about_zero"}),
            (((6, 2), (0, 20), (-6, 2)), {"largest_eigenvalue_is_simple"}),
        ],
        ids=["order", "trace", "square_trace", "symmetry", "simple_top"],
    )
    def test_each_check_fails_on_a_spectrum_broken_for_it(self, entries, failed):
        checks = Spectrum(4, entries).invariant_checks()
        assert {name for name, passed in checks.items() if not passed} == failed

    def test_lookup_helpers(self):
        spec = spectrum(4)
        assert spec.order == 24
        assert spec.multiplicity(2) == 9
        assert spec.multiplicity(5) == 0
        assert 2 in spec
        assert 5 not in spec

    def test_value_semantics(self):
        spec = spectrum(6)
        assert spec == spectrum(6)
        assert hash(spec) == hash(spectrum(6))
        with pytest.raises(AttributeError):
            spec.entries = ()

    @pytest.mark.parametrize("n", range(1, 31))
    def test_matches_plain_fold(self, n):
        assert spectrum(n).entries == plain_fold(n)

    @pytest.mark.parametrize("n", range(1, 13))
    def test_completed_names_the_visited_partition(self, n):
        # the fold keeps the rows below the first row of a partition, bottom first
        for p in enumerate_partitions(n):
            assert spectrum_module._completed(p[0], list(reversed(p[1:]))) == p

    def test_hook_product_exactness_is_checked(self, monkeypatch):
        inexact_factorial(monkeypatch)
        with pytest.raises(ArithmeticError, match="does not divide"):
            spectrum(6)

    @pytest.mark.parametrize(
        "n, k, root, named",
        [(8, 8, (2, 2), "2, 2"), (7, 5, (2, 2), "3, 2, 2"), (9, 9, (0, 0), "1, 1"),
         (6, 6, (1, 1), "3, 2, 1"), (7, 7, (0, 0), "1, 1"), (6, 6, (0, 0), "3, 2, 1")],
        ids=["shard-root", "node", "child-tail", "leaf", "pre-leaf-tail", "pre-leaf-leaf"],
    )
    def test_each_division_is_checked(self, monkeypatch, n, k, root, named):
        # with k! read as k! + 1, the first division that goes wrong is the root's n!/H(s^m),
        # a node's own partition, a child tail's n!/H(nu), a leaf (or a pre-leaf's own
        # partition) folded in its parent's loop, a pre-leaf's n!/H(nu) there, and a leaf of
        # that pre-leaf, read off the parent's table
        inexact_factorial(monkeypatch, k)
        with pytest.raises(ArithmeticError, match=rf"does not divide {n}! for Partition\({named}\)$"):
            spectrum_module._fold(n, root, *accumulators(n))

    @pytest.mark.parametrize("threads", [2, 3])
    def test_pooled_shards_match_plain_fold(self, pools, monkeypatch, threads):
        monkeypatch.setattr(spectrum_module, "PARALLEL_MIN_N", 1)
        for n in range(1, 31):
            assert spectrum(n, threads=threads).entries == plain_fold(n), n
        # n = 1 and n = 2 are a single shard each and fold in-process
        assert len(pools.sizes) == 28

    def test_pool_takes_one_shard_per_task(self, pools, fold_log, monkeypatch):
        # every shard is one take from the queue, and each worker takes its shards
        # in _shards' order, so an idle worker takes the next one
        monkeypatch.setattr(spectrum_module, "PARALLEL_MIN_N", 1)
        for n in (3, 12, 30):
            spectrum(n, threads=2)
            shards = spectrum_module._shards(n)
            folds = fold_log()
            assert sorted(root for _, _, root in folds) == sorted(shards), n
            assert {size for _, size, _ in folds} == {n}
            for worker in {pid for pid, _, _ in folds}:
                taken = [shards.index(root) for pid, _, root in folds if pid == worker]
                assert taken == sorted(taken), n

    @pytest.mark.parametrize(
        "n, threads, floor, mask, cpus, processes",
        [
            (39, 2, None, {0, 1, 2, 3}, 4, 1),
            (40, 2, None, {0, 1, 2, 3}, 4, 2),
            (30, 1, 1, {0, 1, 2, 3}, 4, 1),
            (30, 10**6, 1, {0, 1, 2, 3}, 4, 4),
            (2, 3, 1, {0, 1, 2, 3}, 4, 1),
            (30, 4, 1, {0}, 4, 1),
            (30, 4, 1, {0, 1}, 4, 2),
            (30, 8, 1, None, None, 1),
        ],
        ids=["below-floor", "floor", "one-thread", "cpu-cap", "shard-cap", "mask-of-one",
             "mask-of-two", "no-mask-no-cpu-count"],
    )
    def test_worker_count(self, pools, fold_log, monkeypatch, n, threads, floor, mask, cpus,
                          processes):
        # min(threads, usable CPUs, shards) processes fold from n = PARALLEL_MIN_N on (floor
        # None keeps the real 40); the usable CPUs are the affinity mask (None: the platform
        # has none), else cpu_count. An in-process fold is one walk from the empty tail,
        # and builds the shards only if it might have forked.
        serial = spectrum(n)
        fold_log()
        if floor is not None:
            monkeypatch.setattr(spectrum_module, "PARALLEL_MIN_N", floor)
        if mask is None:
            monkeypatch.delattr(spectrum_module.os, "sched_getaffinity")
        else:
            # the mask of this process, pid 0, alone
            monkeypatch.setattr(spectrum_module.os, "sched_getaffinity",
                                lambda pid: mask if pid == 0 else set())
        monkeypatch.setattr(spectrum_module.os, "cpu_count", lambda: cpus)
        shards, built = spectrum_module._shards, []
        monkeypatch.setattr(spectrum_module, "_shards", lambda n: built.append(n) or shards(n))
        assert spectrum(n, threads=threads) == serial
        assert pools.sizes == ([processes] if processes > 1 else [])
        assert built == ([n] if threads > 1 and n >= spectrum_module.PARALLEL_MIN_N else [])
        if processes == 1:
            assert fold_log() == [(os.getpid(), n, (0, 0))]

    def test_queries_fold_in_process_by_default(self, pools, monkeypatch):
        # threads defaults to 1: past the size floor and with 4 usable CPUs, nothing forks
        monkeypatch.setattr(spectrum_module, "PARALLEL_MIN_N", 1)
        spectrum(12)
        multiplicity(12, 0)
        top_eigenvalues(12, 2)
        assert pools.sizes == []

    def test_rejects_bad_thread_count(self):
        with pytest.raises(ValueError):
            spectrum(6, threads=0)

    @pytest.mark.parametrize("n", range(1, 31))
    def test_shards_cover_the_walk_once(self, n):
        # (0, 0) is the empty rectangle: its children start at row 1, so it
        # roots the whole walk from the empty tail
        whole, merged = accumulators(n), accumulators(n)
        spectrum_module._fold(n, (0, 0), *whole)
        for shard in spectrum_module._shards(n):
            spectrum_module._fold(n, shard, *merged)
        assert whole == merged

    def test_visit_calls_at_44(self):
        # the kernel's shape: only a node with a grandchild that has children of its own is
        # a call; a pre-leaf, whose children are all leaves, and a leaf are folded in their
        # parent's loop, so 2,743 calls fold n = 44, whose walk has 8,819 nodes with children
        path, visits = spectrum_module.__file__, 0

        def profile(frame, event, arg):
            nonlocal visits
            code = frame.f_code
            visits += event == "call" and (code.co_filename, code.co_name) == (path, "visit")

        sys.setprofile(profile)
        try:
            spectrum_module._fold(44, (0, 0), *accumulators(44))
        finally:
            sys.setprofile(None)
        assert visits == 2743

    def test_smallest_tail_first(self):
        # the pool's queue hands out the shards in this order, largest subtrees first;
        # of two equal tails s*m the one with the shorter rows comes first
        assert spectrum_module._shards(6) == [(6, 0), (1, 1), (1, 2), (2, 1), (3, 1)]
        for n in range(1, 61):
            keys = [(s * m, s) for s, m in spectrum_module._shards(n)]
            assert keys == sorted(keys), n

    @pytest.mark.parametrize("n", range(1, 31))
    def test_one_row_shard(self, n):
        # the empty rectangle n^0 is the partition (n) alone, index 2 C(n, 2) of the strict
        # accumulator; at n = 1 it is (1), whose first part equals its length
        strict, square = accumulators(n)
        spectrum_module._fold(n, (n, 0), strict, square)
        alone = [0] * (n * (n - 1)) + [1]
        assert (strict, square) == ((alone, [0] * len(alone)) if n > 1 else ([0], [1]))


class Folding(Exception):
    """Raised in place of ``_fold``: the fold was about to start."""


class TestFoldCeiling:
    @pytest.fixture
    def unfolded(self, monkeypatch):
        def fold(n, root, strict, square):
            raise Folding(n)

        monkeypatch.setattr(spectrum_module, "_fold", fold)

    @pytest.mark.parametrize("n", [FOLD_MAX_N + 1, 10**19])
    @pytest.mark.parametrize(
        "query, rest",
        [(spectrum, ()), (multiplicity, (0,)), (top_eigenvalues, (2,)), (eigenvalue_set, ())],
        ids=["spectrum", "multiplicity", "top_eigenvalues", "eigenvalue_set"],
    )
    def test_refused_before_the_fold(self, unfolded, query, rest, n):
        message = f"^n = {n} exceeds the fold ceiling FOLD_MAX_N = {FOLD_MAX_N}$"
        with pytest.raises(ValueError, match=message):
            query(n, *rest)

    def test_ceiling_itself_is_folded(self, unfolded):
        with pytest.raises(Folding):
            spectrum(FOLD_MAX_N)

    def test_recursion_margin(self):
        # the walk at the ceiling is 148 visit frames deep, down the tail 1^147 it
        # takes first, and needs 150 frames above this one; a limit 200 frames
        # above it leaves the deadline, not a RecursionError, to stop the fold
        class Deadline(Exception):
            pass

        def expire(signum, frame):
            raise Deadline

        depth, frame = 0, sys._getframe()
        while frame is not None:
            depth, frame = depth + 1, frame.f_back
        limit = sys.getrecursionlimit()
        handler = signal.signal(signal.SIGALRM, expire)
        sys.setrecursionlimit(depth + 200)
        try:
            signal.setitimer(signal.ITIMER_REAL, 0.5)
            with pytest.raises(Deadline):
                spectrum(FOLD_MAX_N)
        finally:
            signal.setitimer(signal.ITIMER_REAL, 0)
            sys.setrecursionlimit(limit)
            signal.signal(signal.SIGALRM, handler)


class TestForkedFold:
    """The caller and its forked children drain one queue of shards; no child outlives the call."""

    @pytest.mark.parametrize("workers", [2, 4])
    def test_every_shard_folded_once(self, pools, fold_log, large_spectra, workers):
        serial = large_spectra(44)
        fold_log()  # drops the serial fold, if this test was the first to ask for it
        assert spectrum(44, threads=workers) == serial
        assert pools.sizes == [workers]
        folds = fold_log()
        assert sorted(root for _, _, root in folds) == sorted(spectrum_module._shards(44))
        assert len({pid for pid, _, _ in folds}) <= workers

    def test_corrupt_hook_product_raises_in_the_caller(self, pools, monkeypatch):
        inexact_factorial(monkeypatch)
        with pytest.raises(ArithmeticError, match="does not divide"):
            spectrum(44, threads=2)
        assert pools.sizes == [2]
        with pytest.raises(ChildProcessError):  # every child was reaped
            os.waitpid(-1, os.WNOHANG)

    def test_worker_error_is_raised_as_its_builtin_type(self, pools, monkeypatch, capfd):
        # the caller folds nothing until a child has taken a shard and raised, so the
        # error can only come from the child, which prints no traceback
        class Unfoldable(MemoryError):
            pass

        caller, (started, start) = os.getpid(), os.pipe()
        waited = []

        def fold(n, root, strict, square):
            if os.getpid() != caller:
                os.write(start, b".")
                raise Unfoldable(f"no room for {root}")
            if not waited:  # for at most 10 s: a fold that forks nothing fails, not hangs
                waited.append(select.select([started], [], [], 10)[0])

        monkeypatch.setattr(spectrum_module, "PARALLEL_MIN_N", 1)
        monkeypatch.setattr(spectrum_module, "_fold", fold)
        try:
            with pytest.raises(MemoryError, match=r"^no room for \(") as raised:
                spectrum(30, threads=2)
        finally:
            os.close(started)
            os.close(start)
        assert type(raised.value) is MemoryError
        assert waited == [[started]]
        assert capfd.readouterr() == ("", "")
        with pytest.raises(ChildProcessError):
            os.waitpid(-1, os.WNOHANG)

    def test_child_that_dies_without_a_result(self, pools, monkeypatch):
        fork = os.fork

        def dying_fork():
            pid = fork()
            if pid == 0:
                os.kill(os.getpid(), signal.SIGKILL)
            return pid

        monkeypatch.setattr(spectrum_module, "PARALLEL_MIN_N", 1)
        monkeypatch.setattr(os, "fork", dying_fork)
        with pytest.raises(ChildProcessError, match="status -9 and sent no result"):
            spectrum(30, threads=2)
        with pytest.raises(ChildProcessError):
            os.waitpid(-1, os.WNOHANG)

    def test_result_larger_than_a_pipe_buffer(self, pools, monkeypatch):
        # a child's blob of 133 counts of 10**3000 each outgrows the 64 KiB pipe buffer, so
        # the caller must read it to EOF before it waits for the child; a 3 s deadline, well
        # above the 0.03 s the healthy fold takes, turns a deadlock into a failure
        class Deadline(Exception):
            pass

        def expire(signum, frame):
            raise Deadline

        def fold(n, root, strict, square):
            square[:] = [mult + 10**3000 for mult in square]

        monkeypatch.setattr(spectrum_module, "PARALLEL_MIN_N", 1)
        monkeypatch.setattr(spectrum_module, "_fold", fold)
        handler = signal.signal(signal.SIGALRM, expire)
        try:
            signal.setitimer(signal.ITIMER_REAL, 3)
            spec = spectrum(12, threads=2)
        finally:
            signal.setitimer(signal.ITIMER_REAL, 0)
            signal.signal(signal.SIGALRM, handler)
        shards = len(spectrum_module._shards(12))
        assert spec.entries == tuple((v, shards * 10**3000) for v in range(66, -67, -1))
        assert pools.sizes == [2]

    @pytest.mark.parametrize("workers", [2, 3])
    def test_worker_ends_when_its_caller_is_killed(self, child_env, workers):
        # the caller sleeps once it has forked, so each worker's blob of 133 counts of
        # 10**3000 outgrows the 64 KiB pipe buffer; then the caller is killed. Only the workers
        # hold the write end of `ended`, so EOF there means they have all ended, reaped
        # or not.
        ended, hold = os.pipe()
        script = (
            "import os, sys, time, importlib\n"
            "from tnspectrum import spectrum\n"
            "module = importlib.import_module('tnspectrum.spectrum')\n"
            "workers, hold = int(sys.argv[1]), int(sys.argv[2])\n"
            "os.sched_getaffinity = lambda pid: set(range(workers))\n"
            "fork, forks = os.fork, []\n"
            "def forked():\n"
            "    pid = fork()\n"
            "    if pid:\n"
            "        forks.append(pid)\n"
            "        if len(forks) == workers - 1:\n"
            "            os.close(hold)\n"
            "            print(*forks, flush=True)\n"
            "            time.sleep(60)\n"
            "    return pid\n"
            "os.fork = forked\n"
            "def fold(n, root, strict, square):\n"
            "    square[:] = [10**3000] * len(square)\n"
            "module._fold = fold\n"
            "module.PARALLEL_MIN_N = 1\n"
            "spectrum(12, threads=workers)\n"
        )
        caller = subprocess.Popen(
            [sys.executable, "-c", script, str(workers), str(hold)],
            stdout=subprocess.PIPE,
            env=child_env,
            pass_fds=(hold,),
        )
        os.close(hold)
        forked = []
        try:
            forked = [int(pid) for pid in caller.stdout.readline().split()]
            assert len(forked) == workers - 1
            caller.kill()
            caller.wait()
            assert select.select([ended], [], [], 10)[0] == [ended]
            assert os.read(ended, 1) == b""
        finally:
            if not select.select([ended], [], [], 0)[0]:  # a worker still runs
                for pid in forked:
                    try:
                        os.kill(pid, signal.SIGKILL)
                    except ProcessLookupError:
                        pass
            caller.kill()
            caller.wait()
            caller.stdout.close()
            os.close(ended)

    def test_unflushed_output_is_written_once(self, child_env):
        # stdout on a pipe is block-buffered, unless PYTHONUNBUFFERED is set: the text is
        # still in the buffer at the fork
        env = {key: value for key, value in child_env.items() if key != "PYTHONUNBUFFERED"}
        script = (
            "import os, importlib\n"
            "from tnspectrum import spectrum\n"
            "module = importlib.import_module('tnspectrum.spectrum')\n"
            "os.sched_getaffinity = lambda pid: {0, 1}\n"
            "fork, forks = os.fork, []\n"
            "os.fork = lambda: forks.append(1) or fork()\n"
            "print('printed before the fold')\n"
            "spectrum(module.PARALLEL_MIN_N, threads=2)\n"
            "print(len(forks))\n"
        )
        result = subprocess.run(
            [sys.executable, "-c", script], capture_output=True, text=True, env=env
        )
        assert (result.returncode, result.stderr) == (0, "")
        assert result.stdout == "printed before the fold\n1\n"

    def test_each_child_moves_off_the_callers_cpu(self, pools, monkeypatch, tmp_path):
        path, fork, children = tmp_path / "moves", os.fork, []

        def recording_fork():
            pid = fork()
            children.append(pid)
            return pid

        def logging_move(pid, cpus):  # the process that asks, then the one it moves
            append_line(path, f"{os.getpid()} {pid} {' '.join(map(str, sorted(cpus)))}")

        monkeypatch.setattr(spectrum_module, "PARALLEL_MIN_N", 1)
        monkeypatch.setattr(forked_module, "other_cpus", lambda: {1, 2})
        monkeypatch.setattr(os, "sched_setaffinity", logging_move, raising=False)
        monkeypatch.setattr(os, "fork", recording_fork)
        assert spectrum(30, threads=3) == spectrum(30)
        assert pools.sizes == [3]
        moves = path.read_text().splitlines()
        # the caller moves each child, and no child moves itself
        assert moves == [f"{os.getpid()} {pid} 1 2" for pid in children]

    def test_a_move_that_fails_is_skipped(self, pools, monkeypatch):
        # a child can end before the caller moves it (ESRCH); the fold goes on without it
        def ended(pid, cpus):
            raise ProcessLookupError(errno.ESRCH, "No such process")

        monkeypatch.setattr(spectrum_module, "PARALLEL_MIN_N", 1)
        monkeypatch.setattr(forked_module, "other_cpus", lambda: {1})
        monkeypatch.setattr(os, "sched_setaffinity", ended, raising=False)
        assert spectrum(30, threads=2).entries == plain_fold(30)
        assert pools.sizes == [2]

    @pytest.mark.skipif(not sys.platform.startswith("linux"), reason="reads Linux's /proc")
    def test_other_cpus_are_the_usable_ones_but_one(self):
        usable, others = os.sched_getaffinity(0), forked_module.other_cpus()
        assert others < usable and len(usable - others) == 1

    def test_other_cpus_read_the_processor_field(self, monkeypatch):
        # the command name in parentheses may hold ") " itself; field 39 is the CPU
        fields = ["S", *map(str, range(4, 39)), "2", *map(str, range(40, 53))]
        stat = f"123 (a) b) {' '.join(fields)}\n".encode()
        monkeypatch.setattr(forked_module, "open", lambda path, mode: io.BytesIO(stat),
                            raising=False)
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1, 2, 3}, raising=False)
        assert forked_module.other_cpus() == {0, 1, 3}

    @pytest.mark.parametrize("name, call", [("fork", 1), ("fork", 2), ("pipe", 1), ("pipe", 2),
                                            ("pipe", 3)])
    def test_failed_fork_or_pipe_folds_the_rest(self, monkeypatch, name, call):
        # pipe call 1 is the queue; pipe call k + 1 and fork call k are child k's. Nothing is
        # tried after the failure, no descriptor is left open and no child is left unreaped
        serial = spectrum(30)
        monkeypatch.setattr(spectrum_module, "PARALLEL_MIN_N", 1)
        monkeypatch.setattr(spectrum_module, "_usable_cpus", lambda: 4)
        fds, calls = open_fds(), fail_call(monkeypatch, name, call)
        assert spectrum(30, threads=4) == serial
        assert len(calls) == call
        assert open_fds() == fds
        with pytest.raises(ChildProcessError):
            os.waitpid(-1, os.WNOHANG)

    def test_failed_fork_still_answers_the_cli(self, monkeypatch, capsys):
        # one child is forked, the second fork fails, and the record is the serial one
        monkeypatch.setattr(spectrum_module, "_usable_cpus", lambda: 1)
        assert main(["spectrum", "44", "--format", "json"]) == 0
        serial = capsys.readouterr()
        monkeypatch.setattr(spectrum_module, "_usable_cpus", lambda: 4)
        calls = fail_call(monkeypatch, "fork", 2)
        assert main(["spectrum", "44", "--format", "json"]) == 0
        assert capsys.readouterr() == serial
        assert len(calls) == 2
        with pytest.raises(ChildProcessError):
            os.waitpid(-1, os.WNOHANG)

    def test_no_fork_folds_in_process(self, pools, fold_log, monkeypatch):
        monkeypatch.setattr(spectrum_module, "PARALLEL_MIN_N", 1)
        monkeypatch.delattr(os, "fork")
        assert spectrum_module._usable_cpus() == 1
        assert spectrum(30, threads=4).entries == plain_fold(30)
        assert fold_log() == [(os.getpid(), 30, (0, 0))]
        assert pools.sizes == []


def transposition_walks(n, steps):
    """Closed walks of each length 0..steps at one vertex, with no hook lengths or contents.

    Tracks, per cycle type, the number of walks from the identity that end at a
    permutation of that type, the type being its number of fixed points and its
    sorted nontrivial cycle lengths. A transposition joins two fixed points in
    one way per pair, a fixed point and an L-cycle in L ways, and cycles of
    lengths a and b in a * b ways; it splits an L-cycle into lengths a and L - a
    in L ways (L / 2 when a = L - a), a part of length 1 being a fixed point.
    A permutation with c cycles is n - c transpositions from the identity, so a
    type with n - c above the steps left can no longer close a walk and is
    dropped. The identity is the only permutation of its type, so its count is
    the closed-walk count at every vertex.
    """
    counts = {(n, ()): 1}
    closed = [1]
    for left in range(steps - 1, -1, -1):
        following = {}

        def add(fixed, cycles, walks):
            if walks and n - fixed - len(cycles) <= left:
                key = (fixed, tuple(sorted(cycles)))
                following[key] = following.get(key, 0) + walks

        for (fixed, cycles), walks in counts.items():
            add(fixed - 2, cycles + (2,), walks * fixed * (fixed - 1) // 2)
            for i, length in enumerate(cycles):
                rest = cycles[:i] + cycles[i + 1:]
                add(fixed - 1, rest + (length + 1,), walks * fixed * length)
                for j in range(i + 1, len(cycles)):
                    add(fixed, rest[:j - 1] + rest[j:] + (length + cycles[j],),
                        walks * length * cycles[j])
                for a in range(1, length // 2 + 1):
                    pieces = tuple(k for k in (a, length - a) if k > 1)
                    ways = length if 2 * a < length else length // 2
                    add(fixed + 2 - len(pieces), rest + pieces, walks * ways)
        counts = following
        closed.append(counts.get((n, ()), 0))
    return closed


class TestWalkCountMoments:
    """tr(A^k) = n! * (closed walks of length k at one vertex) = sum of m * v^k.

    An integral spectrum inside [-C(n, 2), C(n, 2)] has at most n(n - 1) + 1
    distinct values, so the moments k = 0..n(n - 1) already fix every
    multiplicity; one more moment is checked on top.
    """

    @pytest.mark.parametrize("n", range(1, 13))
    def test_every_moment(self, n):
        steps = n * (n - 1) + 1
        walks = transposition_walks(n, steps)
        entries = spectrum(n).entries
        for k in range(steps + 1):
            assert sum(m * v**k for v, m in entries) == math.factorial(n) * walks[k], k

    @pytest.mark.parametrize("n", [*range(13, 31), *LARGE_NS])
    def test_low_moments(self, n, spectra_up_to_30, large_spectra):
        # past n = 12 the moments 0..24 only: too few to fix every multiplicity,
        # but each one is still an exact check of the whole spectrum
        walks = transposition_walks(n, 24)
        entries = (spectra_up_to_30.get(n) or large_spectra(n)).entries
        for k in range(25):
            assert sum(m * v**k for v, m in entries) == math.factorial(n) * walks[k], k


class TestContentSumSupport:
    """The distinct eigenvalues are the content sums, which ``eigenvalue_set`` finds by a DP
    with no hook lengths or degrees."""

    @pytest.mark.parametrize("n", range(1, 31))
    def test_support_of_every_spectrum(self, n, spectra_up_to_30):
        spec = spectra_up_to_30[n] if n > 1 else spectrum(1)
        assert eigenvalue_set(n) == {v for v, _ in spec.entries}

    def test_guard(self):
        # the ceiling is in TestFoldCeiling::test_refused_before_the_fold
        with pytest.raises(ValueError, match="^n must be positive, got 0$"):
            eigenvalue_set(0)


class TestTopEigenvalues:
    def test_n7(self):
        # at n = 7 only the partition (5, 2) carries the value 9, with degree
        # 7!/360 = 14, so the third-largest multiplicity is 14**2
        assert top_eigenvalues(7, 4) == [(21, 1), (14, 36), (9, 196), (7, 225)]

    def test_n2(self):
        assert top_eigenvalues(2, 1) == [(1, 1)]

    def test_rejects_excessive_count(self):
        with pytest.raises(ValueError):
            top_eigenvalues(2, 3)
        with pytest.raises(ValueError):
            top_eigenvalues(4, 0)


class TestClosedFormsSmallRange:
    """Where the closed forms stop holding; acceptance criterion 4 checks them up to 30."""

    def test_fourth_largest_formula_breaks_at_n6(self, spectra_up_to_30):
        # (3, 3) shares the value 3 with the hook (4, 1, 1) at n = 6, so the
        # fourth-largest multiplicity exceeds the closed form there
        spec = spectra_up_to_30[6]
        assert spec.entries[3][0] == 3
        assert spec.entries[3][1] == 125 != 100


class TestClosedFormsPast30:
    """Acceptance criteria 3 and 4's second, third and fourth largest eigenvalues and
    their multiplicities, at the sizes past 30 whose spectra the walk moments check."""

    @pytest.mark.parametrize("n", LARGE_NS)
    def test_second_to_fourth_largest(self, n, large_spectra):
        assert large_spectra(n).entries[1:4] == (
            (n * (n - 3) // 2, (n - 1) ** 2),
            ((n - 1) * (n - 4) // 2, (n * (n - 3) // 2) ** 2),
            (n * (n - 5) // 2, ((n - 1) * (n - 2) // 2) ** 2),
        )
