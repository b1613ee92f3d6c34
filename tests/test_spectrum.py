import contextlib
import errno
import importlib
import io
import marshal
import math
import os
import select
import signal
import subprocess
import sys
import tracemalloc
from types import SimpleNamespace

import pytest

from tnspectrum import (
    Partition,
    Spectrum,
    conjugate,
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
#: the sizes past n = 30 that the closed forms and the walk moments are checked at
LARGE_NS = [*range(38, 45), 50, 60]


def accumulators(n):
    """Empty ``strict`` and ``square`` accumulators for ``_fold``, one count per eigenvalue."""
    return [0] * (n * (n - 1) + 1), [0] * (n * (n - 1) + 1)


@pytest.fixture
def forks(monkeypatch):
    """Record the forked folds on a machine of 4 CPUs, all usable; the forks are real.

    ``sizes`` lists the worker count of each forked fold: the caller and the children
    it forked. A fork outside a forked fold fails the test that made it. ``children`` lists
    the children's pids in fork order, and ``kills`` the pids that ``os.kill`` signalled.
    """
    built = SimpleNamespace(sizes=[], children=[], kills=[])
    fork, kill, fold_forked = os.fork, os.kill, forked_module.fold_forked

    def recording_fork():
        built.sizes[-1] += 1
        built.children.append(fork())
        return built.children[-1]

    def recording_fold_forked(fold, shards, workers, sums):
        built.sizes.append(1)
        return fold_forked(fold, shards, workers, sums)

    monkeypatch.setattr(os, "fork", recording_fork)
    monkeypatch.setattr(os, "kill", lambda pid, sig: built.kills.append(pid) or kill(pid, sig))
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


@contextlib.contextmanager
def failed_call(monkeypatch, name, call):
    """Make call number ``call`` of ``os.<name>`` raise as the OS does when it is out of
    processes (``fork``) or descriptors (``pipe``); the other calls run, and none is made
    after the failure."""
    real, calls = getattr(os, name), []
    code = errno.EAGAIN if name == "fork" else errno.EMFILE

    def failing():
        calls.append(name)
        if len(calls) == call:
            raise OSError(code, os.strerror(code))
        return real()

    monkeypatch.setattr(os, name, failing)
    yield
    assert len(calls) == call


@contextlib.contextmanager
def killed_at_fork(monkeypatch):
    """Make each child of ``os.fork`` end by SIGKILL at once, before it folds anything."""
    fork = os.fork

    def dying_fork():
        pid = fork()
        if pid == 0:
            os.kill(os.getpid(), signal.SIGKILL)
        return pid

    monkeypatch.setattr(os, "fork", dying_fork)
    yield


@contextlib.contextmanager
def raising_worker(monkeypatch):
    """Make the first worker to fold a shard raise, an error that cannot be rebuilt from its
    message alone; the caller folds nothing until it has. A worker that ran on past its end,
    into the test, would write "!" where the caller reads."""
    fold, caller, waited = spectrum_module._fold, os.getpid(), []
    (started, start), (token, give) = os.pipe(), os.pipe()
    os.write(give, b".")
    os.set_blocking(token, False)

    def failing_fold(n, root, strict, square):
        if os.getpid() != caller:
            with contextlib.suppress(BlockingIOError):  # one worker alone takes the token
                os.write(start, os.read(token, 1))
                raise UnicodeDecodeError("utf-8", b"\xff", 0, 1, f"no room for {root}")
        elif not waited:  # for at most 10 s: a fold that forks nothing fails, not hangs
            waited.append(select.select([started], [], [], 10)[0])
        fold(n, root, strict, square)

    monkeypatch.setattr(spectrum_module, "_fold", failing_fold)
    try:
        yield
    finally:
        if os.getpid() != caller:
            os.write(start, b"!")
    assert (waited, os.read(started, 2)) == ([[started]], b".")
    for end in (started, start, token, give):
        os.close(end)


@contextlib.contextmanager
def cut_blob(monkeypatch):
    """Make each worker send the first half of its blob, then end with status 0."""
    def dumps(sums):
        blob = marshal.dumps(sums)
        return blob[:len(blob) // 2]

    monkeypatch.setattr(forked_module, "marshal", SimpleNamespace(dumps=dumps, loads=marshal.loads))
    yield


@contextlib.contextmanager
def sigchld_ignored(monkeypatch):
    """Ignore SIGCHLD, so that the system reaps each child itself and ``os.waitpid`` fails."""
    handler = signal.signal(signal.SIGCHLD, signal.SIG_IGN)
    try:
        yield
    finally:
        signal.signal(signal.SIGCHLD, handler)


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

    @pytest.mark.parametrize("n", range(1, 37))
    def test_matches_young_lattice(self, n, young_lattice):
        # the lattice's level n, each partition once, with v(λ) from no content sum
        listed = sorted((p, eigenvalue(p)) for p in enumerate_partitions(n))
        assert listed == sorted((parts, v) for parts, (_, v) in young_lattice[n].items())


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

    @pytest.mark.parametrize("n", range(1, 37))
    def test_matches_young_lattice(self, n, lattice_spectra):
        assert spectrum(n).entries == lattice_spectra[n]

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
         (6, 6, (1, 1), "3, 2, 1"), (7, 7, (0, 0), "1, 1"), (6, 6, (0, 0), "3, 2, 1"),
         (8, 5, (0, 0), "3, 3, 2")],
        ids=["shard-root", "node", "child-tail", "leaf", "pre-leaf-tail", "pre-leaf-leaf",
             "after-a-subtree"],
    )
    def test_each_division_is_checked(self, monkeypatch, n, k, root, named):
        # with k! read as k! + 1, the first division that goes wrong is the root's n!/H(s^m),
        # the root's own partition, a child tail's n!/H(nu), a child's partition folded in
        # its parent's loop, a pre-leaf's n!/H(nu) there, a leaf of that pre-leaf, read off
        # the parent's table, and a leaf of the pre-leaf (2) in the root's loop, once the
        # subtree at (1) has returned and taken its row off the tail that names it
        inexact_factorial(monkeypatch, k)
        with pytest.raises(ArithmeticError, match=rf"does not divide {n}! for Partition\({named}\)$"):
            spectrum_module._fold(n, root, *accumulators(n))

    def test_the_caller_returns_from_a_forked_fold(self, child_env):
        # in a fresh interpreter of its own session, and before this file's first forked fold
        # in this one: a caller that ended as a worker would end this process with status 0
        script = (
            "import os, importlib\nfrom tnspectrum import spectrum\n"
            "importlib.import_module('tnspectrum.spectrum').PARALLEL_MIN_N = 1\n"
            "os.sched_getaffinity = lambda pid: {0, 1}\n"
            "print(os.getpid(), flush=True)\nspectrum(12, threads=2)\nprint(os.getpid())\n"
        )
        result = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True,
                                env=child_env, start_new_session=True)
        pids = result.stdout.split()
        assert (result.returncode, len(pids), len(set(pids))) == (0, 2, 1)

    @pytest.mark.parametrize("threads", [2, 3])
    def test_forked_shards_match_the_lattice(self, forks, monkeypatch, lattice_spectra, threads):
        monkeypatch.setattr(spectrum_module, "PARALLEL_MIN_N", 1)
        for n in range(1, 31):
            assert spectrum(n, threads=threads).entries == lattice_spectra[n], n
        # n = 1 and n = 2 are a single shard each and fold in-process
        assert len(forks.sizes) == 28

    def test_queue_hands_out_one_shard_per_take(self, forks, fold_log, monkeypatch):
        # every shard is one take from the queue, and each worker takes its shards
        # in _shards' order, so an idle worker takes the next one
        monkeypatch.setattr(spectrum_module, "PARALLEL_MIN_N", 1)
        for n in (3, 12, 30):
            spectrum(n, threads=2)
            shards = forked_module._shards(n)
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
    def test_worker_count(self, forks, fold_log, monkeypatch, n, threads, floor, mask, cpus,
                          processes):
        # min(threads, usable CPUs, shards) processes fold from n = PARALLEL_MIN_N on (floor
        # None keeps the real 40); the usable CPUs are the affinity mask (None: the platform
        # has none), else cpu_count. An in-process fold is one walk from the empty tail; only
        # from the floor on with min(threads, usable CPUs) > 1 are the shards built.
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
        shards, built = forked_module._shards, []
        monkeypatch.setattr(forked_module, "_shards", lambda n: built.append(n) or shards(n))
        assert spectrum(n, threads=threads) == serial
        assert forks.sizes == ([processes] if processes > 1 else [])
        usable = len(mask) if mask is not None else cpus or 1
        may_fork = n >= spectrum_module.PARALLEL_MIN_N and min(threads, usable) > 1
        assert built == ([n] if may_fork else [])
        if processes == 1:
            assert fold_log() == [(os.getpid(), n, (0, 0))]

    def test_queries_fold_in_process_by_default(self, forks, monkeypatch):
        # threads defaults to 1: past the size floor and with 4 usable CPUs, nothing forks
        monkeypatch.setattr(spectrum_module, "PARALLEL_MIN_N", 1)
        spectrum(12)
        multiplicity(12, 0)
        top_eigenvalues(12, 2)
        assert forks.sizes == []

    def test_rejects_bad_thread_count(self):
        with pytest.raises(ValueError):
            spectrum(6, threads=0)

    @pytest.mark.parametrize("n", range(1, 31))
    def test_shards_cover_the_walk_once(self, n):
        # (0, 0) is the empty rectangle: its children start at row 1, so it
        # roots the whole walk from the empty tail
        whole, merged = accumulators(n), accumulators(n)
        spectrum_module._fold(n, (0, 0), *whole)
        for shard in forked_module._shards(n):
            spectrum_module._fold(n, shard, *merged)
        assert whole == merged

    def test_visit_calls_at_44(self):
        # the kernel's shape: a call folds its children's partitions, and the root's own
        # partition is folded once, before the walk; only a node with a grandchild that has
        # children of its own is a call, and a pre-leaf's leaves are folded in its parent's
        # loop, so 2,743 calls fold n = 44, whose walk has 8,819 nodes with children
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

    def test_divisions_at_44(self, monkeypatch):
        # a leaf divides out no n!/H(nu) of its own: 48,272 checked divisions fold n = 44
        calls = []
        monkeypatch.setattr(spectrum_module, "divmod",
                            lambda a, b: calls.append(1) or divmod(a, b), raising=False)
        spectrum_module._fold(44, (0, 0), *accumulators(44))
        assert len(calls) == 48272

    def test_smallest_tail_first(self):
        # the queue pipe hands out the shards in this order, largest subtrees first;
        # of two equal tails s*m the one with the shorter rows comes first
        assert forked_module._shards(6) == [(6, 0), (1, 1), (1, 2), (2, 1), (3, 1)]
        for n in range(1, 61):
            keys = [(s * m, s) for s, m in forked_module._shards(n)]
            assert keys == sorted(keys), n

    def test_the_queue_fits_one_pipe_page(self):
        # fold_forked writes every shard's 2-byte index in one os.write before any reader
        # exists, so the queue must fit one 4,096-byte page, which every Linux pipe holds;
        # at n = 300 the 1,193 shards take the 2,386 bytes that fold_forked's docstring names
        assert 2 * len(forked_module._shards(300)) == 2386
        assert 2 * len(forked_module._shards(spectrum_module.FOLD_MAX_N)) <= 4096

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

    # 300, the ceiling that README and the CLI's records state, as a literal: a test that
    # read FOLD_MAX_N back would pass whatever its value
    @pytest.mark.parametrize("n", [301, 10**19])
    @pytest.mark.parametrize(
        "query, rest",
        [(spectrum, ()), (multiplicity, (0,)), (top_eigenvalues, (2,)), (eigenvalue_set, ())],
        ids=["spectrum", "multiplicity", "top_eigenvalues", "eigenvalue_set"],
    )
    def test_refused_before_the_fold(self, unfolded, query, rest, n):
        message = f"^n = {n} exceeds the fold ceiling FOLD_MAX_N = 300$"
        with pytest.raises(ValueError, match=message):
            query(n, *rest)

    def test_ceiling_itself_is_folded(self, unfolded):
        with pytest.raises(Folding):
            spectrum(300)

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
                spectrum(300)
        finally:
            signal.setitimer(signal.ITIMER_REAL, 0)
            sys.setrecursionlimit(limit)
            signal.signal(signal.SIGALRM, handler)


class TestForkedFold:
    """The caller and its forked children drain one queue of shards; no child outlives the call."""

    @pytest.mark.parametrize("workers", [2, 4])
    def test_every_shard_folded_once(self, forks, fold_log, large_spectra, workers):
        serial = large_spectra(44)
        fold_log()  # drops the serial fold, if this test was the first to ask for it
        assert spectrum(44, threads=workers) == serial
        assert forks.sizes == [workers]
        folds = fold_log()
        assert sorted(root for _, _, root in folds) == sorted(forked_module._shards(44))
        assert len({pid for pid, _, _ in folds}) <= workers
        assert forks.kills == []  # each child was reaped once its sums arrived

    def test_corrupt_hook_product_raises_in_the_caller(self, forks, monkeypatch):
        inexact_factorial(monkeypatch)
        with pytest.raises(ArithmeticError, match="does not divide"):
            spectrum(44, threads=2)
        assert forks.sizes == [2]
        assert forks.kills == forks.children  # the caller's own shard raised, so it killed them
        with pytest.raises(ChildProcessError):  # every child was reaped
            os.waitpid(-1, os.WNOHANG)

    def test_result_larger_than_a_pipe_buffer(self, forks, monkeypatch):
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
        shards = len(forked_module._shards(12))
        assert spec.entries == tuple((v, shards * 10**3000) for v in range(66, -67, -1))
        assert forks.sizes == [2]

    @pytest.mark.parametrize("workers", [2, 3])
    def test_worker_ends_when_its_caller_is_killed(self, child_env, workers):
        # the caller sleeps once it has forked, so the blob of 133 distinct counts above
        # 10**3000 (marshal writes a repeated object once) of a worker that has folded a shard
        # outgrows the 64 KiB pipe buffer; once one has, the caller is killed. Only the
        # workers hold the write end of `ended`, and write a byte there per shard, so EOF
        # there means they have all ended, reaped or not.
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
            "    square[:] = [10**3000 + i for i in range(len(square))]\n"
            "    os.write(hold, b'.')\n"
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
            assert select.select([ended], [], [], 10)[0] == [ended]
            assert os.read(ended, 1) == b"."
            caller.kill()
            caller.wait()
            while (ready := select.select([ended], [], [], 10)[0]) and os.read(ended, 4096):
                pass
            assert ready  # EOF, not the 10 s deadline
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

    def test_each_child_moves_off_the_callers_cpu(self, forks, monkeypatch, tmp_path):
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
        assert forks.sizes == [3]
        moves = path.read_text().splitlines()
        # the caller moves each child, and no child moves itself
        assert moves == [f"{os.getpid()} {pid} 1 2" for pid in children]

    def test_a_move_that_fails_is_skipped(self, forks, fold_log, monkeypatch, lattice_spectra):
        # a child can end before the caller moves it (ESRCH); the forked fold goes on without
        # the move, and the caller never folds the whole walk itself
        def ended(pid, cpus):
            raise ProcessLookupError(errno.ESRCH, "No such process")

        monkeypatch.setattr(spectrum_module, "PARALLEL_MIN_N", 1)
        monkeypatch.setattr(forked_module, "other_cpus", lambda: {1})
        monkeypatch.setattr(os, "sched_setaffinity", ended, raising=False)
        assert spectrum(30, threads=2).entries == lattice_spectra[30]
        assert forks.sizes == [2]
        assert (os.getpid(), 30, (0, 0)) not in fold_log()

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
        # the mask of this process, pid 0, alone
        monkeypatch.setattr(os, "sched_getaffinity",
                            lambda pid: {0, 1, 2, 3} if pid == 0 else set(), raising=False)
        assert forked_module.other_cpus() == {0, 1, 3}

    def test_other_cpus_without_proc(self, monkeypatch):
        # no CPU is named, so no child is moved
        def missing(path, mode):
            raise FileNotFoundError(errno.ENOENT, "No such file or directory", path)

        monkeypatch.setattr(forked_module, "open", missing, raising=False)
        assert forked_module.other_cpus() == set()

    @pytest.mark.parametrize("failure", [
        pytest.param(lambda patch: failed_call(patch, "pipe", 1), id="pipe-1"),
        pytest.param(lambda patch: failed_call(patch, "pipe", 2), id="pipe-2"),
        pytest.param(lambda patch: failed_call(patch, "pipe", 3), id="pipe-3"),
        pytest.param(lambda patch: failed_call(patch, "fork", 1), id="fork-1"),
        pytest.param(lambda patch: failed_call(patch, "fork", 2), id="fork-2"),
        pytest.param(raising_worker, id="worker-raises"),
        pytest.param(killed_at_fork, id="worker-killed-at-fork"),
        pytest.param(cut_blob, id="worker-sends-a-cut-blob"),
    ])
    def test_any_failure_folds_the_whole_walk_in_process(self, forks, fold_log, monkeypatch,
                                                         capfd, failure):
        # pipe call 1 is the queue; pipe call k + 1 and fork call k are child k's. Whatever
        # failed, the caller reaps every child, closes every pipe end, zeroes its sums and
        # folds the whole walk itself: sums it kept would be counted twice
        serial = spectrum(30)
        fold_log()
        monkeypatch.setattr(spectrum_module, "PARALLEL_MIN_N", 1)
        with failure(monkeypatch):
            fds = open_fds()
            assert spectrum(30, threads=4) == serial
            assert fold_log()[-1] == (os.getpid(), 30, (0, 0))
            assert open_fds() == fds
            with pytest.raises(ChildProcessError):  # no child is left
                os.waitpid(-1, os.WNOHANG)
        assert capfd.readouterr() == ("", "")

    def test_sigchld_ignored_keeps_the_forked_answer(self, forks, fold_log, monkeypatch, capfd):
        # the system reaps each child itself, so the caller's waitpid fails with ECHILD; every
        # blob arrived whole, so the children's sums count and the walk is not folded again
        serial = spectrum(30)
        fold_log()
        monkeypatch.setattr(spectrum_module, "PARALLEL_MIN_N", 1)
        with sigchld_ignored(monkeypatch):
            fds = open_fds()
            assert spectrum(30, threads=4) == serial
            assert (os.getpid(), 30, (0, 0)) not in fold_log()
            assert (forks.sizes, forks.kills) == ([4], [])
            assert open_fds() == fds
            with pytest.raises(ChildProcessError):  # no child is left
                os.waitpid(-1, os.WNOHANG)
        assert capfd.readouterr() == ("", "")

    def test_failed_fork_still_answers_the_cli(self, monkeypatch, capsys):
        # one child is forked, the second fork fails, and the record is the serial one;
        # so it is when every child is killed at its fork
        monkeypatch.setattr(spectrum_module, "_usable_cpus", lambda: 1)
        assert main(["spectrum", "44", "--format", "json"]) == 0
        serial = capsys.readouterr()
        monkeypatch.setattr(spectrum_module, "_usable_cpus", lambda: 4)
        with failed_call(monkeypatch, "fork", 2):
            assert main(["spectrum", "44", "--format", "json"]) == 0
        assert capsys.readouterr() == serial
        with killed_at_fork(monkeypatch):  # every child dies before it sends its sums
            assert main(["spectrum", "44", "--format", "json"]) == 0
        assert capsys.readouterr() == serial
        with pytest.raises(ChildProcessError):
            os.waitpid(-1, os.WNOHANG)

    def test_cli_answers_with_sigchld_ignored(self, child_env, capsys, monkeypatch):
        # SIGCHLD ignored by a parent stays ignored through exec; then the system reaps each
        # worker itself, and the caller's waitpid fails with ECHILD
        monkeypatch.setattr(spectrum_module, "_usable_cpus", lambda: 1)
        assert main(["spectrum", "44", "--format", "csv"]) == 0
        two_cpus = "import os; os.sched_getaffinity = lambda pid: {0, 1}"
        result = subprocess.run(
            [sys.executable, "-c", f"{two_cpus}; from tnspectrum.cli import run; run()",
             "spectrum", "44", "--format", "csv"],
            capture_output=True, text=True, env=child_env,
            preexec_fn=lambda: signal.signal(signal.SIGCHLD, signal.SIG_IGN),
        )
        assert (result.returncode, result.stdout, result.stderr) == (0, capsys.readouterr().out, "")

    def test_no_fork_folds_in_process(self, forks, fold_log, monkeypatch, lattice_spectra):
        monkeypatch.setattr(spectrum_module, "PARALLEL_MIN_N", 1)
        monkeypatch.delattr(os, "fork")
        assert spectrum_module._usable_cpus() == 1
        assert spectrum(30, threads=4).entries == lattice_spectra[30]
        assert fold_log() == [(os.getpid(), 30, (0, 0))]
        assert forks.sizes == []


def transposition_walks(n, steps):
    """Closed walks of each length 0..steps at one vertex, with no hook lengths or contents.

    Tracks, per cycle type, the number of walks from the identity that end at a
    permutation of that type, the type being its number of fixed points and its
    sorted nontrivial cycle lengths. A transposition joins two fixed points in
    one way per pair, a fixed point and an L-cycle in L ways, and cycles of
    lengths a and b in a * b ways; it splits an L-cycle into lengths a and L - a
    in L ways (L / 2 when a = L - a), a part of length 1 being a fixed point.
    Each type's successors, with their ways and their distance from the identity,
    are worked out on its first visit and kept. A permutation with c cycles is
    n - c transpositions from the identity, so a type farther than the steps left
    can no longer close a walk and is dropped. The identity is the only
    permutation of its type, so its count is the closed-walk count at every vertex.
    """
    successors = {}  # (fixed, cycles) -> [(type, ways, distance)], filled on the first visit

    def moves(fixed, cycles):
        ways = {}

        def add(fixed, cycles, count):
            if count:
                key = (fixed, tuple(sorted(cycles)))
                ways[key] = ways.get(key, 0) + count

        add(fixed - 2, cycles + (2,), fixed * (fixed - 1) // 2)
        for i, length in enumerate(cycles):
            rest = cycles[:i] + cycles[i + 1:]
            add(fixed - 1, rest + (length + 1,), fixed * length)
            for j in range(i + 1, len(cycles)):
                add(fixed, rest[:j - 1] + rest[j:] + (length + cycles[j],), length * cycles[j])
            for a in range(1, length // 2 + 1):
                pieces = tuple(k for k in (a, length - a) if k > 1)
                ways_to_cut = length if 2 * a < length else length // 2
                add(fixed + 2 - len(pieces), rest + pieces, ways_to_cut)
        return [(key, count, n - key[0] - len(key[1])) for key, count in ways.items()]

    counts = {(n, ()): 1}
    closed = [1]
    for left in range(steps - 1, -1, -1):
        following = {}
        for key, walks in counts.items():
            if key not in successors:
                successors[key] = moves(*key)
            for successor, ways, distance in successors[key]:
                if distance <= left:
                    following[successor] = following.get(successor, 0) + walks * ways
        counts = following
        closed.append(counts.get((n, ()), 0))
    return closed


class TestWalkCountMoments:
    """tr(A^k) = n! * (closed walks of length k at one vertex) = sum of m * v^k.

    An integral spectrum inside [-C(n, 2), C(n, 2)] has at most n(n - 1) + 1
    distinct values, so the moments k = 0..n(n - 1) already fix every
    multiplicity; one more moment is checked on top.
    """

    @pytest.mark.parametrize("n", range(1, 19))
    def test_every_moment(self, n):
        steps = n * (n - 1) + 1
        walks = transposition_walks(n, steps)
        entries = spectrum(n).entries
        for k in range(steps + 1):
            assert sum(m * v**k for v, m in entries) == math.factorial(n) * walks[k], k

    @pytest.mark.parametrize("n", [*range(19, 31), *LARGE_NS])
    def test_low_moments(self, n, large_spectra):
        # past n = 18 the moments 0..24 only: too few to fix every multiplicity,
        # but each one is still an exact check of the whole spectrum
        walks = transposition_walks(n, 24)
        entries = large_spectra(n).entries
        for k in range(25):
            assert sum(m * v**k for v, m in entries) == math.factorial(n) * walks[k], k


class TestContentSumSupport:
    """The distinct eigenvalues are the content sums, which ``eigenvalue_set`` finds by a DP
    with no hook lengths or degrees."""

    @pytest.mark.parametrize("n", range(1, 31))
    def test_support_of_every_spectrum(self, n, large_spectra):
        assert eigenvalue_set(n) == {v for v, _ in large_spectra(n).entries}

    def test_guard(self):
        # the ceiling is in TestFoldCeiling::test_refused_before_the_fold
        with pytest.raises(ValueError, match="^n must be positive, got 0$"):
            eigenvalue_set(0)

    def test_keeps_only_the_rows_that_later_sizes_read(self):
        # below[size][t] for t <= n - size: keeping every t <= size finds the same set, and
        # peaked at 3.33 MB at n = 100 against 1.43 MB
        tracemalloc.start()
        try:
            eigenvalue_set(100)
            assert tracemalloc.get_traced_memory()[1] < 2_000_000
        finally:
            tracemalloc.stop()


class TestTopEigenvalues:
    def test_n7(self):
        # at n = 7 only the partition (5, 2) carries the value 9, with degree
        # 7!/360 = 14, so the third-largest multiplicity is 14**2
        assert top_eigenvalues(7, 4) == [(21, 1), (14, 36), (9, 196), (7, 225)]

    def test_n2(self):
        assert top_eigenvalues(2, 1) == [(1, 1)]

    def test_every_distinct_eigenvalue(self):
        # n = 4 has exactly five, and asking for all of them is no excessive count
        assert top_eigenvalues(4, 5) == [(6, 1), (2, 9), (0, 4), (-2, 9), (-6, 1)]

    def test_rejects_excessive_count(self):
        with pytest.raises(ValueError):
            top_eigenvalues(2, 3)
        with pytest.raises(ValueError):
            top_eigenvalues(4, 0)

    def test_excessive_count_refused_before_any_fold(self, capsys, monkeypatch):
        # eigenvalue_set counts the 4,789 distinct values at n = 80 with no degree
        def fold(n, root, strict, square):
            raise AssertionError(f"_fold was called for n = {n}")

        monkeypatch.setattr(spectrum_module, "_fold", fold)
        message = "only 4789 distinct eigenvalues exist for n = 80, requested"
        with pytest.raises(ValueError, match=f"^{message} 1000000$"):
            top_eigenvalues(80, 10**6)
        assert main(["top", "80", "5000"]) == 1
        assert capsys.readouterr() == ("", f"error: {message} 5000\n")


class TestClosedFormsSmallRange:
    """Where the closed forms stop holding; acceptance criterion 4 checks them up to 30."""

    def test_fourth_largest_formula_breaks_at_n6(self, large_spectra):
        # (3, 3) shares the value 3 with the hook (4, 1, 1) at n = 6, so the
        # fourth-largest multiplicity exceeds the closed form there
        spec = large_spectra(6)
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
