import importlib.util
import pathlib
import subprocess
import sys

import pytest

from tnspectrum import (
    Partition,
    degree,
    eigenvalue,
    eigenvalue_set,
    enumerate_partitions,
    multiplicity,
    spectrum,
)
from tnspectrum.witnesses import (
    NoWitnessError,
    _balanced_hook,
    lambda_partition_even,
    lambda_partition_odd,
    min_n_for_prefix,
    verify_witness,
    zero_partition,
)

ROOT = pathlib.Path(__file__).parents[1]


class TestOnePartition:
    @pytest.mark.parametrize("n", [2, 3, 4, 5, 8, 10])
    def test_outside_validity_ranges(self, n):
        with pytest.raises(NoWitnessError):
            verify_witness(n, 1)

    def test_agrees_with_general_construction(self):
        for n in range(7, 40, 2):
            assert verify_witness(n, 1).partition == lambda_partition_odd(n, 1)
        for n in range(14, 44, 2):
            assert verify_witness(n, 1).partition == lambda_partition_even(n, 1)


def _reference_zero(n):
    # reference closed forms, written out apart from the balanced-hook helper
    if n < 1 or n == 2:
        return None
    if n % 2:
        return ((n + 1) // 2,) + (1,) * ((n - 1) // 2)
    return (n // 2, 2) + (1,) * ((n - 4) // 2)


def _reference_odd(n, lam):
    if n % 2 == 0 or n < 7 or lam < 1 or 4 * lam > n - 3:
        return None
    return ((n - 2 * lam + 1) // 2, lam + 2) + (2,) * (lam - 1) + (1,) * ((n - 4 * lam - 1) // 2)


def _reference_even(n, lam):
    if n % 2 or n < 14 or lam < 1 or 10 * lam > n - 4:
        return None
    return (
        ((n - 6 * lam) // 2, 2 * lam + 2, lam + 3)
        + (3,) * (lam - 1)
        + (2,) * lam
        + (1,) * ((n - 10 * lam - 4) // 2)
    )


class TestConstructorsPinned:
    """Each constructor returns the reference partition inside its region and raises outside."""

    @staticmethod
    def check(construct, reference, *args):
        expected = reference(*args)
        if expected is None:
            with pytest.raises(ValueError):
                construct(*args)
        else:
            assert construct(*args) == expected

    def test_zero(self):
        for n in range(-5, 200):
            self.check(zero_partition, _reference_zero, n)

    @pytest.mark.parametrize(
        "construct, reference",
        [(lambda_partition_odd, _reference_odd), (lambda_partition_even, _reference_even)],
        ids=["odd", "even"],
    )
    def test_lambda(self, construct, reference):
        for n in range(-5, 200):
            for lam in range(-3, 60):
                self.check(construct, reference, n, lam)

    def test_nonpositive_n_is_named(self):
        for n in range(-3, 1):
            with pytest.raises(ValueError, match=rf"^n must be positive, got {n}$"):
                zero_partition(n)

    @pytest.mark.parametrize(
        "construct, n, region",
        [(lambda_partition_odd, 7, "need n - 14 odd and n >= 31, got n = 7"),
         (lambda_partition_even, 8, "need n - 49 odd and n >= 84, got n = 8")],
        ids=["odd", "even"],
    )
    def test_lam_guard(self, construct, n, region):
        """A lam outside 1..n is refused before any tuple is built, and lam = n reaches
        ``_balanced_hook``, whose message names the least n of the region."""
        for lam in (-1, 0, n + 1, 10**18):
            with pytest.raises(ValueError, match=rf"^need 1 <= lam <= n = {n}, got lam = {lam}$"):
                construct(n, lam)
        with pytest.raises(ValueError, match=rf"^{region}$"):
            construct(n, n)


def _content_sum(parts):
    # sum of (column - row) over the boxes, computed apart from ``eigenvalue``
    return sum(j - i for i, part in enumerate(parts) for j in range(part))


def _inner_partitions(max_size):
    """Every partition of size at most ``max_size``, the empty one first."""
    yield Partition()
    for size in range(1, max_size + 1):
        yield from enumerate_partitions(size)


def _succeeds(n, inner):
    try:
        _balanced_hook(n, inner)
    except ValueError:
        return False
    return True


def _absence_sets(max_v, inner_size):
    """W and the exact absence set of each v = 0..max_v, by two routes.

    ``lowest[v, parity]`` is (W, inner): W is the least n of that parity at which a
    balanced hook around some ``inner`` partition of size <= ``inner_size`` has
    eigenvalue v. The same inner partition covers every larger n of that parity,
    and ``eigenvalue_set`` decides every n below the largest W, and on to 60, so
    together they give each exact absence set ``absent[v]`` and cross-check the DP
    against the hooks at every n up to 60.
    """
    lowest = {}
    for inner in _inner_partitions(inner_size):
        v = _content_sum(inner)
        if not 0 <= v <= max_v:
            continue
        n = inner.n + 2 * max(len(inner), inner[0] if inner else 0) + 1
        if (v, n % 2) not in lowest or n < lowest[v, n % 2][0]:
            lowest[v, n % 2] = n, inner
    assert sorted(lowest) == [(v, parity) for v in range(max_v + 1) for parity in (0, 1)]
    for (v, _), (n, inner) in lowest.items():
        assert eigenvalue(_balanced_hook(n, inner)) == v
    top = max(61, max(n for n, _ in lowest.values()))
    supports = {n: eigenvalue_set(n) for n in range(1, top)}
    absent = {v: {n for n, values in supports.items() if v not in values} for v in range(max_v + 1)}
    for v, ns in absent.items():
        assert all(n < lowest[v, n % 2][0] for n in ns), v
    return lowest, absent


class TestBalancedHook:
    def test_identity_and_region(self):
        for inner in _inner_partitions(12):
            size = inner.n
            threshold = size + 2 * max(len(inner), inner[0] if inner else 0) + 1
            for n in range(threshold - 12, threshold + 13):
                if (n - size) % 2 and n >= threshold:
                    hook = _balanced_hook(n, inner)
                    assert hook.n == n
                    assert eigenvalue(hook) == _content_sum(inner)
                else:
                    with pytest.raises(ValueError):
                        _balanced_hook(n, inner)

    def test_exact_thresholds_up_to_ten(self):
        # lowest[m, parity]: the smallest n of that parity at which a balanced hook
        # around some inner partition of size <= 19 has eigenvalue m; the same
        # inner partition then covers every larger n of that parity
        lowest = {}
        for inner in _inner_partitions(19):
            m = _content_sum(inner)
            if not 0 <= m <= 10:
                continue
            n = next(n for n in range(inner.n, 3 * inner.n + 2) if _succeeds(n, inner))
            if (m, n % 2) not in lowest or n < lowest[m, n % 2]:
                lowest[m, n % 2] = n
                assert eigenvalue(_balanced_hook(n, inner)) == m
        # N(k) is one below the largest lowest: the first n of each parity from
        # N(k) on is then at or above every lowest for 0..k
        covered_from = {
            k: max(lowest[m, parity] for m in range(k + 1) for parity in (0, 1)) - 1
            for k in range(11)
        }
        assert covered_from == {0: 3, 1: 13, 2: 13, 3: 13, **{k: 19 for k in range(4, 11)}}
        # one step below each N(k) a target is missing from the spectrum, so no
        # construction can do better
        assert 0 not in spectrum(2)
        assert 1 not in spectrum(12)
        assert 4 not in spectrum(18)

    def test_absence_sets_up_to_forty(self):
        lowest, absent = _absence_sets(40, 20)
        assert max(n for n, _ in lowest.values()) == 36
        assert absent[0] == {2}
        assert absent[1] == {1, 3, 4, 5, 6, 8, 10, 12}
        assert absent[2] == {1, 2, 3, 6, 7, 9, 10}
        assert (max(absent[4]), max(absent[31])) == (18, 21)
        # N(k): the least n from which every one of 0..k is an eigenvalue
        thresholds = {k: 1 + max(max(absent[v]) for v in range(k + 1)) for k in range(41)}
        assert thresholds == {
            0: 3,
            **dict.fromkeys(range(1, 4), 13),
            **dict.fromkeys(range(4, 31), 19),
            **dict.fromkeys(range(31, 41), 22),
        }

    @pytest.mark.parametrize(
        "k, inner_size, largest_w, threshold, last_absent",
        [(100, 26, 52, 31, {94}), (200, 32, 72, 33, {185, 193})],
    )
    def test_prefix_threshold(self, k, inner_size, largest_w, threshold, last_absent):
        # N(100) = 31 and N(200) = 33, by the same two routes
        lowest, absent = _absence_sets(k, inner_size)
        assert max(n for n, _ in lowest.values()) == largest_w
        assert 1 + max(max(ns) for ns in absent.values()) == threshold
        assert {v for v, ns in absent.items() if threshold - 1 in ns} == last_absent


class TestHookPartition:
    """The hook (n - k + 1, 1^(k - 1)) with k rows has eigenvalue n(n - 2k + 1)/2."""

    def test_examples(self):
        for n, k, value in [(6, 3, 3), (5, 1, 10), (4, 4, -6)]:
            assert eigenvalue(Partition((n - k + 1,) + (1,) * (k - 1))) == value

    @pytest.mark.parametrize("n", range(2, 31))
    def test_value_formula(self, n):
        for k in range(3, n + 1):
            hook = Partition((n - k + 1,) + (1,) * (k - 1))
            assert eigenvalue(hook) == n * (n - 2 * k + 1) // 2

    @pytest.mark.parametrize("n", range(3, 13))
    def test_multiplicity_lower_bounds(self, n):
        # the hook contributes its squared degree; the closed-form expression
        # n!/(n (n-k)! (k-1)!) is the weaker documented floor
        import math

        for k in range(3, n + 1):
            value = n * (n - 2 * k + 1) // 2
            mult = multiplicity(n, value)
            hook_degree = degree(Partition((n - k + 1,) + (1,) * (k - 1)))
            assert mult >= hook_degree ** 2
            assert mult >= math.factorial(n) // (
                n * math.factorial(n - k) * math.factorial(k - 1)
            )


class TestMinNForPrefix:
    def test_examples(self):
        assert min_n_for_prefix(0) == 4
        assert min_n_for_prefix(1) == 14
        assert min_n_for_prefix(2) == 24

    def test_rejects_negative(self):
        with pytest.raises(ValueError):
            min_n_for_prefix(-1)

    @pytest.mark.parametrize("k", range(41))
    def test_threshold_is_covered_and_tight(self, k):
        # every target 0..k has a verified witness on 41 sizes from the threshold on,
        # and k has none two below it, an even n under lambda_partition_even's region
        least = min_n_for_prefix(k)
        for n in range(least, least + 41):
            for target in range(k + 1):
                assert verify_witness(n, target).verified, (n, target)
        with pytest.raises(NoWitnessError):
            verify_witness(least - 2, k)

    def test_prefix_scan_script(self, spectra_up_to_30, child_env):
        script = ROOT / "scripts" / "eigenvalue_prefix_scan.py"
        result = subprocess.run(
            [sys.executable, str(script), "--max-target", "1", "--max-n", "16"],
            capture_output=True,
            text=True,
            env=child_env,
        )
        assert result.returncode == 0, result.stderr
        header, *rows = result.stdout.splitlines()
        assert header.split() == ["n", "m=0", "m=1"]
        marks = {}
        for row in rows:
            cells, _, mark = row.partition("  <- ")
            n, *present = cells.split()
            assert present == ["+" if m in spectra_up_to_30[int(n)] else "." for m in (0, 1)]
            if mark:
                marks[int(n)] = mark
        assert [int(row.split()[0]) for row in rows] == list(range(2, 17))
        assert marks == {4: "0..0 guaranteed from here on", 14: "0..1 guaranteed from here on"}

    def test_prefix_scan_stops_at_max_n(self, monkeypatch, capsys):
        # --max-n is the scan's last row, not a guard passed to the library
        script = ROOT / "scripts" / "eigenvalue_prefix_scan.py"
        spec = importlib.util.spec_from_file_location("eigenvalue_prefix_scan", script)
        scan = importlib.util.module_from_spec(spec)
        spec.loader.exec_module(scan)
        monkeypatch.setattr(sys, "argv", [str(script), "--max-target", "0", "--max-n", "4"])
        scan.main()
        _, *rows = capsys.readouterr().out.splitlines()
        assert [int(row.split()[0]) for row in rows] == [2, 3, 4]


class TestVerifyWitness:
    def test_report_fields_are_read_only(self):
        report = verify_witness(14, 1)
        with pytest.raises(AttributeError):
            report.verified = False

    def test_rejects_nonpositive_n(self):
        for target in (0, 1):  # a ValueError of its own, not "no construction"
            with pytest.raises(ValueError, match=r"^n must be positive, got 0$"):
                verify_witness(0, target)

    def test_no_construction_distinct_from_membership(self):
        # 1 is outside every construction's region at n = 6, and no claim about
        # membership is implied by that
        with pytest.raises(NoWitnessError):
            verify_witness(6, 1)

    def test_no_construction_for_negative_target(self):
        with pytest.raises(NoWitnessError):
            verify_witness(9, -1)

    def test_lambda_dispatch(self):
        assert verify_witness(11, 2).partition == (4, 4, 2, 1)
        assert verify_witness(24, 2).partition == (6, 6, 5, 3, 2, 2)
