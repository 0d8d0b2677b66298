"""FrameSeries: one matrix that reads as a sequence of frames; on_slices:
one contiguous slice of a stage per usable CPU; in_order: a stream's
items made two at a time and yielded in order."""

import sys
import threading
import time

import numpy as np
import pytest

from chansounder import frames
from chansounder.frames import FrameSeries, ImpulseResponseFrame

from conftest import random_complex


def make_series(rng, count=4, n=8):
    return FrameSeries(
        random_complex(rng, (count, n)),
        sequence_index=2 * np.arange(count),
        t_i=(np.arange(count) + 1) * 1e-5,
        corrected=np.arange(count) == 1,
    )


class TestFrameSeries:
    def test_rows_read_back_as_frames(self, rng):
        series = make_series(rng)
        assert series.h.shape == (4, 8) and series.h.dtype == np.complex128
        assert series.n_seq == 8
        assert series.sequence_index.tolist() == [0, 2, 4, 6]
        assert series.corrected.tolist() == [False, True, False, False]
        rows = list(series)
        assert len(rows) == 4 and all(isinstance(fr, ImpulseResponseFrame) for fr in rows)
        for i, fr in enumerate(rows):
            assert np.array_equal(fr.h, series.h[i])
            assert (fr.t_i, fr.sequence_index, fr.corrected) == ((i + 1) * 1e-5, 2 * i, i == 1)

    def test_indexing_and_slicing(self, rng):
        series = make_series(rng)
        assert series[-1].sequence_index == 6
        part = series[1:3]
        assert isinstance(part, FrameSeries)
        assert part.sequence_index.tolist() == [2, 4]
        assert part.corrected.tolist() == [True, False]
        with pytest.raises(IndexError):
            series[4]

    def test_read_only(self, rng):
        series = make_series(rng)
        with pytest.raises(ValueError):
            series.h[0, 0] = 0.0
        with pytest.raises(ValueError):
            series[0].h[0] = 0.0

    def test_scalar_corrected_applies_to_every_row(self):
        series = FrameSeries(np.zeros((3, 4)), [0, 1, 2], [0.0, 1.0, 2.0], corrected=True)
        assert series.corrected.tolist() == [True, True, True]

    def test_validation(self):
        with pytest.raises(ValueError, match="non-negative"):
            FrameSeries(np.zeros((2, 4)), [0, -1], [0.0, 1.0])
        with pytest.raises(ValueError, match="per frame"):
            FrameSeries(np.zeros((2, 4)), [0], [0.0, 1.0])
        with pytest.raises(ValueError, match="matrix"):
            FrameSeries(np.zeros(4), [0], [0.0])


class TestOnSlices:
    """on_slices runs a stage on one contiguous slice per usable CPU (at
    most MAX_SLICES), the first on the caller's thread, and joins every
    thread it starts."""

    @pytest.mark.parametrize("count", [1, 2, 3, 8])
    @pytest.mark.parametrize("n", [0, 1, 2, 5, 100])
    def test_slices_cut_the_range_in_order(self, monkeypatch, count, n):
        monkeypatch.setattr(frames, "usable_cpus", lambda: count)
        parts, lock = [], threading.Lock()

        def record(part):
            with lock:
                parts.append(part)

        frames.on_slices(record, n)
        parts.sort(key=lambda p: p.start)
        assert len(parts) == max(1, min(n, count, frames.MAX_SLICES))
        assert [i for p in parts for i in range(p.start, p.stop)] == list(range(n))
        widths = [p.stop - p.start for p in parts]
        assert max(widths) - min(widths) <= 1

    def test_first_slice_on_the_caller_and_each_other_on_its_own_thread(self, monkeypatch):
        monkeypatch.setattr(frames, "usable_cpus", lambda: 3)
        baseline = threading.active_count()
        threads = {}

        def record(part):
            threads[part.start] = threading.current_thread()

        frames.on_slices(record, 9)
        assert threads[0] is threading.current_thread()
        assert len({id(threads[3]), id(threads[6]), id(threads[0])}) == 3
        assert threading.active_count() == baseline

    def test_one_cpu_starts_no_thread(self, monkeypatch):
        monkeypatch.setattr(frames, "usable_cpus", lambda: 1)
        baseline = threading.active_count()
        seen = []

        def record(part):
            seen.append((part, threading.get_ident(), threading.active_count()))

        frames.on_slices(record, 100)
        assert seen == [(slice(0, 100), threading.get_ident(), baseline)]

    def test_error_in_a_later_slice_raises_in_the_caller(self, monkeypatch):
        monkeypatch.setattr(frames, "usable_cpus", lambda: 3)
        baseline = threading.active_count()
        done = []

        def fail_past_the_first(part):
            if part.start:
                raise ValueError(f"slice from {part.start}")
            time.sleep(0.05)  # the others fail first
            done.append(part)

        with pytest.raises(ValueError, match="slice from 3$"):
            frames.on_slices(fail_past_the_first, 9)
        assert done == [slice(0, 3)]
        assert threading.active_count() == baseline

    def test_error_in_the_first_slice_waits_for_the_others(self, monkeypatch):
        monkeypatch.setattr(frames, "usable_cpus", lambda: 2)
        baseline = threading.active_count()
        done = []

        def fail_first(part):
            if not part.start:
                raise KeyError("first")
            time.sleep(0.05)
            done.append(part)

        with pytest.raises(KeyError, match="first"):
            frames.on_slices(fail_first, 4)
        assert done == [slice(2, 4)]
        assert threading.active_count() == baseline


class TestInOrder:
    """in_order yields make(0) .. make(n - 1) in order: the even items made
    on the caller's thread, the odd ones on one helper thread, which is
    joined however the iteration ends."""

    @staticmethod
    def made_on(count, n):
        """The items of in_order over ``n`` on ``count`` usable CPUs, each
        with the thread that made it, and the threads alive after."""
        items = []
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(frames, "usable_cpus", lambda: count)
            for i, thread in frames.in_order(lambda i: (i, threading.current_thread()), n):
                items.append((i, thread))
        return items

    @pytest.mark.parametrize("n", [0, 1, 2, 3, 10])
    def test_even_items_on_the_caller_and_odd_ones_on_one_helper(self, n):
        baseline = threading.active_count()
        items = self.made_on(2, n)
        assert [i for i, _ in items] == list(range(n))
        assert all(t is threading.current_thread() for i, t in items if i % 2 == 0)
        helpers = {id(t) for i, t in items if i % 2}
        assert len(helpers) == (n > 1) and threading.current_thread() not in [t for i, t in items if i % 2]
        assert threading.active_count() == baseline

    @pytest.mark.parametrize("n", [0, 1, 5])
    def test_one_cpu_starts_no_thread(self, n, monkeypatch):
        monkeypatch.setattr(threading.Thread, "start", lambda t: pytest.fail("a thread started"))
        items = self.made_on(1, n)
        assert [i for i, _ in items] == list(range(n))
        assert all(t is threading.current_thread() for _, t in items)

    def test_the_helper_holds_one_finished_item_ahead(self, monkeypatch):
        monkeypatch.setattr(frames, "usable_cpus", lambda: 2)
        started = []
        for i in frames.in_order(lambda i: started.append(i) or i, 9):
            time.sleep(0.01)  # the helper runs as far ahead as it may
            assert max(started) <= i + 1 + i % 2, (i, started)

    @pytest.mark.parametrize("bad", [1, 4, 7])
    def test_an_error_is_raised_at_its_own_turn(self, bad, monkeypatch):
        monkeypatch.setattr(frames, "usable_cpus", lambda: 2)
        baseline = threading.active_count()

        def make(i):
            if i == bad:
                raise ValueError(f"item {i}")
            return i

        got = []
        with pytest.raises(ValueError, match=f"item {bad}$"):
            for i in frames.in_order(make, 9):
                got.append(i)
        assert got == list(range(bad))
        assert threading.active_count() == baseline

    @pytest.mark.parametrize("how", ["close", "drop"])
    def test_a_stream_left_part_way_joins_its_helper(self, how, monkeypatch):
        monkeypatch.setattr(frames, "usable_cpus", lambda: 2)
        baseline = threading.active_count()
        items = frames.in_order(lambda i: i, 9)
        assert next(items) == 0 and threading.active_count() == baseline + 1
        if how == "close":
            items.close()
        else:
            del items
        assert threading.active_count() == baseline

    def test_four_streams_at_once_each_give_their_items_in_order(self, monkeypatch):
        # eight threads on the machine's CPUs, switching every microsecond:
        # a lost or reordered hand-over shows as a list out of order
        monkeypatch.setattr(frames, "usable_cpus", lambda: 2)
        baseline = threading.active_count()
        got = [[] for _ in range(4)]

        def drain(k):
            got[k].extend(frames.in_order(lambda i: (k, i), 400))

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            threads = [threading.Thread(target=drain, args=(k,)) for k in range(4)]
            for t in threads:
                t.start()
            for t in threads:
                t.join(30.0)
        finally:
            sys.setswitchinterval(interval)
        assert not any(t.is_alive() for t in threads)
        assert got == [[(k, i) for i in range(400)] for k in range(4)]
        assert threading.active_count() == baseline


class TestInOrderOnThreeWorkers:
    """in_order with three workers on three usable CPUs: the caller makes
    the items i with i % 3 == 0 and helper j those with i % 3 == j."""

    @pytest.fixture(autouse=True)
    def three_cpus(self, monkeypatch):
        monkeypatch.setattr(frames, "usable_cpus", lambda: 3)

    @pytest.mark.parametrize("n", [3, 4, 10])
    def test_items_come_out_in_order_each_made_by_its_worker(self, n):
        baseline = threading.active_count()
        items = list(frames.in_order(lambda i: (i, threading.current_thread()), n, workers=3))
        assert [i for i, _ in items] == list(range(n))
        makers = [{id(t) for i, t in items if i % 3 == j} for j in range(3)]
        assert makers[0] == {id(threading.current_thread())}
        assert all(len(m) == 1 for m in makers) and len(set.union(*makers)) == 3
        assert threading.active_count() == baseline

    @pytest.mark.parametrize("workers, cpus, n, threads", [(3, 2, 9, 2), (3, 3, 2, 2), (3, 3, 1, 1), (1, 3, 9, 1)])
    def test_the_fewest_of_workers_items_and_cpus_make_them(self, monkeypatch, workers, cpus, n, threads):
        monkeypatch.setattr(frames, "usable_cpus", lambda: cpus)
        items = list(frames.in_order(lambda i: (i, threading.get_ident()), n, workers=workers))
        assert [i for i, _ in items] == list(range(n))
        assert len({ident for _, ident in items}) == threads

    @pytest.mark.parametrize("bad", [2, 5, 8])
    def test_an_error_of_helper_2_is_raised_at_its_turn(self, bad):
        baseline = threading.active_count()

        def make(i):
            if i == bad:
                raise ValueError(f"item {i}")
            return i

        got = []
        with pytest.raises(ValueError, match=f"item {bad}$"):
            for i in frames.in_order(make, 9, workers=3):
                got.append(i)
        assert got == list(range(bad))
        assert threading.active_count() == baseline

    @pytest.mark.parametrize("how", ["close", "drop"])
    def test_a_stream_left_part_way_joins_both_helpers(self, how):
        baseline = threading.active_count()
        items = frames.in_order(lambda i: i, 9, workers=3)
        assert next(items) == 0 and threading.active_count() == baseline + 2
        if how == "close":
            items.close()
        else:
            del items
        assert threading.active_count() == baseline

    def test_no_helper_holds_more_than_one_finished_item_ahead(self):
        started, lock = [], threading.Lock()

        def make(i):
            with lock:
                started.append(i)
            return i

        for i in frames.in_order(make, 12, workers=3):
            time.sleep(0.01)  # the helpers run as far ahead as they may
            with lock:
                for j in (1, 2):
                    # helper j starts an item once the caller took its last one
                    last_taken = i - (i - j) % 3
                    assert max(m for m in started if m % 3 == j) <= last_taken + 3, (i, j, started)


def test_numpy_ffts_give_the_bits_of_one_thread_on_two():
    # The slices rest on numpy's FFT giving each row the same bits on any
    # thread, also while another thread plans other lengths: 24 lengths
    # overflow pocketfft's cache of 16 plans, so plans are dropped and made
    # again while the other thread may hold them.
    rng = np.random.default_rng(11)
    lengths = [8, 15, 16, 31, 64, 97, 127, 128, 199, 255, 256, 257,
               500, 511, 512, 1000, 1021, 1023, 1024, 2047, 2048, 3000, 4093, 4096]
    inputs = {n: random_complex(rng, (2, n)) for n in lengths}
    want = {n: (np.fft.fft(x).view(np.uint64), np.fft.ifft(x).view(np.uint64)) for n, x in inputs.items()}
    rounds = 63  # 2 threads x 63 rounds x 24 lengths x 2 transforms: 6,048 calls
    mismatches, calls = [], [0, 0]

    def hammer(t, order):
        for _ in range(rounds):
            for n in order:
                forward, inverse = np.fft.fft(inputs[n]), np.fft.ifft(inputs[n])
                calls[t] += 2
                if not (np.array_equal(forward.view(np.uint64), want[n][0])
                        and np.array_equal(inverse.view(np.uint64), want[n][1])):
                    mismatches.append(n)

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        threads = [threading.Thread(target=hammer, args=(t, rng.permutation(lengths).tolist())) for t in (0, 1)]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=120)
    finally:
        sys.setswitchinterval(interval)
    assert not any(t.is_alive() for t in threads)
    assert calls == [2 * rounds * len(lengths)] * 2
    assert mismatches == []
