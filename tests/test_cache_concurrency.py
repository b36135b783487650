"""Concurrency tests for the shared result cache counters and files.

The satellite contract (docs/serving.md, docs/parallel-execution.md):

* :class:`ResultCache` counters are thread-safe — N threads hammering
  ``lookup``/``store`` lose no increments, and ``summary()`` reads a
  consistent snapshot;
* concurrent stores and lookups of the *same* key never surface a torn
  write: every lookup sees a complete record or a miss, and no
  ``<key>.corrupt`` quarantine or ``.tmp`` litter appears on healthy
  concurrent access.
"""

import threading

from repro.harness.parallel import ResultCache


class TestCounterThreadSafety:
    def test_concurrent_stores_count_exactly(self, tmp_path):
        cache = ResultCache(tmp_path)
        threads_n, per_thread = 8, 50

        def work(worker: int) -> None:
            for i in range(per_thread):
                cache.store(f"w{worker}-k{i}", {"v": i})

        threads = [
            threading.Thread(target=work, args=(w,)) for w in range(threads_n)
        ]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        assert cache.stores == threads_n * per_thread
        assert cache.counters() == {
            "hits": 0,
            "misses": 0,
            "stores": threads_n * per_thread,
            "corrupt": 0,
            "failed_stores": 0,
        }

    def test_concurrent_hits_and_misses_count_exactly(self, tmp_path):
        cache = ResultCache(tmp_path)
        cache.store("present", {"v": 1})
        threads_n, per_thread = 8, 50

        def work() -> None:
            for _ in range(per_thread):
                assert cache.lookup("present") == {"v": 1}
                assert cache.lookup("absent") is None

        threads = [threading.Thread(target=work) for _ in range(threads_n)]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        expected = threads_n * per_thread
        counters = cache.counters()
        assert counters["hits"] == expected
        assert counters["misses"] == expected
        assert counters["corrupt"] == 0

    def test_summary_reflects_counter_snapshot(self, tmp_path):
        cache = ResultCache(tmp_path)
        cache.store("k", {"v": 1})
        cache.lookup("k")
        cache.lookup("gone")
        assert cache.summary() == "1 hits, 1 misses, 1 stores"

    def test_summary_includes_corrupt_when_quarantined(self, tmp_path):
        cache = ResultCache(tmp_path)
        cache.path_for("bad").write_text("{ torn")
        assert cache.lookup("bad") is None
        assert (
            cache.summary()
            == "0 hits, 1 misses, 0 stores, 1 corrupt (quarantined)"
        )


class TestTornWriteSafety:
    def test_same_key_store_lookup_storm_never_corrupts(self, tmp_path):
        """Many writers and readers on ONE key: every lookup is either a
        complete record or a miss — never a quarantine."""
        cache = ResultCache(tmp_path)
        key = "contended"
        stop = threading.Event()
        seen: list[dict] = []
        failures: list[str] = []

        def writer(worker: int) -> None:
            i = 0
            while not stop.is_set():
                cache.store(key, {"worker": worker, "i": i, "pad": "x" * 4096})
                i += 1

        def reader() -> None:
            while not stop.is_set():
                record = cache.lookup(key)
                if record is None:
                    continue
                if set(record) != {"worker", "i", "pad"}:
                    failures.append(f"torn record: {sorted(record)}")
                seen.append(record)

        threads = [
            threading.Thread(target=writer, args=(w,)) for w in range(3)
        ] + [threading.Thread(target=reader) for _ in range(3)]
        for t in threads:
            t.start()
        timer = threading.Timer(1.5, stop.set)
        timer.start()
        for t in threads:
            t.join(timeout=30)
        timer.cancel()

        assert not failures, failures[:3]
        assert seen, "readers never observed a stored record"
        assert cache.corrupt == 0
        assert not list(tmp_path.glob("*.corrupt"))
        assert not list(tmp_path.glob("*.tmp"))
        # The final state is one of the writers' last records, intact.
        final = cache.lookup(key)
        assert set(final) == {"worker", "i", "pad"}

    def test_distinct_key_storm_all_round_trip(self, tmp_path):
        cache = ResultCache(tmp_path)
        threads_n, per_thread = 6, 40

        def work(worker: int) -> None:
            for i in range(per_thread):
                key = f"w{worker}-k{i}"
                cache.store(key, {"worker": worker, "i": i})
                assert cache.lookup(key) == {"worker": worker, "i": i}

        threads = [
            threading.Thread(target=work, args=(w,)) for w in range(threads_n)
        ]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        assert cache.corrupt == 0
        assert cache.hits == threads_n * per_thread
        assert not list(tmp_path.glob("*.tmp"))
