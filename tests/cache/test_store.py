"""Unit tests for the persistent content-addressed cache store."""

import os
import pickle

import pytest

from repro.cache import (
    CacheStore,
    case_key,
    code_fingerprint,
    default_cache_dir,
    digest,
    outcome_key,
    workload_fingerprint,
)
from repro.cache.store import TAG_FILE
from repro.fuzz.generator import generate_case
from repro.schedule.base import ScheduleOptions
from repro.workloads.spec import paper_experiments


class TestStoreBasics:
    def test_miss_then_hit(self, tmp_path):
        store = CacheStore(tmp_path)
        assert store.get("a" * 64) is None
        store.put("a" * 64, {"value": 42})
        assert store.get("a" * 64) == {"value": 42}
        assert store.hits == 1 and store.misses == 1

    def test_persists_across_instances(self, tmp_path):
        CacheStore(tmp_path).put("b" * 64, ("x", 1))
        assert CacheStore(tmp_path).get("b" * 64) == ("x", 1)

    def test_put_writes_tag_marker(self, tmp_path):
        store = CacheStore(tmp_path)
        store.put("c" * 64, 1)
        assert (tmp_path / TAG_FILE).exists()

    def test_corrupt_entry_reads_as_miss_and_is_removed(self, tmp_path):
        store = CacheStore(tmp_path)
        key = "d" * 64
        store.put(key, [1, 2, 3])
        path = store._path(key)
        path.write_bytes(b"\x80truncated garbage")
        assert store.get(key) is None
        assert not path.exists()

    def test_stats_counts_current_and_stale(self, tmp_path):
        store = CacheStore(tmp_path)
        store.put("e" * 64, 1)
        store.put("f" * 64, 2)
        # Fake a stale generation left by an older code revision.
        stale = tmp_path / "0123456789abcdef" / "aa"
        stale.mkdir(parents=True)
        (stale / ("a" * 64 + ".pkl")).write_bytes(pickle.dumps(3))
        stats = store.stats()
        assert stats["entries"] == 2
        assert stats["stale_entries"] == 1
        assert stats["generations"] == 2
        assert stats["total_bytes"] > 0

    def test_clear_removes_everything(self, tmp_path):
        store = CacheStore(tmp_path)
        store.put("a" * 64, 1)
        store.put("b" * 64, 2)
        assert store.clear() == 2
        assert store.stats()["entries"] == 0
        # Idempotent on the now-empty (still tagged) root.
        assert store.clear() == 0

    def test_clear_refuses_untagged_directory(self, tmp_path):
        victim = tmp_path / "precious"
        victim.mkdir()
        (victim / "data.txt").write_text("do not delete")
        with pytest.raises(ValueError, match="refusing"):
            CacheStore(victim).clear()
        assert (victim / "data.txt").exists()

    def test_clear_missing_root_is_a_noop(self, tmp_path):
        assert CacheStore(tmp_path / "never-created").clear() == 0

    def test_default_dir_honours_environment(self, monkeypatch):
        monkeypatch.setenv("REPRO_CACHE_DIR", "/somewhere/else")
        assert str(default_cache_dir()) == "/somewhere/else"
        monkeypatch.delenv("REPRO_CACHE_DIR")
        assert str(default_cache_dir()) == ".repro-cache"


class TestVersionedInvalidation:
    def test_generation_dir_is_code_fingerprint_prefix(self, tmp_path):
        store = CacheStore(tmp_path)
        store.put("a" * 64, 1)
        children = [p.name for p in tmp_path.iterdir() if p.is_dir()]
        assert children == [code_fingerprint()[:16]]

    def test_code_fingerprint_is_stable_within_a_process(self):
        assert code_fingerprint() == code_fingerprint()
        assert len(code_fingerprint()) == 64

    def test_entries_of_other_generations_are_invisible(self, tmp_path):
        store = CacheStore(tmp_path)
        key = "a" * 64
        other = tmp_path / ("0" * 16) / key[:2]
        other.mkdir(parents=True)
        (other / f"{key}.pkl").write_bytes(pickle.dumps("stale value"))
        assert store.get(key) is None


class TestKeys:
    def _workload(self):
        spec = next(iter(paper_experiments()))
        return spec.build()

    def test_outcome_key_is_content_addressed(self):
        application, clustering = self._workload()
        spec = next(iter(paper_experiments()))
        from repro.arch.params import Architecture

        architecture = Architecture.m1(spec.fb)
        base = outcome_key(
            "cds", application, clustering, architecture,
            options=ScheduleOptions(), trace=False,
        )
        # Rebuilt (structurally identical) workload: same key.
        application2, clustering2 = spec.build()
        assert base == outcome_key(
            "cds", application2, clustering2, architecture,
            options=ScheduleOptions(), trace=False,
        )
        # Any input change flips the key.
        assert base != outcome_key(
            "ds", application, clustering, architecture,
            options=ScheduleOptions(), trace=False,
        )
        assert base != outcome_key(
            "cds", application, clustering, architecture,
            options=ScheduleOptions(), trace=True,
        )
        assert base != outcome_key(
            "cds", application, clustering, architecture,
            options=ScheduleOptions(rf_cap=2), trace=False,
        )
        assert base != outcome_key(
            "cds", application, clustering, architecture,
            options=ScheduleOptions(), dma_policy="loads_first",
            trace=False,
        )

    def test_options_fingerprint_covers_every_field(self):
        """A new ScheduleOptions field must be added to the persistent
        fingerprint, or stale cache entries would replay silently."""
        import dataclasses

        from repro.cache import options_fingerprint

        fingerprint = options_fingerprint(ScheduleOptions())
        assert len(fingerprint) == len(
            dataclasses.fields(ScheduleOptions)
        )
        # Declaration order, so existing fields keep their positions.
        assert fingerprint == (
            0, "tf", "max_then_keep", False, False, False, False,
        )

    def test_outcome_key_changes_with_every_single_option(self):
        """Flipping any one ScheduleOptions field flips the outcome key."""
        import dataclasses

        from repro.arch.params import Architecture

        changed = {
            "rf_cap": 2,
            "keep_policy": "size",
            "rf_policy": "joint",
            "cross_set_retention": True,
            "strict_lint": True,
            "strict_hazards": True,
            "decision_trace": True,
        }
        names = [field.name for field in dataclasses.fields(ScheduleOptions)]
        assert sorted(changed) == sorted(names)
        spec = next(iter(paper_experiments()))
        application, clustering = spec.build()
        architecture = Architecture.m1(spec.fb)

        def key(options):
            return outcome_key(
                "cds", application, clustering, architecture,
                options=options,
            )

        base = key(ScheduleOptions())
        for name, value in changed.items():
            assert key(ScheduleOptions(**{name: value})) != base, name

    def test_case_key_ignores_name_and_provenance(self):
        case = generate_case("baseline", 7)
        renamed = generate_case("baseline", 7)
        renamed.name = "shrunk-reproducer"
        renamed.regime = ""
        renamed.seed = None
        renamed.failing_oracle = "traffic"
        assert case_key(case) == case_key(renamed)
        other = generate_case("baseline", 8)
        assert case_key(case) != case_key(other)

    def test_workload_fingerprint_identity_free(self):
        application, clustering = self._workload()
        application2, clustering2 = next(
            iter(paper_experiments())
        ).build()
        assert workload_fingerprint(
            application, clustering
        ) == workload_fingerprint(application2, clustering2)

    def test_digest_shape(self):
        assert digest(("a", 1)) != digest(("a", 2))
        assert len(digest(("a",))) == 64
