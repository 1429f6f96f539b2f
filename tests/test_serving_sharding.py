"""Sharded, replicated serving tier (`repro.serving.sharding`).

Covers consistent-hash ring placement, the journal follower's
tail/skip/corrupt/resync behavior, publish-time synchronous replication,
failover routing with warm replicas, beyond-replication-factor backfill
from the store, and the kill/rebalance accounting.
"""

from __future__ import annotations

from dataclasses import replace

import numpy as np
import pytest

from repro.basis import OrthonormalBasis, total_degree_index_set
from repro.runtime.metrics import metrics
from repro.serving import (
    JournalFollower,
    ModelRegistry,
    ShardDeadError,
    ShardRouter,
)
from repro.store import ModelStore

NUM_VARS = 3


def _counter(name):
    return metrics.counters().get(name, 0)


def make_basis():
    return OrthonormalBasis(NUM_VARS, total_degree_index_set(NUM_VARS, 1))


def make_model(seed=0):
    from repro.regression import FittedModel

    basis = make_basis()
    coeffs = np.random.default_rng(seed).normal(size=len(basis.indices))
    return FittedModel(basis, coeffs)


@pytest.fixture
def store(tmp_path):
    return ModelStore(tmp_path, use_fsync=False)


def make_router(store, **kwargs):
    kwargs.setdefault("num_shards", 3)
    kwargs.setdefault("replication_factor", 2)
    kwargs.setdefault("engine_kwargs", {"workers": 1, "max_delay_seconds": 0.0})
    return ShardRouter(store, **kwargs)


class TestRingPlacement:
    def test_preference_is_a_permutation_of_all_shards(self, store):
        router = make_router(store, num_shards=4)
        for name in ("power", "delay", "gain", "offset", "model-0007"):
            preference = router.preference(name)
            assert sorted(preference) == [0, 1, 2, 3]
            assert router.primary(name) == preference[0]
            assert router.replicas(name) == preference[:2]

    def test_placement_is_deterministic_across_routers(self, store, tmp_path):
        first = make_router(store)
        second = make_router(ModelStore(tmp_path / "other", use_fsync=False))
        names = [f"model-{i:04d}" for i in range(32)]
        assert [first.preference(n) for n in names] == [
            second.preference(n) for n in names
        ]

    def test_keys_spread_over_shards(self, store):
        router = make_router(store, num_shards=3)
        homes = {router.primary(f"model-{i:04d}") for i in range(64)}
        assert homes == {0, 1, 2}  # 64 keys never all land on one shard

    def test_replication_factor_clamped_to_shard_count(self, store):
        router = make_router(store, num_shards=2, replication_factor=5)
        assert router.replication_factor == 2
        assert len(router.replicas("power")) == 2

    def test_constructor_validation(self, store):
        with pytest.raises(ValueError, match="num_shards"):
            ShardRouter(store, num_shards=0)
        with pytest.raises(ValueError, match="replication_factor"):
            ShardRouter(store, replication_factor=0)
        with pytest.raises(ValueError, match="virtual_nodes"):
            ShardRouter(store, virtual_nodes=0)


class TestJournalFollower:
    def test_tail_applies_new_entries_idempotently(self, store):
        primary = ModelRegistry(store=store)
        replica = ModelRegistry()
        follower = JournalFollower(store, replica)
        primary.publish("power", make_model(seed=1))
        primary.publish("power", make_model(seed=2))
        before = _counter("serving.shard.replica_applied")
        assert follower.poll() == 2
        assert _counter("serving.shard.replica_applied") - before == 2
        assert follower.poll() == 0  # offset advanced: nothing new
        assert follower.lag() == 0
        # The replica is bitwise comparable to the primary.
        assert replica.snapshot() == primary.snapshot()
        assert replica.current("power").version == 2

    def test_served_coefficients_do_not_keep_the_record_blob(
        self, store, monkeypatch
    ):
        import repro.store.store as store_module

        blobs = []
        decode = store_module.decode_record

        def recording(blob):
            blobs.append(blob)
            return decode(blob)

        monkeypatch.setattr(store_module, "decode_record", recording)
        primary = ModelRegistry(store=store)
        replica = ModelRegistry()
        follower = JournalFollower(store, replica)
        primary.publish("power", make_model(seed=1))
        assert follower.poll() == 1
        [blob] = blobs
        served = replica.current("power").model.coefficients
        assert np.array_equal(served, make_model(seed=1).coefficients)
        assert not np.shares_memory(served, np.frombuffer(blob, dtype=np.uint8))

    def test_versions_with_one_basis_share_it(self, store):
        primary = ModelRegistry(store=store)
        replica = ModelRegistry()
        follower = JournalFollower(store, replica)
        primary.publish("power", make_model(seed=1))
        primary.publish("power", make_model(seed=2))
        primary.publish("delay", make_model(seed=3))
        assert follower.poll() == 3
        bases = [
            record.model.basis
            for name in ("power", "delay")
            for record in replica.versions(name)
        ]
        assert len(bases) == 3
        assert all(basis is bases[0] for basis in bases)
        assert bases[0] == make_basis()
        x = np.random.default_rng(4).normal(size=(5, NUM_VARS))
        for name in ("power", "delay"):
            assert np.array_equal(
                replica.current(name).model.predict(x),
                primary.current(name).model.predict(x),
            )

    def test_should_replicate_filters_names(self, store):
        primary = ModelRegistry(store=store)
        replica = ModelRegistry()
        follower = JournalFollower(
            store, replica, should_replicate=lambda name: name == "power"
        )
        primary.publish("power", make_model(seed=1))
        primary.publish("delay", make_model(seed=2))
        assert follower.poll() == 1
        assert replica.names() == ("power",)
        assert follower.offset == 2  # filtered entries still consumed

    def test_already_held_versions_skipped(self, store):
        registry = ModelRegistry(store=store)
        follower = JournalFollower(store, registry)
        registry.publish("power", make_model())
        before = _counter("serving.shard.replica_skipped")
        assert follower.poll() == 0  # the publisher already holds v1
        assert _counter("serving.shard.replica_skipped") - before == 1

    def test_corrupt_record_counted_and_skipped(self, store):
        primary = ModelRegistry(store=store)
        replica = ModelRegistry()
        follower = JournalFollower(store, replica)
        primary.publish("power", make_model(seed=1))
        primary.publish("power", make_model(seed=2))
        path = store.records_dir / store.record_filename("power", 2)
        blob = bytearray(path.read_bytes())
        blob[-1] ^= 0xFF
        path.write_bytes(bytes(blob))
        before = _counter("serving.shard.replica_corrupt")
        assert follower.poll() == 1  # v1 applied, v2 corrupt
        assert _counter("serving.shard.replica_corrupt") - before == 1
        assert replica.current("power").version == 1

    def test_basis_off_its_digest_counted_and_skipped(self, store):
        primary = ModelRegistry(store=store)
        replica = ModelRegistry()
        follower = JournalFollower(store, replica)
        primary.publish("power", make_model(seed=1))
        record = store.read(store.records_dir / store.record_filename("power", 1))
        store.append(replace(record, name="delay", basis_digest="0" * 32))
        before = _counter("serving.shard.replica_corrupt")
        assert follower.poll() == 1  # power applied, delay refused
        assert _counter("serving.shard.replica_corrupt") - before == 1
        assert "delay" not in replica
        assert replica.current("power").model.basis == make_basis()

    def test_resync_bootstraps_fresh_registry(self, store):
        primary = ModelRegistry(store=store)
        primary.publish("power", make_model(seed=1))
        primary.publish("delay", make_model(seed=2))
        follower = JournalFollower(store, ModelRegistry())
        assert follower.resync() == 2
        assert follower.registry.snapshot() == primary.snapshot()
        assert follower.lag() == 0  # offset jumped to the journal end
        # Incremental tailing resumes after the bootstrap.
        primary.publish("power", make_model(seed=3))
        assert follower.poll() == 1

    def test_resync_refuses_populated_registry(self, store):
        registry = ModelRegistry(store=store)
        registry.publish("power", make_model())
        follower = JournalFollower(store, registry)
        with pytest.raises(RuntimeError, match="fresh"):
            follower.resync()


class TestReplicationAndRouting:
    def test_publish_replicates_synchronously(self, store):
        with make_router(store) as router:
            router.publish("power", make_model())
            replicas = router.replicas("power")
            for shard_id in range(router.num_shards):
                held = "power" in router.shard(shard_id).registry
                assert held == (shard_id in replicas)

    def test_predict_serves_from_primary(self, store):
        basis = make_basis()
        coefficients = np.zeros(len(basis.indices))
        coefficients[0] = 2.0
        from repro.regression import FittedModel

        with make_router(store) as router:
            router.publish("power", FittedModel(basis, coefficients))
            x = np.zeros(NUM_VARS)
            expected = coefficients[0] * basis.design_matrix(x[None, :])[0, 0]
            assert router.predict("power", x) == pytest.approx(expected)

    def test_unknown_name_raises_keyerror(self, store):
        with make_router(store) as router:
            with pytest.raises(KeyError, match="no model published"):
                router.submit("ghost", np.zeros(NUM_VARS))

    def test_failover_routes_to_warm_replica(self, store):
        with make_router(store) as router:
            router.publish("power", make_model())
            primary, standby = router.replicas("power")
            routes_before = _counter("serving.shard.failover_routes")
            backfills_before = _counter("serving.shard.backfills")
            assert router.kill_shard(primary) == 1
            # The standby already replicated the model at publish time:
            # failover serves it warm, no backfill, no refit.
            result = router.predict("power", np.zeros(NUM_VARS))
            assert result.shape == (1,)
            assert router.engine_for("power") is router.shard(standby).engine
            assert _counter("serving.shard.failover_routes") - routes_before >= 1
            assert _counter("serving.shard.backfills") - backfills_before == 0

    def test_backfill_past_the_replica_set(self, store):
        with make_router(store, num_shards=3, replication_factor=1) as router:
            router.publish("power", make_model())
            primary = router.primary("power")
            survivor = router.preference("power")[1]
            assert "power" not in router.shard(survivor).registry
            router.kill_shard(primary)
            before = _counter("serving.shard.backfills")
            result = router.predict("power", np.zeros(NUM_VARS))
            assert result.shape == (1,)
            assert _counter("serving.shard.backfills") - before == 1
            # The survivor now holds a warm replica: no second backfill.
            router.predict("power", np.zeros(NUM_VARS))
            assert _counter("serving.shard.backfills") - before == 1

    def test_all_replicas_dead_raises(self, store):
        with make_router(store, num_shards=2) as router:
            router.publish("power", make_model())
            router.kill_shard(0)
            router.kill_shard(1)
            with pytest.raises(ShardDeadError, match="dead"):
                router.submit("power", np.zeros(NUM_VARS))

    def test_publish_after_failover_replicates_to_successor(self, store):
        with make_router(store, num_shards=3, replication_factor=2) as router:
            router.publish("power", make_model(seed=1))
            primary = router.primary("power")
            router.kill_shard(primary)
            # Replication duty follows the failover: the next publish
            # lands on the two *live* successors.
            router.publish("power", make_model(seed=2))
            live = [s for s in router.preference("power") if s != primary]
            for shard_id in live[:2]:
                assert router.shard(shard_id).registry.current(
                    "power"
                ).version == 2


class TestKillAndRebalance:
    def test_kill_counts_names_routed_to_the_dead_shard(self, store):
        with make_router(store, num_shards=3) as router:
            names = [f"model-{i:04d}" for i in range(12)]
            for name in names:
                router.publish(name, make_model())
            victim = router.primary(names[0])
            owned = sum(1 for n in names if router.primary(n) == victim)
            failovers_before = _counter("serving.shard.failovers")
            assert router.kill_shard(victim) == owned
            assert _counter("serving.shard.failovers") - failovers_before == 1
            assert victim not in router.alive_shards()
            stats = router.stats()
            assert stats["failovers"] == 1
            assert stats["rebalanced_keys"] == owned
            assert victim not in stats["shards"]

    def test_kill_is_idempotent(self, store):
        with make_router(store) as router:
            router.publish("power", make_model())
            victim = router.primary("power")
            first = router.kill_shard(victim)
            assert first >= 1
            assert router.kill_shard(victim) == 0  # already dead: no-op
            assert router.stats()["failovers"] == 1

    def test_second_kill_rebalances_onto_third_shard(self, store):
        with make_router(store, num_shards=3, replication_factor=2) as router:
            router.publish("power", make_model())
            preference = router.preference("power")
            router.kill_shard(preference[0])
            router.kill_shard(preference[1])
            # Both ring replicas are gone: the third shard backfills from
            # the store and keeps serving.
            result = router.predict("power", np.zeros(NUM_VARS))
            assert result.shape == (1,)
            assert router.engine_for("power") is router.shard(
                preference[2]
            ).engine

    def test_all_requests_answered_across_a_kill(self, store):
        with make_router(store, num_shards=3) as router:
            names = [f"model-{i:04d}" for i in range(6)]
            for name in names:
                router.publish(name, make_model())
            rng = np.random.default_rng(5)
            answered = 0
            for index in range(60):
                if index == 30:
                    router.kill_shard(router.primary(names[0]))
                name = names[int(rng.integers(len(names)))]
                x = rng.normal(size=NUM_VARS)
                future = router.submit(name, x)
                assert future.result(timeout=10.0).shape == (1,)
                answered += 1
            assert answered == 60
            assert router.max_version_lag() == 0


class TestIntrospection:
    def test_stats_shape(self, store):
        with make_router(store) as router:
            router.publish("power", make_model())
            stats = router.stats()
            assert stats["num_shards"] == 3
            assert stats["replication_factor"] == 2
            assert stats["alive_shards"] == (0, 1, 2)
            assert stats["names"] == 1
            assert set(stats["shards"]) == {0, 1, 2}
            for shard_stats in stats["shards"].values():
                assert "max_version_lag" in shard_stats

    def test_names_and_placement(self, store):
        with make_router(store) as router:
            router.publish("power", make_model())
            router.publish("delay", make_model())
            assert router.names() == ("power", "delay")
            placement = router.placement()
            assert set(placement) == {"power", "delay"}
            assert placement["power"] == router.replicas("power")

    def test_catch_up_sweeps_all_followers(self, store):
        # Publish through a *separate* registry on the shared store: no
        # router shard has seen the journal entries yet.
        outside = ModelRegistry(store=store)
        outside.publish("power", make_model())
        with make_router(store) as router:
            assert max(router.follower_lag().values()) == 1
            applied = router.catch_up()
            assert applied == len(router.replicas("power"))
            assert max(router.follower_lag().values()) == 0


class TestRollingRestart:
    def test_restart_shard_rebuilds_from_store(self, store):
        with make_router(store) as router:
            names = [f"model-{i:04d}" for i in range(6)]
            for name in names:
                router.publish(name, make_model())
            old_shard = router.shard(0)
            restarts_before = _counter("serving.shard.restarts")
            restored = router.restart_shard(0)
            assert restored == len(names)  # resync is a full replica
            assert router.shard(0) is not old_shard
            assert _counter("serving.shard.restarts") - restarts_before == 1
            assert 0 in router.alive_shards()
            # The replacement serves immediately, warm from the store.
            for name in names:
                assert router.predict(name, np.zeros(NUM_VARS)).shape == (1,)

    def test_drive_callback_runs_while_shard_is_down(self, store):
        with make_router(store) as router:
            router.publish("power", make_model())
            observed = {}

            def drive(shard_id):
                observed["alive_during"] = router.alive_shards()
                # Live traffic keeps flowing through the degraded ring.
                assert router.predict("power", np.zeros(NUM_VARS)).shape == (1,)

            router.restart_shard(router.primary("power"), drive=drive)
            assert router.primary("power") not in observed["alive_during"]
            assert router.alive_shards() == (0, 1, 2)

    def test_rolling_restart_answers_every_request(self, store):
        with make_router(store, num_shards=3, replication_factor=2) as router:
            names = [f"model-{i:04d}" for i in range(8)]
            for name in names:
                router.publish(name, make_model())
            rng = np.random.default_rng(9)
            answered = 0

            def drive(shard_id):
                nonlocal answered
                for _ in range(10):
                    name = names[int(rng.integers(len(names)))]
                    x = rng.normal(size=NUM_VARS)
                    assert router.predict(name, x, timeout=10.0).shape == (1,)
                    answered += 1

            restored = router.rolling_restart(drive=drive)
            assert set(restored) == {0, 1, 2}
            assert all(count == len(names) for count in restored.values())
            assert answered == 30  # every request during every restart
            assert router.stats()["restarts"] == 3
            assert router.alive_shards() == (0, 1, 2)
            assert router.max_version_lag() == 0

    def test_restart_preserves_registry_config(self, store):
        with make_router(
            store,
            registry_kwargs={"max_versions": 3, "serve_last_good": False},
        ) as router:
            router.publish("power", make_model())
            config_before = router.shard(1).registry.export_config()
            router.restart_shard(1)
            assert router.shard(1).registry.export_config() == config_before
            assert router.shard(1).registry.max_versions == 3
            assert router.shard(1).registry.serve_last_good is False

    def test_restart_revives_a_dead_shard(self, store):
        with make_router(store) as router:
            router.publish("power", make_model())
            router.kill_shard(0)
            assert 0 not in router.alive_shards()
            router.restart_shard(0)
            assert 0 in router.alive_shards()
            assert router.predict("power", np.zeros(NUM_VARS)).shape == (1,)

    def test_rolling_restart_across_compaction_boundary(self, store):
        from repro.store import compact

        with make_router(store) as router:
            names = [f"model-{i:04d}" for i in range(4)]
            for name in names:
                router.publish(name, make_model(seed=1))
                router.publish(name, make_model(seed=2))
            compact(store, history_window=0)
            restored = router.rolling_restart()
            # Only the surviving latest version per name is restorable.
            assert all(count == len(names) for count in restored.values())
            for shard_id in router.alive_shards():
                follower = router.shard(shard_id).follower
                assert follower.generation == 1
                assert follower.offset == store.journal_view().end_offset
            for name in names:
                assert router.predict(name, np.zeros(NUM_VARS)).shape == (1,)


class TestRegistryExportConfig:
    def test_round_trips_constructor_kwargs(self):
        registry = ModelRegistry(
            max_versions=5,
            validate=False,
            serve_last_good=False,
            durability="best-effort",
        )
        config = registry.export_config()
        assert config == {
            "max_versions": 5,
            "validate": False,
            "serve_last_good": False,
            "durability": "best-effort",
        }
        clone = ModelRegistry(**config)
        assert clone.export_config() == config
