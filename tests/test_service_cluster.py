"""Tests for the cluster subsystem: routing keys, the router cache
tier, metric aggregation, and a live two-shard fleet.

The pure parts (routing keys, :class:`MemoryLru`, the Prometheus
combiner) are unit-tested directly.  The live tests spin ONE
``repro-cluster`` subprocess for the whole module (two shards, one
worker each, a test-private shared result cache) and verify the
behaviours a single-server test cannot: routed forwarding, the
router cache tier, the aggregated ``/metrics`` exposition, and
edge validation.  The heavier fleet properties — cluster-wide
single-flight, lossless rolling restart, graceful drain — live in
``repro.service.loadgen --mode cluster-smoke`` (the CI cluster-smoke
step), not here.
"""

import json

import pytest

from repro.experiments.resultcache import MemoryLru
from repro.service.client import ServiceClient, ServiceError
from repro.service.loadgen import ManagedCluster
from repro.service.protocol import ServiceError as ProtocolError
from repro.service.router import (
    QUERY_PATHS,
    ClusterConfig,
    ClusterRouter,
    _Shard,
    routing_key,
)
from repro.telemetry.metrics import combine_prometheus_texts

SCALE = 0.02

REPLAY_PAYLOAD = {"spec": {"engine": "directory", "app": "water",
                           "policy": "basic", "cache_size": 64 * 1024,
                           "scale": SCALE}}


class TestRoutingKey:
    def test_stable_across_payload_ordering(self):
        shuffled = {"spec": dict(reversed(list(
            REPLAY_PAYLOAD["spec"].items()
        )))}
        assert (routing_key("/v1/replay", REPLAY_PAYLOAD)
                == routing_key("/v1/replay", shuffled))

    def test_distinct_specs_distinct_keys(self):
        other = {"spec": {**REPLAY_PAYLOAD["spec"],
                          "policy": "aggressive"}}
        assert (routing_key("/v1/replay", REPLAY_PAYLOAD)
                != routing_key("/v1/replay", other))

    def test_defaulted_fields_normalise(self):
        # A spec that spells out a default routes like one that omits
        # it: the key hashes the *parsed* spec, not the raw JSON.
        from repro.service.protocol import parse_replay_request

        spec = parse_replay_request(REPLAY_PAYLOAD)
        spelled = {"spec": spec.to_payload()}
        assert (routing_key("/v1/replay", REPLAY_PAYLOAD)
                == routing_key("/v1/replay", spelled))

    def test_each_query_path_parses(self):
        payloads = {
            "/v1/replay": REPLAY_PAYLOAD,
            "/v1/compare": {"policies": ["conventional", "basic"],
                            "spec": {"app": "water",
                                     "cache_size": 64 * 1024,
                                     "scale": SCALE}},
            "/v1/experiment": {"name": "table2", "scale": SCALE,
                               "apps": ["water"]},
            "/v1/verify": {"engine": "bus", "protocol": "mesi"},
        }
        keys = {path: routing_key(path, payloads[path])
                for path in QUERY_PATHS}
        assert len(set(keys.values())) == len(QUERY_PATHS)
        for key in keys.values():
            assert len(key) == 24
            int(key, 16)  # hex digest prefix

    def test_invalid_spec_raises_at_the_edge(self):
        with pytest.raises(ProtocolError):
            routing_key("/v1/replay", {"spec": {"app": "doom"}})
        with pytest.raises(ProtocolError):
            routing_key("/v1/verify", {"engine": "bus",
                                       "protocol": "nonesuch"})


class TestMemoryLru:
    def test_miss_then_hit(self):
        lru = MemoryLru(capacity=2)
        assert lru.get("a") is None
        lru.put("a", {"x": 1})
        assert lru.get("a") == {"x": 1}
        assert lru.stats() == {"entries": 1, "capacity": 2, "hits": 1,
                               "misses": 1, "evictions": 0}

    def test_lru_eviction_order(self):
        lru = MemoryLru(capacity=2)
        lru.put("a", 1)
        lru.put("b", 2)
        lru.get("a")        # refresh a: b is now least recent
        lru.put("c", 3)
        assert "a" in lru and "c" in lru
        assert "b" not in lru
        assert lru.evictions == 1

    def test_unbounded_never_evicts(self):
        lru = MemoryLru()
        for i in range(500):
            lru.put(f"k{i}", i)
        assert len(lru) == 500
        assert lru.evictions == 0

    def test_clear(self):
        lru = MemoryLru(capacity=4)
        lru.put("a", 1)
        lru.clear()
        assert len(lru) == 0
        assert "a" not in lru

    def test_rejects_silly_capacity(self):
        with pytest.raises(ValueError):
            MemoryLru(capacity=0)


class TestCombineMetrics:
    A = ("# HELP repro_x total x\n# TYPE repro_x counter\n"
         'repro_x{kind="directory"} 3\nrepro_up 1\n')
    B = ("# HELP repro_x total x\n# TYPE repro_x counter\n"
         'repro_x{kind="directory"} 4\n')

    def test_relabels_and_dedupes_families(self):
        text = combine_prometheus_texts([("shard-0", self.A),
                                         ("shard-1", self.B)])
        assert text.count("# HELP repro_x") == 1
        assert text.count("# TYPE repro_x") == 1
        assert 'repro_x{shard="shard-0",kind="directory"} 3' in text
        assert 'repro_x{shard="shard-1",kind="directory"} 4' in text
        assert 'repro_up{shard="shard-0"} 1' in text

    def test_deterministic_whatever_the_order(self):
        forward = combine_prometheus_texts([("shard-0", self.A),
                                            ("shard-1", self.B)])
        backward = combine_prometheus_texts([("shard-1", self.B),
                                             ("shard-0", self.A)])
        assert forward == backward

    def test_sums_via_metric_value(self):
        from repro.service.client import metric_value, parse_metrics_text

        text = combine_prometheus_texts([("shard-0", self.A),
                                         ("shard-1", self.B)])
        samples = parse_metrics_text(text)
        assert metric_value(samples, "repro_x", kind="directory") == 7
        assert metric_value(samples, "repro_x", shard="shard-1") == 4


class TestHotKeys:
    """Hot-set accounting and shard picking, on a router whose fleet
    is three never-spawned shards."""

    @staticmethod
    def router(tmp_path, **overrides) -> ClusterRouter:
        router = ClusterRouter(ClusterConfig(shards=3, cache_dir=tmp_path,
                                             **overrides))
        for index in range(3):
            name = f"shard-{index}"
            router._shards[name] = _Shard(name, handle=None)
            router.ring.add(name)
        return router

    def test_refresh_runs_every_stride_requests(self, tmp_path,
                                                monkeypatch):
        router = self.router(tmp_path)
        refreshes = []
        monkeypatch.setattr(router, "_refresh_hot",
                            lambda: refreshes.append(len(refreshes)))
        for index in range(100):
            router._note_key(f"key-{index % 7}")
        assert len(refreshes) == 100 // 32

    def test_key_turns_hot_only_at_a_refresh(self, tmp_path):
        router = self.router(tmp_path, hot_key_min=8)
        for _ in range(31):
            router._note_key("head")
        assert router._hot == frozenset()  # 31 notes: no refresh yet
        router._note_key("head")
        assert router._hot == {"head"}

    def test_count_floor(self, tmp_path):
        router = self.router(tmp_path, hot_key_min=8)
        router._key_counts = {"seven": 7, "eight": 8}
        router._refresh_hot()
        assert router._hot == {"eight"}

    def test_top_k_cut(self, tmp_path):
        router = self.router(tmp_path, hot_key_min=1, hot_key_top=2)
        router._key_counts = {"a": 40, "b": 30, "c": 20, "d": 10}
        router._refresh_hot()
        assert router._hot == {"a", "b"}

    def test_hot_key_round_robins_over_replicas(self, tmp_path):
        router = self.router(tmp_path, replicas=2)
        router._hot = frozenset({"hot"})
        replicas = router.ring.preference("hot", 2)
        picked = [router._pick("hot", set()).name for _ in range(4)]
        assert picked == replicas * 2

    def test_cold_key_and_single_replica_stick_to_the_ring(self, tmp_path):
        router = self.router(tmp_path, replicas=2)
        home = router.ring.route("cold")
        assert {router._pick("cold", set()).name
                for _ in range(4)} == {home}
        solo = self.router(tmp_path, replicas=1)
        solo._hot = frozenset({"hot"})
        assert {solo._pick("hot", set()).name
                for _ in range(4)} == {solo.ring.route("hot")}


# ----------------------------------------------------------------------
# Live fleet
# ----------------------------------------------------------------------

@pytest.fixture(scope="module")
def cluster(tmp_path_factory):
    """One two-shard fleet for every live test in this module."""
    cache_dir = tmp_path_factory.mktemp("cluster-results")
    fleet = ManagedCluster(shards=2, max_queue=16, jobs=1,
                           cache_dir=str(cache_dir), router_cache=64,
                           replicas=2)
    fleet.start()
    yield fleet
    assert fleet.stop() == 0


@pytest.fixture(scope="module")
def client(cluster):
    return ServiceClient("127.0.0.1", cluster.port)


class TestLiveCluster:
    def test_healthz_identifies_the_router(self, client):
        health = client.healthz()
        assert health["status"] == "ok"
        assert health["role"] == "cluster-router"

    def test_replay_roundtrip_then_router_tier_hit(self, client):
        spec = dict(engine="directory", app="water", policy="basic",
                    cache_size=64 * 1024, scale=SCALE)
        first = client.replay(**spec)
        assert first["type"] == "replay"
        assert first["cached"] is False
        assert "tier" not in first
        second = client.replay(**spec)
        assert second["cached"] is True
        assert second["tier"] == "router"
        assert second["result"] == first["result"]

    def test_cluster_status_shape(self, client):
        status = client.cluster_status()
        assert status["type"] == "cluster-status"
        assert len(status["shards"]) == 2
        for shard in status["shards"]:
            assert shard["healthy"] is True
            assert shard["restarts"] == 0
        assert status["ring"]["shards"] == ["shard-0", "shard-1"]
        assert abs(sum(status["ring"]["shares"].values()) - 1.0) < 0.01
        assert status["router_cache"]["capacity"] == 64
        assert status["replicas"] == 2

    def test_combined_metrics_labels_every_member(self, client):
        status, headers, text = client.request("GET", "/metrics")
        assert status == 200
        assert headers["content-type"].startswith("text/plain")
        assert 'shard="router"' in text
        assert 'shard="shard-0"' in text
        assert 'shard="shard-1"' in text

    def test_bad_spec_rejected_at_the_edge(self, client):
        before = sum(s["forwards"]
                     for s in client.cluster_status()["shards"])
        with pytest.raises(ServiceError) as excinfo:
            client.replay(app="doom")
        assert excinfo.value.status == 400
        after = sum(s["forwards"]
                    for s in client.cluster_status()["shards"])
        assert after == before  # never reached a shard

    def test_unknown_path_404(self, client):
        status, _, payload = client.request("GET", "/v2/anything")
        assert status == 404
        assert payload["type"] == "error"

    def test_wrong_method_405(self, client):
        for method, path in (("GET", "/v1/replay"),
                             ("POST", "/v1/cluster/status")):
            status, _, payload = client.request(method, path)
            assert status == 405, path
            assert payload["type"] == "error"

    def test_non_json_body_400(self, cluster, raw_http):
        body = b"not json"
        status, _, payload = raw_http(
            cluster.port,
            b"POST /v1/replay HTTP/1.1\r\nConnection: close\r\n"
            b"Content-Length: %d\r\n\r\n%s" % (len(body), body),
        )
        assert status == 400
        assert "invalid JSON" in json.loads(payload)["error"]

    def test_unframeable_request_400_and_close(self, cluster, client,
                                               raw_http, unframeable):
        status, headers, _ = raw_http(cluster.port, unframeable)
        assert status == 400
        assert headers["connection"] == "close"
        # The router stays up for well-formed traffic.
        assert client.healthz()["status"] == "ok"
