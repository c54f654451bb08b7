"""Prediction service layer: coalescing what-if serving over repro.api.

The package splits along the request path:

* :mod:`repro.serve.cache` — TTL+LRU result cache keyed by the
  content-addressed run key;
* :mod:`repro.serve.coalescer` — admission queue + dispatchers that
  merge concurrent queries into dense batches;
* :mod:`repro.serve.service` — the protocol-independent service core
  (lifecycle, deadlines, metrics, endpoints);
* :mod:`repro.serve.http` — the zero-dependency asyncio HTTP front end;
* :mod:`repro.serve.client` — the stdlib client;
* :mod:`repro.serve.threadserver` — a background-thread server harness;
* :mod:`repro.serve.loadgen` — the closed-loop benchmark behind
  ``repro bench serve`` and the CI smoke;

and, for the sharded multi-replica deployment:

* :mod:`repro.serve.ring` — the consistent-hash ring over
  content-addressed run keys;
* :mod:`repro.serve.registry` — replica membership + health tracking;
* :mod:`repro.serve.shard` — the router, replica backends, deployment
  harness and routing-aware client;
* :mod:`repro.serve.faults` — deterministic fault injection for the
  test harness.

See ``docs/SERVING.md`` for the wire protocol, capacity tuning and the
sharded-deployment design.
"""

from repro.serve.cache import TTLCache
from repro.serve.client import ServeClient
from repro.serve.coalescer import Coalescer
from repro.serve.faults import FaultError, FaultInjector
from repro.serve.http import DEFAULT_PORT, HttpServer
from repro.serve.loadgen import measure_serve, measure_serve_sharded, run_smoke
from repro.serve.registry import ReplicaInfo, ReplicaSet, ReplicaState
from repro.serve.ring import DEFAULT_VNODES, HashRing, stable_point
from repro.serve.service import PredictionService, ServiceConfig
from repro.serve.shard import (
    ProcessReplica,
    ShardClient,
    ShardConfig,
    ShardDeployment,
    ShardRouter,
    ThreadReplica,
)
from repro.serve.threadserver import ServerThread

__all__ = [
    "TTLCache",
    "Coalescer",
    "ServiceConfig",
    "PredictionService",
    "HttpServer",
    "DEFAULT_PORT",
    "ServeClient",
    "ServerThread",
    "measure_serve",
    "measure_serve_sharded",
    "run_smoke",
    "HashRing",
    "DEFAULT_VNODES",
    "stable_point",
    "ReplicaInfo",
    "ReplicaSet",
    "ReplicaState",
    "FaultError",
    "FaultInjector",
    "ShardConfig",
    "ShardRouter",
    "ShardClient",
    "ShardDeployment",
    "ThreadReplica",
    "ProcessReplica",
]
