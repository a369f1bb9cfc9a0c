"""The recorded wire transcript: one request per op and one error per
kind, as the exact frames that cross the socket.

``record()`` replays a fixed script — raw request lines written to a
standalone service, to one shard of a two-shard cluster and to its
router, plus every error class through encode -> rehydrate -> re-encode
(the router's forwarding path) — and returns the frames as text lines.
``tests/data/wire_transcript.jsonl`` holds the lines the tree produced
just before the op/error tables were introduced, re-recorded six
times since: a shard now stamps ``"shard"`` on its own keyed answers
(the router, which used to, relays them as bytes), so the two keyed ok
answers of the shard scene gained that member; the service's and the
router's ``stats`` answers dropped the keys that restated a metric
family, so those two key lists shrank; a static query became one
shard's answer, which moved the ten frames ``test_protocol.py`` lists
in ``SCATTER_MOVED`` (``part`` is no parameter, ``explain`` has no
merge recipe, a shard answers a static source it does not own, the
router relays one shard's answer); and the live-migration ops
(:data:`REMOVED_OPS`) left the table, which moved the twelve frames it
lists in ``MIGRATION_MOVED`` (each probe of a removed op is an unknown
operation now, and the ``mutate`` that cut the imported path answers
from the generated graph) and took ``rebalance`` out of the router's
``stats`` keys; and ``set_prop`` joined :data:`REMOVED_OPS` and the
planner lost its cost estimates, which moved the frames it lists in
``VOCAB_MOVED`` (the write answers lost ``delta.props``, the ``explain``
answers their estimates, and the reads after a probe that no longer
commits a version number); and a request refused after its frame
decoded began answering to its own id, which moved the thirteen
unknown-operation probes it lists in ``REFUSAL_ID_MOVED`` (each error
frame's ``"id": null`` became the id the probe was sent with).  No
other frame moved — ``test_protocol.py``
holds the previous recording's digest and checks exactly that.  It also
asserts a fresh recording is byte-identical, so a refactor of the wire
vocabulary cannot move a byte of any request, response or error frame.

A frame is recorded as its *parse*, dumped again with sorted keys: the
member order inside a relayed body is the shard encoder's (also sorted
keys — but integer keys sort as integers there and as strings once
parsed), and the recording does not depend on it.

Re-record (only when a frame is *meant* to change) with::

    PYTHONPATH=src python -m tests.wire_transcript > tests/data/wire_transcript.jsonl

The script uses nothing but sockets and constructors that predate the
tables, so it runs unchanged against an older checkout.
"""

from __future__ import annotations

import json
import socket

from repro.cluster import ClusterSpec, ClusterThread, ShardService
from repro.core import errors as E
from repro.service import (
    GraphService,
    PoolConfig,
    ServiceThread,
    encode_error,
    encode_request,
    error_to_payload,
    payload_to_error,
)

SCALE = 0.03
Q = f"from ldbc scale={SCALE} | topk degree 3"
DYN_Q = f"from ldbc scale={SCALE} dynamic=true | count"
PATH7 = {"version": 1, "directed": False, "max_versions": 64,
         "vertices": list(range(7)),
         "arcs": sorted([i, i + 1] for i in range(6))
         + sorted([i + 1, i] for i in range(6)),
         "props": []}

#: Ops the protocol no longer has.  Each script still asks them where it
#: did when they were ops, so no request id moved, and each now draws the
#: unknown-operation error.
REMOVED_OPS = ("admin", "dyn_export", "dyn_import", "set_prop")

#: One request per op, in wire order (``OPS`` order), then requests that
#: draw each error a node answers with.  ``batch`` and ``shard_info`` are
#: refused by a standalone service; the shard and router scripts below
#: ask them where they are served.
SERVICE_SCRIPT = [
    ("ping", {}),
    ("run", {"workload": "BFS", "dataset": "ldbc", "scale": SCALE,
             "seed": 0, "machine": "test", "gpu": False}),
    ("characterize", {"workload": "DCentr", "dataset": "roadnet",
                      "scale": SCALE, "machine": "test"}),
    ("datasets", {}),
    ("workloads", {}),
    ("stats", {}),
    ("health", {}),
    ("shard_info", {}),
    ("batch", {"entries": [{"op": "run", "params": {"workload": "BFS"}}]}),
    ("mutate", {"dataset": "ldbc", "scale": SCALE, "seed": 0,
                "strict": False,
                "ops": [{"op": "add_edge", "src": 1, "dst": 2},
                        {"op": "del_edge", "src": 0, "dst": 1}]}),
    ("add_vertex", {"dataset": "ldbc", "scale": SCALE, "vid": 9001}),
    ("del_vertex", {"dataset": "ldbc", "scale": SCALE, "vid": 5}),
    ("add_edge", {"dataset": "ldbc", "scale": SCALE, "src": 9001,
                  "dst": 7}),
    ("del_edge", {"dataset": "ldbc", "scale": SCALE, "src": 9001,
                  "dst": 7}),
    ("set_prop", {"dataset": "ldbc", "scale": SCALE, "vid": 7,
                  "name": "state", "value": "hot"}),
    ("dyn_query", {"workload": "CComp", "dataset": "ldbc",
                   "scale": SCALE, "seed": 0, "root": 0}),
    ("dyn_query", {"workload": "BFS", "dataset": "ldbc", "scale": SCALE,
                   "root": 3}),
    ("query", {"q": Q}),
    ("query", {"q": Q, "part": [0, 2]}),
    ("query", {"q": DYN_Q}),
    ("explain", {"q": Q}),
    ("admin", {"action": "ownership"}),
    ("dyn_export", {"dataset": "ldbc"}),
    ("dyn_import", {"dataset": "watson",
                    "stores": [{"scale": 1.0, "seed": 7,
                                "state": PATH7}]}),
    ("mutate", {"dataset": "watson", "scale": 1.0, "seed": 7,
                "ops": [{"op": "del_edge", "src": 2, "dst": 3},
                        {"op": "del_edge", "src": 3, "dst": 4}]}),
    # -- typed errors --------------------------------------------------------
    ("run", {"workload": "Nope"}),
    ("run", {"workload": "BFS", "dataset": "nope"}),
    ("run", {"workload": "BFS", "machine": "cray"}),
    ("run", {"workload": "BFS", "scale": "huge"}),
    ("run", {"workload": "BFS", "scale": 0}),
    ("run", {"workload": "BFS", "typo_knob": 1}),
    ("mutate", {"dataset": "ldbc", "ops": [], "scale": SCALE}),
    ("mutate", {"dataset": "ldbc", "bogus": 1, "scale": SCALE,
                "ops": [{"op": "add_vertex", "vid": 1}]}),
    ("mutate", {"dataset": "ldbc", "scale": SCALE, "strict": True,
                "ops": [{"op": "add_vertex", "vid": 1}]}),
    ("dyn_query", {"workload": "kCore", "dataset": "ldbc"}),
    ("dyn_query", {"workload": "BFS", "dataset": "ldbc", "rooot": 1}),
    ("dyn_query", {"workload": "BFS", "dataset": "nope"}),
    ("query", {"q": "from ldbc | | count"}),
    ("query", {"q": "from nope | count"}),
    ("query", {"q": Q, "bogus": 1}),
    ("query", {"q": f"from ldbc scale={SCALE} version=99 | count"}),
    ("explain", {"q": Q, "part": [0, 2]}),
    ("dyn_export", {"dataset": "nope"}),
    ("dyn_import", {"dataset": "ldbc", "stores": "x"}),
]

#: Asked of shard-0 directly (it owns part of the keyspace).
SHARD_SCRIPT = [
    ("ping", {}),
    ("health", {}),
    ("shard_info", {}),
    ("datasets", {}),
    ("admin", {"action": "ownership"}),
    ("admin", {"action": "adopt", "dataset": "nope"}),
    ("admin", {"action": "explode", "dataset": "ldbc"}),
    ("batch", {"entries": []}),
    # a dataset the shard does not own: WrongShard for an op that names
    # it as a param ...
    ("run", {"workload": "BFS", "dataset": "{foreign}", "scale": SCALE,
             "machine": "test"}),
    ("dyn_query", {"workload": "BFS", "dataset": "{foreign}",
                   "scale": SCALE}),
    ("add_vertex", {"dataset": "{foreign}", "scale": SCALE, "vid": 9001}),
    # ... but a static source is any shard's to answer (only mutable
    # state is owned), and ``part`` is no parameter
    ("query", {"q": "from {foreign} scale=0.03 | count"}),
    ("explain", {"q": "from {foreign} scale=0.03 | count"}),
    ("query", {"q": "from {foreign} scale=0.03 | count", "part": [1, 2]}),
    ("run", {"workload": "BFS", "dataset": "{owned}", "scale": SCALE,
             "machine": "test"}),
]

#: Asked of the router.
ROUTER_SCRIPT = [
    ("ping", {}),
    ("health", {}),
    ("datasets", {}),
    ("workloads", {}),
    ("stats", {}),
    ("shard_info", {}),
    ("run", {"workload": "BFS", "dataset": "ldbc", "scale": SCALE,
             "machine": "test"}),
    ("characterize", {"workload": "BFS", "dataset": "roadnet",
                      "scale": SCALE, "machine": "test"}),
    ("batch", {"entries": [
        {"op": "run", "params": {"workload": "BFS", "dataset": "ldbc",
                                 "scale": SCALE, "machine": "test"}},
        {"params": {"workload": "CComp", "dataset": "roadnet",
                    "scale": SCALE, "machine": "test"}},
        {"op": "mutate", "params": {}},
        {"op": "run", "params": {"workload": "Nope"}},
        "junk"]}),
    ("batch", {"entries": []}),
    ("mutate", {"dataset": "ldbc", "scale": SCALE,
                "ops": [{"op": "add_edge", "src": 1, "dst": 2}]}),
    ("set_prop", {"dataset": "roadnet", "scale": SCALE, "vid": 7,
                  "name": "state", "value": 1}),
    ("dyn_query", {"workload": "BFS", "dataset": "ldbc", "scale": SCALE}),
    ("query", {"q": Q}),
    ("query", {"q": DYN_Q}),
    ("explain", {"q": Q}),
    ("explain", {"q": DYN_Q}),
    # -- typed errors: router-side and shard-attributed ----------------------
    ("query", {"q": Q, "part": [0, 2]}),
    ("query", {"q": "from ldbc | | count"}),
    ("query", {"q": "from ldbc | nosuchstage"}),
    ("run", {"workload": "BFS", "dataset": ""}),
    ("run", {"workload": "Nope", "dataset": "ldbc"}),
    ("run", {"workload": "BFS", "dataset": "nope"}),
    ("dyn_query", {"workload": "kCore", "dataset": "ldbc"}),
    ("mutate", {"dataset": "ldbc", "scale": SCALE, "strict": True,
                "ops": [{"op": "add_vertex", "vid": 1}]}),
    ("admin", {"action": "ownership"}),
    ("dyn_export", {"dataset": "ldbc"}),
    ("dyn_import", {"dataset": "ldbc", "stores": []}),
]

#: One instance of every service error class (and of what else reaches
#: the wire), built the way the raising site builds it.
ERROR_SCRIPT = [
    E.ServiceError("plain"),
    E.ProtocolError("truncated frame at EOF"),
    E.VersionMismatch(1, 2),
    E.BadRequest("unknown workload 'Nope'"),
    E.AdmissionRejected(3, 2),
    E.QuotaExceeded("acme", "rate", 0.25),
    E.QuotaExceeded("acme", "queue"),
    E.WrongShard("ldbc", "shard-1"),
    E.ShardUnavailable("ldbc", ("shard-0", "shard-1")),
    E.DeadlineExceeded("router", 0.0125, 0.0),
    E.DeadlineExceeded("client", 0.5, 0.25),
    E.CircuitOpen("ldbc", ("shard-0",)),
    E.RetryBudgetExhausted("ldbc", ("shard-0",)),
    E.MutationError("add_vertex", "vertex 1 already exists"),
    E.SnapshotExpired(1, 4, 9),
    E.QueryError("unexpected token", position=12),
    E.PlanError("unknown stage 'nosuchstage'"),
    E.RemoteError("crash", "[c] worker crashed: boom", "CellCrash"),
    E.CellCrash("BFS:ldbc", "boom"),
    E.CellTimeout("BFS:ldbc", 5.0),
    E.RetriesExhausted("BFS:ldbc", 2, E.CellOOM("BFS:ldbc")),
    KeyError("k"),
    RuntimeError("boom"),
]

#: Values that legitimately differ run to run (wall time, connection
#: counts) are masked, the key stays; a ``stats`` answer is all counters
#: and timings, so only its top-level keys are kept.
VOLATILE = ("elapsed_s", "connections", "pending")


def _mask(obj):
    if isinstance(obj, dict):
        return {k: "*" if k in VOLATILE else _mask(v)
                for k, v in obj.items()}
    if isinstance(obj, list):
        return [_mask(v) for v in obj]
    return obj


def _exchange(port: int, script, scene: str, subst=()) -> list[str]:
    lines = []
    with socket.create_connection(("127.0.0.1", port), timeout=60) as sock:
        reader = sock.makefile("rb")
        for i, (op, params) in enumerate(script):
            text = json.dumps(params)
            for old, new in subst:
                text = text.replace(old, new)
            sent = encode_request(op, f"{scene}-{i}", json.loads(text))
            sock.sendall(sent)
            got = json.loads(reader.readline())
            if op == "stats":
                got["result"] = sorted(got["result"])
            lines.append(json.dumps(
                {"scene": scene, "sent": sent.decode(),
                 "got": json.dumps(_mask(got), sort_keys=True,
                                   separators=(",", ":"))},
                sort_keys=True))
    return lines


def _inline():
    return PoolConfig(size=1, isolation="inline")


def record() -> list[str]:
    lines = []
    for i, exc in enumerate(ERROR_SCRIPT):
        first = encode_error(f"e-{i}", exc)
        payload = dict(error_to_payload(exc), shard="shard-9")
        forwarded = encode_error(f"e-{i}", payload_to_error(payload))
        lines.append(json.dumps(
            {"scene": "error", "raised": first.decode(),
             "forwarded": forwarded.decode()}, sort_keys=True))
    with ServiceThread(GraphService(pool_config=_inline())) as st:
        lines += _exchange(st.port, SERVICE_SCRIPT, "service")
    spec = ClusterSpec.of(2)
    factory = lambda name, owned: ShardService(  # noqa: E731
        name, frozenset(owned), pool_config=_inline())
    with ClusterThread(spec, shard_factory=factory) as ct:
        owned = spec.assignment()["shard-0"]
        foreign = spec.assignment()["shard-1"]
        lines += _exchange(ct.shard_addresses["shard-0"].port,
                           SHARD_SCRIPT, "shard",
                           (("{foreign}", foreign[0]),
                            ("{owned}", owned[0])))
        lines += _exchange(ct.router_port, ROUTER_SCRIPT, "router")
    return lines


if __name__ == "__main__":
    print("\n".join(record()))
