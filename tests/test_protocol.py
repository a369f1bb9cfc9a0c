"""The wire vocabulary as data: the ``OPS`` and ``ERRORS`` tables of
:mod:`repro.service.protocol`.

Table tests — every row is served or refused *explicitly* on every node
type, every error class crosses the wire and comes back — plus the
recorded transcript that pins every frame byte, and the README listing
generated from the tables.
"""

from __future__ import annotations

import asyncio
import hashlib
import importlib
import json
import math
import pathlib
import random
import re

import pytest
from hypothesis import given, settings, strategies as st

from repro.cluster import ClusterSpec, ClusterThread, Router, \
    ShardAddress, ShardService
from repro.core.errors import BadRequest, ProtocolError, RemoteError, \
    ServiceError
from repro.dynamic import SnapshotStore, churn_ops
from repro.dynamic.engine import dynamic_key
from repro.service import (
    GraphService,
    PoolConfig,
    ServiceClient,
    ServiceThread,
    error_to_payload,
    payload_to_error,
    workloads_payload,
)
from repro.service.protocol import (
    ERRORS,
    OPS,
    PROTOCOL_VERSION,
    WRITE_OPS,
    Body,
    Hit,
    Request,
    _frame,
    check_params,
    decode_body,
    decode_frame,
    encode_error,
    encode_response,
    parse_request,
    peel_response,
)
from tests import wire_transcript

ROOT = pathlib.Path(__file__).resolve().parent.parent
TYPO = {"__typo__": 1}


def _inline():
    return PoolConfig(size=1, isolation="inline")


def _ask(node, op, params):
    async def go():
        try:
            return await node._dispatch(Request(op=op, id="t", params=params))
        finally:
            await node.stop()
    return asyncio.run(go())


# -- the op table ------------------------------------------------------------

def test_wire_order_and_derived_views():
    # the order is wire-visible (the unknown-operation message lists it)
    assert tuple(OPS) == (
        "ping", "run", "characterize", "datasets", "workloads", "stats",
        "health", "shard_info", "batch",
        "mutate", "add_vertex", "del_vertex", "add_edge", "del_edge",
        "set_prop", "dyn_query", "query", "explain")
    assert WRITE_OPS == {"mutate", "add_vertex", "del_vertex", "add_edge",
                         "del_edge", "set_prop"}
    for op in OPS.values():
        # a keyed op says where its key is, and only a keyed op does
        assert (op.key_in is not None) == (
            op.route in ("keyed-read", "write", "query")), op.name
        assert not (op.hedgeable and op.route != "keyed-read"), op.name
        assert not (op.stale and op.route == "write"), op.name


@pytest.mark.parametrize("make", [
    lambda: GraphService(pool_config=_inline()),
    lambda: ShardService("shard-0", None, pool_config=_inline()),
], ids=["service", "shard"])
@pytest.mark.parametrize("op", OPS)
def test_every_op_is_served_or_refused_by_a_node(make, op):
    # no op falls through to another op's path: a typo'd request either
    # reaches the op's own allow-list or is refused by name
    with pytest.raises(BadRequest) as exc:
        _ask(make(), op, TYPO)
    message = str(exc.value)
    assert message.startswith("unknown parameter(s) __typo__") \
        or message == (f"operation {op!r} is served by the cluster layer "
                       "(a shard or router), not a standalone service")


def test_a_shard_serves_what_a_service_refuses():
    shard = ShardService("shard-0", None, pool_config=_inline())
    assert _ask(shard, "shard_info", {})["shard"] == "shard-0"
    service = GraphService(pool_config=_inline())
    assert set(OPS) - set(service._handlers) \
        == {"shard_info", "batch"}
    assert set(OPS) - set(shard._handlers) == {"batch"}
    asyncio.run(service.stop())


@pytest.mark.parametrize("op", OPS)
def test_every_op_is_routed_or_refused_by_the_router(op):
    router = Router([ShardAddress("shard-0", "127.0.0.1", 1)])
    if OPS[op].route is not None:
        assert op in router._handlers
        return
    with pytest.raises(BadRequest, match="router does not serve op"):
        _ask(router, op, {})


def test_param_check_names_the_allowed_set():
    with pytest.raises(BadRequest, match="typo_knob; choose from dataset, "
                                         "gpu, machine, scale, seed, "
                                         "workload"):
        check_params(OPS["run"], {"workload": "BFS", "typo_knob": 1})
    with pytest.raises(BadRequest, match="'ping' takes none"):
        check_params(OPS["ping"], {"x": 1})
    check_params(OPS["add_edge"], {"dataset": "ldbc", "src": 1, "dst": 2})


# -- numbers from the wire are finite ----------------------------------------
# ``json.loads`` reads NaN, Infinity and -Infinity.  NaN fails every
# comparison and an infinity passes every lower bound, so a range check
# alone lets both through.

NON_FINITE = ("NaN", "Infinity", "-Infinity")


@pytest.mark.parametrize("number", NON_FINITE)
def test_a_non_finite_deadline_is_a_protocol_error(number):
    # a NaN deadline is never expired(), so no layer would ever shed it
    line = ('{"v":1,"id":"x","op":"ping","deadline":%s}\n' % number).encode()
    with pytest.raises(ProtocolError, match="deadline must be finite"):
        parse_request(decode_frame(line))


@pytest.mark.parametrize("op, params", [
    ("run", {"workload": "BFS", "scale": math.inf}),
    ("run", {"workload": "BFS", "seed": math.inf}),
    ("dyn_query", {"workload": "BFS", "dataset": "ldbc", "scale": math.inf}),
], ids=["run-scale", "run-seed", "dyn_query-scale"])
def test_a_non_finite_param_is_a_bad_request(op, params):
    node = ShardService("shard-0", None, pool_config=_inline())
    with pytest.raises(BadRequest):
        _ask(node, op, params)


def test_a_batch_entry_with_non_object_params_is_an_in_band_bad_request():
    router = Router([ShardAddress("shard-0", "127.0.0.1", 1)])
    out = _ask(router, "batch", {"entries": [
        {"op": "run", "params": [1]}, {"params": "BFS"}]})
    assert out["failed"] == 2
    for entry in out["results"]:
        assert entry["error"]["kind"] == "bad-request", entry
        assert entry["error"]["message"] == \
            "batch entry params must be an object"


# -- the error table ---------------------------------------------------------

def _service_error_classes():
    seen, todo = [], [ServiceError]
    while todo:
        cls = todo.pop()
        seen.append(cls)
        todo.extend(cls.__subclasses__())
    return seen


def test_the_script_holds_every_service_error_class():
    scripted = {type(e) for e in wire_transcript.ERROR_SCRIPT}
    assert set(_service_error_classes()) <= scripted
    assert {cls.kind for cls in ERRORS.values()} == set(ERRORS)


@pytest.mark.parametrize("exc", wire_transcript.ERROR_SCRIPT,
                         ids=lambda e: type(e).__name__)
def test_every_error_round_trips(exc):
    sent = dict(error_to_payload(exc), shard="shard-3")
    err = payload_to_error(sent)
    # a table class comes back as itself; anything else as RemoteError
    # carrying the kind — never a placeholder-built instance
    assert type(err) is ERRORS.get(sent["kind"], RemoteError)
    assert err.kind == sent["kind"]
    assert str(sent["message"]) in str(err)
    assert err.shard == "shard-3"
    for field in ("retry_after_s", "tenant"):
        if field in sent:
            assert getattr(err, field) == getattr(exc, field)
    # ... and forwards (the router's path) without losing a field
    again = error_to_payload(err)
    assert {**again, "type": sent["type"]} == sent
    assert set(vars(err)) <= {"message", "kind", "remote_type",
                              *type(err).wire_fields}


def test_quota_fields_default_when_the_payload_lacks_them():
    err = payload_to_error({"kind": "quota-exceeded", "message": "m"})
    assert (err.tenant, err.retry_after_s, err.shard) == (None, 0.0, None)
    assert error_to_payload(err) == {
        "kind": "quota-exceeded", "type": "QuotaExceeded", "message": "m"}


# -- the ok frame is a splice ------------------------------------------------

def _ok_frame(req_id, result) -> bytes:
    """The ok frame as one ``json.dumps`` of the whole object — what
    ``encode_response`` was before it became a concatenation."""
    return _frame({"v": PROTOCOL_VERSION, "id": req_id, "ok": True,
                   "result": result})


_scalars = st.one_of(
    st.none(), st.booleans(), st.integers(), st.text(max_size=8),
    st.floats(allow_nan=True, allow_infinity=True))
_values = st.recursive(
    _scalars,
    lambda inner: st.one_of(
        st.lists(inner, max_size=4),
        st.dictionaries(st.text(max_size=6), inner, max_size=4),
        # json.dumps sorts int keys as ints, then writes them as strings
        st.dictionaries(st.integers(-50, 50), inner, max_size=4)),
    max_leaves=12)
_ids = st.one_of(st.none(), st.text(max_size=12),
                 st.sampled_from(['"', 'a"b\\', "é-1", "shard-0-17", ""]))


@settings(max_examples=300, deadline=None, derandomize=True)
@given(_ids, _values)
def test_spliced_frame_is_the_dumped_frame_and_peels_back(req_id, value):
    frame = encode_response(req_id, value)
    assert frame == _ok_frame(req_id, value)
    body = peel_response(frame, req_id)
    assert type(body) is Body
    # peel . splice is the identity on the body's bytes, a peeled body
    # splices straight back and parses to what the whole frame's result
    # parses to (NaN != NaN, hence repr; int keys come back as strings
    # in the *encoder's* order, hence no re-dump), and a served-again
    # object encodes as itself
    assert encode_response(req_id, body) == frame
    assert repr(decode_body(body)) == repr(decode_frame(frame)["result"])
    if isinstance(value, dict) \
            and all(isinstance(k, str) for k in value):
        hit = Hit(value)
        assert encode_response(req_id, hit) == frame
        assert encode_response(req_id, hit) == frame
        assert hit.wire() == body


@pytest.mark.parametrize("line", [
    encode_error("s-1", BadRequest("no")),                  # error frame
    encode_response("s-2", {"a": 1}),                       # another id
    encode_response("s-1", {"a": 1}).replace(b'"v":1', b'"v":2'),
    encode_response("s-1", {"a": 1, "b": 2}).replace(b",", b", ", 1),
    b'{"ok":true,"id":"s-1","result":{"a":1},"v":1}\n',     # reordered
    b'{"id":"s-1","ok":true,"result":{"a":"\xc3\xa9"},"v":1}\n',
    encode_response("s-1", {"a": "xyz"}).replace(b"y", b"\x86"),
    encode_response("s-1", {"a": 1})[:-1],                  # no newline
], ids=["error", "wrong-id", "other-v", "space", "reordered", "utf8",
        "flipped-byte", "unterminated"])
def test_anything_but_the_exact_envelope_is_decode_frames(line):
    assert peel_response(line, "s-1") is None


def test_a_flipped_byte_in_a_body_is_still_a_protocol_error():
    # the encoder writes ASCII only, so a byte flipped in flight (the
    # chaos proxy XORs with 0xFF) cannot pass the peel; decode_frame
    # then judges the line as it always has
    frame = bytearray(encode_response("s-1", {"outputs": {"depth": 3}}))
    frame[frame.index(b"depth") + 2] ^= 0xFF
    assert peel_response(bytes(frame), "s-1") is None
    with pytest.raises(ProtocolError, match="undecodable frame"):
        decode_frame(bytes(frame))


def test_an_oversized_splice_is_refused_like_an_oversized_dump():
    from repro.service.protocol import MAX_FRAME_BYTES
    with pytest.raises(ProtocolError, match="exceeds"):
        encode_response("r", Body(b'"' + b"x" * MAX_FRAME_BYTES + b'"'))


# -- an answer is encoded once -----------------------------------------------

class _Counting:
    """Wrap a ``json`` codec function; count the calls ``match`` picks."""

    def __init__(self, fn, match):
        self.fn, self.match, self.calls = fn, match, 0

    def __call__(self, obj, *args, **kwargs):
        if self.match(obj):
            self.calls += 1
        return self.fn(obj, *args, **kwargs)


def _is_dyn_answer(obj) -> bool:
    # the result itself, or (the parent's way) the frame around it
    if isinstance(obj, dict) and isinstance(obj.get("result"), dict):
        obj = obj["result"]
    return isinstance(obj, dict) and "outputs" in obj and "kernel" in obj


def test_cached_dyn_query_hits_at_one_version_encode_their_body_once(
        monkeypatch):
    ask = dict(workload="BFS", dataset="ldbc", scale=0.03, root=0)
    shard = ShardService("shard-0", None, pool_config=_inline())
    with ServiceThread(shard) as st_, \
            ServiceClient(st_.host, st_.port) as client:
        assert client.request("dyn_query", **ask)["served"] == "recompute"
        dumps = _Counting(json.dumps, _is_dyn_answer)
        monkeypatch.setattr(json, "dumps", dumps)
        hits = [client.request("dyn_query", **ask) for _ in range(20)]
        assert dumps.calls == 1
        assert all(h == hits[0] for h in hits)
        assert hits[0]["served"] == "cache" \
            and hits[0]["shard"] == "shard-0"
        # a commit moves the store's token: the next answer is computed
        # and the one after it is a new entry's first (and only) encode
        client.mutate("ldbc", [{"op": "add_edge", "src": 0, "dst": 77}],
                      scale=0.03)
        after = [client.request("dyn_query", **ask) for _ in range(5)]
        assert [a["served"] for a in after] \
            == ["incremental"] + ["cache"] * 4
        assert dumps.calls == 3
        assert after[1]["version"] == hits[0]["version"] + 1


def test_a_relayed_keyed_read_is_never_parsed_by_the_router(monkeypatch):
    def shard_line(text) -> bool:
        # a shard's response to the router: the id the link gave its
        # request (``shard-N-seq``), answered (``ok`` comes next)
        head = text[:40]
        if not isinstance(head, str):
            head = head.decode("latin-1")
        return head.startswith('{"id":"shard-') and '","ok":' in head

    ask = dict(workload="CComp", dataset="ldbc", scale=0.03)
    with ClusterThread(ClusterSpec.of(2)) as ct, \
            ServiceClient(port=ct.router_port) as client:
        first = client.request("dyn_query", **ask)
        loads = _Counting(json.loads, shard_line)
        monkeypatch.setattr(json, "loads", loads)
        again = [client.request("dyn_query", **ask) for _ in range(10)]
        wrote = client.mutate("ldbc", [{"op": "add_vertex", "vid": 9001}],
                              scale=0.03)
        listed = client.workloads()
        assert loads.calls == 0
        # ... where it composes it still decodes: one line per shard
        client.request("shard_info")
        assert loads.calls == 2
    assert again[0]["served"] == "cache" and again[0]["shard"] \
        == first["shard"] == wrote["shard"]
    assert {k: v for k, v in again[0].items() if k != "served"} \
        == {k: v for k, v in first.items() if k != "served"}
    assert listed == workloads_payload()


_CHURN_SCALE = 0.03
_CHURN_STEPS = st.lists(st.one_of(
    st.tuples(st.just("mutate"), st.integers(0, 2 ** 16)),
    st.tuples(st.just("dyn_query"), st.sampled_from(["BFS", "CComp"]),
              st.sampled_from([0, 3])),
    st.tuples(st.just("query"), st.sampled_from(
        ["| cc | count", "| bfs root=0 depth<=3 | topk level 4",
         "| topk degree 3"]), st.booleans())), min_size=4, max_size=14)


@settings(max_examples=12, deadline=None, derandomize=True)
@given(_CHURN_STEPS)
def test_under_churn_every_answer_frames_as_a_fresh_encode(steps):
    """Writes, maintained reads and DSL queries of the written graph,
    interleaved on one shard: whatever object an engine hands back — a
    computed answer or a cache's hit form, with or without a memo — its
    frame is the fresh dump of its contents, so a memo never outlives a
    change to the dict it was made from; and a hit says what the
    computed answer said."""
    ident = {"dataset": "ldbc", "scale": _CHURN_SCALE}
    shard = ShardService("shard-0", None, pool_config=_inline())

    async def go():
        computed: dict = {}
        for step in steps:
            if step[0] == "mutate":
                rng = random.Random(step[1])
                params = dict(ident, ops=churn_ops(rng, 100, 3))
            elif step[0] == "dyn_query":
                params = dict(ident, workload=step[1], root=step[2])
            else:
                params = {"q": f"from ldbc scale={_CHURN_SCALE} "
                               f"{'dynamic=true ' if step[2] else ''}"
                               f"{step[1]}"}
            result = await shard._dispatch(
                Request(op=step[0], id="t", params=params))
            assert result["shard"] == "shard-0"
            assert encode_response("t", result) \
                == _ok_frame("t", dict(result))
            if step[0] == "mutate":
                continue
            # a hit follows its own computed answer with no commit in
            # between (a commit moves the token), and differs from it
            # only in how it says it was served
            said = {k: v for k, v in result.items() if k not in (
                "served", "plan_cached", "result_cached", "kernel")}
            key = json.dumps(params, sort_keys=True)
            if result["served"] in ("cache", "result-cache"):
                assert type(result) is Hit
                assert said == computed[key]
            else:
                computed[key] = said
        await shard.stop()

    asyncio.run(go())


def test_a_shard_parses_a_query_text_once(monkeypatch):
    # (the package re-exports the function under the module's name)
    parse_module = importlib.import_module("repro.query.parse")
    shard = ShardService("shard-0", None, pool_config=_inline())
    q = "from ldbc scale=0.03 | topk degree 3"
    with ServiceThread(shard) as st_, \
            ServiceClient(st_.host, st_.port) as client:
        client.query_lang(q)                # plans (and parses) cold
        lexed = []
        real = parse_module._lex
        monkeypatch.setattr(parse_module, "_lex",
                            lambda text: lexed.append(text) or real(text))
        assert client.query_lang(q)["served"] == "result-cache"
        assert client.explain(q)["plan_cached"] is True
    assert lexed == [q, q]


# -- every frame byte --------------------------------------------------------

#: sha-256 of the recording before a shard stamped its own answers (the
#: one made at the parent of the op/error tables, unmoved since), less
#: the frames the static-query scatter's removal and live migration's
#: removal moved.
PREVIOUS_RECORDING = \
    "3f7653bd86215d74cdd1189d24280ab350fc39865daeac82e999e1a4b860f679"

#: The frames that moved when a static query became one shard's answer,
#: by request id, each with the sha-256 (first 16 hex digits) of its
#: line before: ``part`` left the ``query`` op's parameters (service-18
#: and shard-13 are refused, service-39 and router-17 name one parameter
#: fewer — router-17 now from the shard); ``explain`` lost its merge
#: recipe (service-20, router-16); a shard answers a static source it
#: does not own (shard-11, shard-12); and the router relays its owner's
#: answer, not a merge of parts (router-13, router-15).
SCATTER_MOVED = {
    "service-18": "b48cc519a5b991a1", "service-20": "96db24d035992891",
    "service-39": "ddbff6e0cb27c43d", "shard-11": "d5959502e2732f1c",
    "shard-12": "cd0c6e270b426614", "shard-13": "35e32f4a34b84101",
    "router-13": "2b3b931e4561fafb", "router-15": "02552973894623af",
    "router-16": "5697106812b8288c", "router-17": "dade3ad82883d3fa"}

#: The frames that moved when live migration left the op table, likewise:
#: the eleven probes of an op it removed (``admin``, ``dyn_export``,
#: ``dyn_import``) are unknown operations now, and the ``mutate`` that
#: cut the path ``dyn_import`` installed (service-24) cuts nothing in the
#: generated graph.
MIGRATION_MOVED = {
    "service-21": "13a6e462961b44ec", "service-22": "c88d13430af7c260",
    "service-23": "adc86c29f4fb126e", "service-24": "d622512baf9e4671",
    "service-42": "a227d9a0a90d6e2a", "service-43": "d42818eeb5aad206",
    "shard-4": "bee26c22d13d4f74", "shard-5": "60e3742be9ee7043",
    "shard-6": "cfe09922d5ab830b", "router-25": "d6f04c9ec484a65f",
    "router-26": "b61e88ba1f903966", "router-27": "f1abcf2dfee0e586"}

#: The ``stats`` keys that restated a metric family and went when their
#: counts moved onto the registry, per scene, and the router's
#: ``rebalance`` section, which went with live migration.
DROPPED_STATS_KEYS = {
    "service": ["cache", "connections", "ops", "pool", "scheduler"],
    "router": ["connections", "ops", "rebalance"]}


def test_the_recording_moved_only_where_a_shard_names_itself():
    # the router used to stamp ``shard`` on a keyed answer; the shard
    # does now, so asked *directly* its keyed answers gain that one
    # member; the service's and router's ``stats`` key lists lost the
    # keys that restated a family (and the router's ``rebalance``); and
    # the ten frames of SCATTER_MOVED and the twelve of MIGRATION_MOVED
    # each changed.  Nothing else moved: with the first two undone and
    # the 22 set aside, the recording is byte for byte the previous one
    # (every other service-, router- and error-scene frame included)
    lines, stamped, restored, moved = [], 0, 0, {}
    recording = (ROOT / "tests/data/wire_transcript.jsonl").read_text()
    before = {**SCATTER_MOVED, **MIGRATION_MOVED}
    for line in recording.splitlines(keepends=True):
        row = json.loads(line)
        sent = json.loads(row.get("sent", "{}"))
        if sent.get("id") in before:
            moved[sent["id"]] = hashlib.sha256(line.encode()).hexdigest()
            continue
        if sent.get("op") == "stats":
            got = json.loads(row["got"])
            got["result"] = sorted(got["result"]
                                   + DROPPED_STATS_KEYS[row["scene"]])
            restored += 1
            row["got"] = json.dumps(got, sort_keys=True,
                                    separators=(",", ":"))
        if row["scene"] == "shard":
            got = json.loads(row["got"])
            keyed = OPS[sent["op"]].key_in is not None
            if keyed and got["ok"]:
                assert got["result"].pop("shard") == "shard-0"
                stamped += 1
                row["got"] = json.dumps(got, sort_keys=True,
                                        separators=(",", ":"))
        lines.append(json.dumps(row, sort_keys=True) + "\n")
    assert moved.keys() == before.keys()
    assert all(not moved[i].startswith(before[i]) for i in moved)
    assert (stamped, restored) == (1, 2)
    assert hashlib.sha256("".join(lines).encode()).hexdigest() \
        == PREVIOUS_RECORDING


def test_transcript_is_byte_identical_to_the_recording():
    recorded = (ROOT / "tests/data/wire_transcript.jsonl").read_text()
    fresh = wire_transcript.record()
    for want, got in zip(recorded.splitlines(), fresh):
        assert got == want
    assert len(fresh) == len(recorded.splitlines())
    asked = {op for script in (wire_transcript.SERVICE_SCRIPT,
                               wire_transcript.SHARD_SCRIPT,
                               wire_transcript.ROUTER_SCRIPT)
             for op, _ in script}
    assert asked == set(OPS) | set(wire_transcript.REMOVED_OPS)
    assert not set(OPS) & set(wire_transcript.REMOVED_OPS)


def test_path_cut_twice_has_three_components_through_a_live_service():
    ident = {"dataset": "watson", "scale": 1.0, "seed": 7}
    service = GraphService(pool_config=_inline())
    # the seven-vertex path stands in for the generated graph of ``ident``
    service.dynamic._stores[dynamic_key("watson", 1.0, 7)] = \
        SnapshotStore.from_edges(7, [(i, i + 1) for i in range(6)],
                                 directed=False)
    with ServiceThread(service) as st:
        with ServiceClient(st.host, st.port) as client:
            before = client.request("dyn_query", workload="CComp", **ident)
            assert before["outputs"]["n_components"] == 1
            client.request("mutate", ops=[
                {"op": "del_edge", "src": 2, "dst": 3},
                {"op": "del_edge", "src": 3, "dst": 4}], **ident)
            after = client.request("dyn_query", workload="CComp", **ident)
    assert after["served"] == "incremental"
    assert after["outputs"]["n_components"] == 3
    assert after["outputs"]["comp"] == {
        "0": 0, "1": 0, "2": 0, "3": 3, "4": 4, "5": 4, "6": 4}


# -- the README listing ------------------------------------------------------

def render_vocabulary() -> str:
    """The README's wire-vocabulary block, from the tables."""
    def cell(value):
        return "—" if value in (None, False, frozenset()) else \
            "yes" if value is True else \
            " ".join(sorted(value)) if isinstance(value, frozenset) \
            else str(value)

    lines = ["| op | family | params | router | key in | default scale "
             "| executor | hedged | stale-servable |",
             "|---|---|---|---|---|---|---|---|---|"]
    for op in OPS.values():
        lines.append("| " + " | ".join(
            [f"`{op.name}`", op.family, cell(op.params)]
            + [cell(v) for v in (op.route, op.key_in, op.scale,
                                 op.blocking, op.hedgeable, op.stale)])
            + " |")
    lines += ["", "Error kinds a client catches as their own class "
              "(anything else is a `RemoteError` carrying the kind):", ""]
    lines += [f"- `{kind}` → `{cls.__name__}`"
              + (f" (+ `{'`, `'.join(cls.wire_fields[1:])}`)"
                 if len(cls.wire_fields) > 1 else "")
              for kind, cls in ERRORS.items()]
    return "\n".join(lines)


def test_readme_lists_the_tables():
    text = (ROOT / "README.md").read_text()
    block = re.search(r"<!-- wire-vocabulary:begin -->\n(.*?)\n"
                      r"<!-- wire-vocabulary:end -->", text, re.S)
    assert block, "README lost its wire-vocabulary block"
    assert block.group(1) == render_vocabulary(), (
        "README's wire-vocabulary block is stale; regenerate it with "
        "`PYTHONPATH=src python -m tests.test_protocol`")


if __name__ == "__main__":
    print(render_vocabulary())
