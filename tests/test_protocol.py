"""The wire vocabulary as data: the ``OPS`` and ``ERRORS`` tables of
:mod:`repro.service.protocol`.

Table tests — every row is served or refused *explicitly* on every node
type, every error class crosses the wire and comes back — plus the
recorded transcript that pins every frame byte, and the README listing
generated from the tables.
"""

from __future__ import annotations

import asyncio
import pathlib
import re

import pytest

from repro.cluster import Router, ShardAddress, ShardService
from repro.core.errors import BadRequest, RemoteError, ServiceError
from repro.service import (
    GraphService,
    PoolConfig,
    ServiceClient,
    ServiceThread,
    error_to_payload,
    payload_to_error,
)
from repro.service.protocol import (
    ERRORS,
    OPS,
    WRITE_OPS,
    Request,
    check_params,
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
        "set_prop", "dyn_query", "query", "explain",
        "admin", "dyn_export", "dyn_import")
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
        == {"shard_info", "batch", "admin"}
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


# -- every frame byte --------------------------------------------------------

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
    assert asked == set(OPS)


def test_path_cut_twice_has_three_components_through_a_live_service():
    path = {"dataset": "watson",
            "stores": [{"scale": 1.0, "seed": 7,
                        "state": wire_transcript.PATH7}]}
    ident = {"dataset": "watson", "scale": 1.0, "seed": 7}
    with ServiceThread(GraphService(pool_config=_inline())) as st:
        with ServiceClient(st.host, st.port) as client:
            client.request("dyn_import", **path)
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
