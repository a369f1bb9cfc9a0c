"""Wire protocol: versioned JSON-lines request/response framing.

One frame is one JSON object on one ``\\n``-terminated UTF-8 line — the
same self-describing flat-record discipline the checkpoint journal uses,
so a characterization Row travels the socket in exactly the shape it is
journaled in.  Every frame carries the protocol version; every response
carries the request id it answers, and failures cross the wire as typed
payloads whose ``kind`` tags are the :mod:`repro.core.errors` taxonomy.

Request::

    {"v": 1, "id": "c1-7", "op": "run", "params": {"workload": "BFS", ...}}

Response::

    {"v": 1, "id": "c1-7", "ok": true,  "result": {...}}
    {"v": 1, "id": "c1-7", "ok": false,
     "error": {"kind": "crash", "type": "CellCrash", "message": "..."}}

On the wire a frame is compact with sorted keys, so an ok response is
``{"id":...,"ok":true,"result":`` + body + ``,"v":1}`` — a splice around
a body that is encoded once (:func:`encode_response`) and that a
forwarding hop can take off and put back without parsing
(:func:`peel_response`).
"""

from __future__ import annotations

import json
import math
import time
from dataclasses import dataclass, field
from typing import Any

from ..core.errors import (
    AdmissionRejected,
    BadRequest,
    CircuitOpen,
    DeadlineExceeded,
    MutationError,
    PlanError,
    ProtocolError,
    QueryError,
    QuotaExceeded,
    RemoteError,
    RetryBudgetExhausted,
    ServiceError,
    ShardUnavailable,
    SnapshotExpired,
    VersionMismatch,
    WrongShard,
)

PROTOCOL_VERSION = 1

#: Hard cap on one frame — a request or response line larger than this is
#: a protocol violation, not a payload (characterization records are a few
#: KB; dataset listings under 100).
MAX_FRAME_BYTES = 4 * 1024 * 1024

#: The dataset a keyed request names when it carries none.
DEFAULT_DATASET = "ldbc"


@dataclass(frozen=True)
class Op:
    """One row of the wire vocabulary: what a layer needs to know about
    an operation *without* comparing its name.  The service, a shard and
    the router each keep one handler map keyed by op name and read the
    facts they branch on from here; a new op — or a new per-hop fact
    about every op — is one row or one column of :data:`OPS`, never a
    new ``elif`` in three dispatchers.

    ``family``: ``meta`` (registry and liveness reads), ``cell`` (one
    workload x dataset characterization cell), ``dynamic`` (the mutable
    graph), ``query`` (the pipeline DSL), ``cluster`` (answered by the
    cluster layer only).
    ``params``: every parameter a request may carry — an unknown key is
    a bad request, not a silently ignored knob.
    ``route``: how the router serves it — ``local`` (its own state),
    ``keyed-read`` / ``write`` (the owners of the request's dataset
    key), ``query`` (a keyed read of the DSL source's dataset: its
    owners if dynamic, every shard in ring order if static),
    ``scatter`` (every healthy shard), ``any-shard`` (identical
    everywhere); None: it addresses one shard, not a router.
    ``key_in``: the parameter holding a keyed op's dataset key,
    ``dataset`` (default :data:`DEFAULT_DATASET`) or ``q`` (the DSL text
    names its source); a shard serves a keyed op only for keys it owns
    — only mutable state is owned, so any shard serves a static source.
    ``scale``: default scale of its ``(dataset, scale, seed)`` identity.
    ``blocking``: runs whole kernels or may generate a dataset — handed
    to the executor, never run on the event loop.
    ``hedgeable``: an idempotent read whose first attempt may race a
    second replica (not ``dyn_query``: a hedge could land on a replica
    whose mutation stream lags, and first-answer-wins would hide which
    version answered).
    ``stale``: with every owner unreachable, the router may answer with
    its last good response, marked ``degraded``.
    """

    name: str
    family: str
    params: frozenset = frozenset()
    route: "str | None" = None
    key_in: "str | None" = None
    scale: "float | None" = None
    blocking: bool = False
    hedgeable: bool = False
    stale: bool = False


_IDENTITY = frozenset({"dataset", "scale", "seed"})


def _cell(name: str) -> Op:
    return Op(name, "cell", _IDENTITY | {"workload", "machine", "gpu"},
              "keyed-read", "dataset", 0.25, hedgeable=True, stale=True)


def _write(name: str) -> Op:
    # ``mutate`` carries a batch in ``ops``, the single-op conveniences
    # one op's fields flat.  Primary-only: never hedged, failed over or
    # served stale — a write applied on a replica but not the primary
    # would fork the version history
    return Op(name, "dynamic",
              _IDENTITY | {"ops", "strict", "vid", "src", "dst", "name",
                           "value"},
              "write", "dataset", 0.05, blocking=True)


#: The operations a server understands, in wire order.  A node answers
#: an op it does not serve with a typed BadRequest, never a framing
#: error.
OPS: "dict[str, Op]" = {op.name: op for op in (
    Op("ping", "meta", route="local"),
    _cell("run"),
    _cell("characterize"),
    Op("datasets", "meta", route="scatter"),
    Op("workloads", "meta", route="any-shard"),
    Op("stats", "meta", route="scatter"),
    # the cluster liveness/topology probes
    Op("health", "meta", route="local"),
    Op("shard_info", "cluster", route="scatter"),
    # the router's multi-cell scatter
    Op("batch", "cluster", frozenset({"entries"}), "scatter"),
    *map(_write, ("mutate", "add_vertex", "del_vertex", "add_edge",
                  "del_edge", "set_prop")),
    # the versioned read of the dynamic engine
    Op("dyn_query", "dynamic", _IDENTITY | {"workload", "root"},
       "keyed-read", "dataset", 0.05, blocking=True, stale=True),
    # the pipeline DSL: ``query`` carries the text; ``explain`` returns
    # the physical plan with per-stage cost estimates, executing nothing
    Op("query", "query", frozenset({"q"}), "query", "q",
       blocking=True, stale=True),
    Op("explain", "query", frozenset({"q"}), "query", "q",
       blocking=True, stale=True),
)}

# views of the table
WRITE_OPS = frozenset(n for n, op in OPS.items() if op.route == "write")
QUERY_OPS = frozenset(n for n, op in OPS.items() if op.family == "query")
#: One workload x dataset cell each — what a ``batch`` entry may be.
CELL_OPS = tuple(n for n, op in OPS.items() if op.family == "cell")


def check_params(op: Op, params: dict[str, Any]) -> None:
    """The one allow-list check, made once on the node that serves the
    request, before its handler runs."""
    unknown = sorted(params.keys() - op.params)
    if unknown:
        allowed = f"choose from {', '.join(sorted(op.params))}" \
            if op.params else f"{op.name!r} takes none"
        raise BadRequest(
            f"unknown parameter(s) {', '.join(unknown)}; {allowed}")


def routing_key(params: dict[str, Any]) -> str:
    """The dataset key a ``key_in="dataset"`` request routes on."""
    dataset = params.get("dataset", DEFAULT_DATASET)
    if not isinstance(dataset, str) or not dataset:
        raise BadRequest(f"dataset must be a non-empty string, "
                         f"got {dataset!r}")
    return dataset


def registered_dataset(params: dict[str, Any]) -> str:
    """The request's ``dataset``, checked against the registry."""
    from ..datagen.registry import REGISTRY
    dataset = params.get("dataset", DEFAULT_DATASET)
    if not isinstance(dataset, str) or dataset not in REGISTRY:
        raise BadRequest(f"unknown dataset {dataset!r}; choose from "
                         f"{', '.join(sorted(REGISTRY))}")
    return dataset


def finite(number: float, what: str,
           error: type[ServiceError] = BadRequest) -> float:
    """The one rule for a number read off the wire: it is finite.  The
    decoder reads NaN and infinities; NaN fails every comparison and an
    infinity passes every lower bound, so a range check admits both."""
    if not math.isfinite(number):
        raise error(f"{what} must be finite, got {number!r}")
    return number


def identity(params: dict[str, Any],
             default_scale: float) -> tuple[str, float, int]:
    """The ``(dataset, scale, seed)`` a request names — the identity of
    a generated graph, shared by the cell path and the dynamic engine
    (``default_scale`` is the op's own :attr:`Op.scale`)."""
    dataset = registered_dataset(params)
    try:
        scale = float(params.get("scale", default_scale))
        seed = int(params.get("seed", 0))
    except (TypeError, ValueError, OverflowError) as e:
        raise BadRequest(f"bad parameter value: {e}") from None
    if not finite(scale, "scale") > 0:
        raise BadRequest(f"scale must be > 0, got {scale!r}")
    return dataset, scale, seed


@dataclass(frozen=True)
class Request:
    """One parsed, validated request frame.

    ``deadline`` is the request's absolute end-to-end deadline — seconds
    on the Unix epoch clock (``time.time()``), the one clock every layer
    of an in-process or single-host deployment shares.  ``None`` means
    the caller set no budget.  The deadline *propagates*: the router
    copies it onto every downstream shard frame, so a shard can shed
    work whose requester has already given up.

    ``tenant`` is the optional multi-tenancy identity the QoS layer
    keys quotas, fair shares, and cache partitions on.  ``None`` means
    anonymous — such requests travel byte-identically to the pre-tenancy
    protocol and are treated as one shared default tenant.  Like the
    deadline, the tenant propagates: the router copies it onto every
    downstream shard frame.
    """

    op: str
    id: str
    params: dict[str, Any] = field(default_factory=dict)
    deadline: float | None = None
    tenant: str | None = None

    def remaining(self, now: float | None = None) -> float | None:
        """Seconds of budget left (negative when expired); None if
        no deadline was set."""
        if self.deadline is None:
            return None
        return self.deadline - (time.time() if now is None else now)

    def expired(self, now: float | None = None) -> bool:
        rem = self.remaining(now)
        return rem is not None and rem <= 0.0


# -- encoding ----------------------------------------------------------------

def _dumps(obj: Any) -> bytes:
    """The one wire form of a JSON value: compact, key-sorted and — the
    encoder's ``ensure_ascii`` default — pure ASCII."""
    return json.dumps(obj, separators=(",", ":"), sort_keys=True,
                      allow_nan=True).encode("ascii")


def _sized(data: bytes) -> bytes:
    if len(data) > MAX_FRAME_BYTES:
        raise ProtocolError(f"frame of {len(data)} bytes exceeds "
                            f"{MAX_FRAME_BYTES}")
    return data


def _frame(obj: dict[str, Any]) -> bytes:
    return _sized(_dumps(obj) + b"\n")


class Body(bytes):
    """A result already in its wire form — what :func:`peel_response`
    took off a peer's ok frame, spliced into the next frame as it is."""

    __slots__ = ()


class Hit(dict):
    """A result served again and again as the same object: the hit form
    a versioned response cache stores.  Its wire form is computed at
    its first send and kept on it, so the bytes live and die with the
    cache entry — whoever adds a key (a shard stamps its name) does so
    before that first send, and nobody after it."""

    __slots__ = ("_wire",)

    def wire(self) -> bytes:
        try:
            return self._wire
        except AttributeError:
            self._wire = _dumps(self)
            return self._wire


def encode_request(op: str, req_id: str,
                   params: dict[str, Any] | None = None, *,
                   deadline: float | None = None,
                   tenant: str | None = None) -> bytes:
    frame = {"v": PROTOCOL_VERSION, "id": req_id, "op": op,
             "params": params or {}}
    if deadline is not None:
        frame["deadline"] = float(deadline)
    if tenant is not None:
        frame["tenant"] = str(tenant)
    return _frame(frame)


#: The ok frame is a splice: ``{"id":<id>`` + ``,"ok":true,"result":`` +
#: *body* + ``,"v":N}\n`` — what ``_frame`` makes of ``{"v", "id", "ok",
#: "result"}``, because sorted keys put ``id < ok < result < v``.
_OK_MID = b',"ok":true,"result":'
_OK_TAIL = b',"v":%d}\n' % PROTOCOL_VERSION


def _ok_head(req_id: str | None) -> bytes:
    # a string or null reads the same under any separators or key order,
    # so the id takes ``json.dumps``'s cached default encoder (a third
    # of the cost of building one, on every response)
    return b'{"id":' + json.dumps(req_id).encode("ascii") + _OK_MID


def encode_response(req_id: str | None, result: Any) -> bytes:
    """The one builder of an ok frame, for service, shard and router.
    The body is ``result`` freshly dumped, unless its bytes already
    exist: a :class:`Body` relayed from a peer, or the memo of a
    :class:`Hit`."""
    body = result if type(result) is Body \
        else result.wire() if type(result) is Hit else _dumps(result)
    return _sized(_ok_head(req_id) + body + _OK_TAIL)


def peel_response(line: bytes, req_id: str) -> "Body | None":
    """The exact inverse of :func:`encode_response`: the body of the ok
    frame that answers ``req_id``, its bytes untouched — or None for any
    other line (an error frame, foreign spacing or key order, another id
    or protocol version, a byte outside ASCII), which is then
    :func:`decode_frame`'s to judge.

    The envelope is compared byte for byte and the line must be ASCII —
    every frame this encoder writes is, so a byte flipped on the way
    here fails the test — but the body is *not* parsed: what this proves
    of it is that it arrived as it was sent."""
    head = _ok_head(req_id)
    if line.startswith(head) and line.endswith(_OK_TAIL) \
            and line.isascii() and len(line) <= MAX_FRAME_BYTES:
        return Body(line[len(head):-len(_OK_TAIL)])
    return None


def decode_body(body: bytes) -> Any:
    """Parse a peeled :class:`Body` — the consumer's half of
    :func:`decode_frame`."""
    try:
        return json.loads(body)
    except ValueError as e:
        raise ProtocolError(f"undecodable result body: {e}") from None


def encode_error(req_id: str | None, exc: BaseException) -> bytes:
    return _frame({"v": PROTOCOL_VERSION, "id": req_id, "ok": False,
                   "error": error_to_payload(exc)})


# -- decoding ----------------------------------------------------------------

def decode_frame(line: bytes) -> dict[str, Any]:
    """Parse one wire line into a frame dict.

    Raises :class:`ProtocolError` on garbage bytes, truncation (a line
    that lost its terminator mid-frame parses as broken JSON), non-object
    payloads, or a version the peer does not speak.
    """
    if not line.strip():
        raise ProtocolError("empty frame")
    if len(line) > MAX_FRAME_BYTES:
        raise ProtocolError(f"frame of {len(line)} bytes exceeds "
                            f"{MAX_FRAME_BYTES}")
    try:
        obj = json.loads(line.decode("utf-8"))
    except (UnicodeDecodeError, json.JSONDecodeError) as e:
        raise ProtocolError(f"undecodable frame: {e}") from None
    if not isinstance(obj, dict):
        raise ProtocolError(f"frame is {type(obj).__name__}, expected "
                            "object")
    v = obj.get("v")
    if v != PROTOCOL_VERSION:
        raise VersionMismatch(PROTOCOL_VERSION, v)
    return obj


def parse_request(frame: dict[str, Any]) -> Request:
    """Validate a decoded frame as a request."""
    op = frame.get("op")
    if not isinstance(op, str) or not op:
        raise ProtocolError("request lacks an 'op' string")
    if op not in OPS:
        raise BadRequest(f"unknown operation {op!r}; "
                         f"choose from {', '.join(OPS)}")
    req_id = frame.get("id")
    if not isinstance(req_id, str) or not req_id:
        raise ProtocolError("request lacks an 'id' string")
    params = frame.get("params", {})
    if not isinstance(params, dict):
        raise ProtocolError(f"params is {type(params).__name__}, "
                            "expected object")
    deadline = frame.get("deadline")
    if deadline is not None:
        if not isinstance(deadline, (int, float)) \
                or isinstance(deadline, bool):
            raise ProtocolError(f"deadline is {type(deadline).__name__}, "
                                "expected epoch seconds")
        deadline = finite(float(deadline), "deadline", ProtocolError)
    tenant = frame.get("tenant")
    if tenant is not None:
        if not isinstance(tenant, str) or not tenant:
            raise ProtocolError(f"tenant is {type(tenant).__name__}, "
                                "expected non-empty string")
    return Request(op=op, id=req_id, params=params, deadline=deadline,
                   tenant=tenant)


# -- error payloads ----------------------------------------------------------

#: The error table: the classes a client catches *concretely* — it backs
#: off on AdmissionRejected, fixes its text on QueryError — keyed by the
#: ``kind`` each declares.  Any other kind (``bad-request``, the cell
#: taxonomy's ``crash``/``timeout``/``oom``..., ``internal``) reaches
#: the caller as a :class:`RemoteError` preserving the tag.
ERRORS: "dict[str, type[ServiceError]]" = {cls.kind: cls for cls in (
    ProtocolError, AdmissionRejected, QuotaExceeded, WrongShard,
    ShardUnavailable, DeadlineExceeded, CircuitOpen, RetryBudgetExhausted,
    MutationError, SnapshotExpired, QueryError, PlanError)}


#: The optional fields of an error payload (a class declares which it
#: carries in ``wire_fields``).  ``shard`` survives re-encoding — a
#: router forwarding a rehydrated shard error keeps the originating
#: shard; ``retry_after_s`` is a quota rejection's machine-readable
#: backoff hint (the client retries when the tenant's bucket has
#: refilled, not blindly).
_WIRE_FIELDS = {"shard": str, "retry_after_s": float, "tenant": str}


def _wire_fields(cls: type, get) -> dict[str, Any]:
    """The declared fields of ``cls`` that ``get`` holds a wire-valid
    value for (a non-empty string, a positive number of seconds) — one
    rule for both directions."""
    fields = {}
    for name in getattr(cls, "wire_fields", ()):
        value = get(name)
        if _WIRE_FIELDS[name] is str:
            if isinstance(value, str) and value:
                fields[name] = value
        elif isinstance(value, (int, float)) and value > 0:
            fields[name] = round(float(value), 4)
    return fields


def error_to_payload(exc: BaseException) -> dict[str, Any]:
    """Flatten an exception into the typed wire payload.

    Framework errors carry their taxonomy ``kind``; anything else is an
    ``internal`` failure (the message is the exception summary, never a
    traceback — the wire is not a debugger).
    """
    kind = getattr(exc, "kind", None)
    if not isinstance(kind, str):
        kind = "bad-request" if isinstance(exc, (KeyError, ValueError)) \
            else "internal"
    message = getattr(exc, "message", None)
    if not isinstance(message, str):
        message = str(exc) or type(exc).__name__
    return {"kind": kind, "type": type(exc).__name__, "message": message,
            **_wire_fields(type(exc), lambda name: getattr(exc, name, None))}


def payload_to_error(payload: dict[str, Any]) -> ServiceError:
    """Rehydrate a wire error payload into a raisable exception: the
    :data:`ERRORS` class its ``kind`` names, else a :class:`RemoteError`
    preserving the server's taxonomy tag — carrying the peer's message
    and whichever of its class's wire fields the payload holds."""
    kind = str(payload.get("kind", "internal"))
    message = str(payload.get("message", ""))
    cls = ERRORS.get(kind)
    err = cls.from_wire(message) if cls is not None \
        else RemoteError(kind, message, str(payload.get("type", "")))
    vars(err).update(_wire_fields(type(err), payload.get))
    return err
