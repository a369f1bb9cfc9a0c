"""Exception hierarchy for the repro graph framework.

The framework mirrors the System G-style API abstracted by GraphBIG: a small
set of typed errors lets workload code distinguish user mistakes (bad ids,
schema violations) from internal invariant breakage.
"""

from __future__ import annotations


class GraphError(Exception):
    """Base class for all framework errors."""


class VertexNotFound(GraphError, KeyError):
    """Raised when a vertex id is not present in the graph."""

    def __init__(self, vid: int):
        super().__init__(f"vertex {vid!r} not found")
        self.vid = vid


class EdgeNotFound(GraphError, KeyError):
    """Raised when an edge (src, dst) is not present in the graph."""

    def __init__(self, src: int, dst: int):
        super().__init__(f"edge ({src!r} -> {dst!r}) not found")
        self.src = src
        self.dst = dst


class DuplicateVertex(GraphError, ValueError):
    """Raised when adding a vertex id that already exists."""

    def __init__(self, vid: int):
        super().__init__(f"vertex {vid!r} already exists")
        self.vid = vid


class DuplicateEdge(GraphError, ValueError):
    """Raised when adding an edge that already exists."""

    def __init__(self, src: int, dst: int):
        super().__init__(f"edge ({src!r} -> {dst!r}) already exists")
        self.src = src
        self.dst = dst


class SchemaError(GraphError, ValueError):
    """Raised on property-schema violations (unknown slot, bad layout)."""


class TraceError(GraphError, RuntimeError):
    """Raised on tracer misuse (unbalanced regions, missing registration)."""


# -- characterization-harness failure taxonomy ------------------------------
#
# The resilient matrix runner (repro.resilience) executes every
# workload x dataset cell in an isolated worker; these errors classify how
# a cell can fail so the harness can retry, checkpoint, and degrade
# gracefully instead of losing the sweep.

class HarnessError(GraphError):
    """Base class for characterization-harness failures."""


class MetricsUnavailable(HarnessError, ValueError):
    """A metric was requested from a Row lacking the measurements it needs
    (e.g. GPU speedup on a CPU-only row)."""


class CellExecutionError(HarnessError):
    """Base class for per-cell failures in the resilient matrix runner.

    ``kind`` is the stable machine-readable tag journaled to checkpoints
    and rendered in failure reports.
    """

    kind = "error"

    def __init__(self, cell_id: str, message: str):
        super().__init__(f"[{cell_id}] {message}")
        self.cell_id = cell_id
        self.message = message


class CellTimeout(CellExecutionError):
    """A worker exceeded its wall-clock budget and was killed."""

    kind = "timeout"

    def __init__(self, cell_id: str, timeout_s: float):
        super().__init__(cell_id,
                         f"exceeded wall-clock timeout of {timeout_s:g}s")
        self.timeout_s = timeout_s


class CellCrash(CellExecutionError):
    """A worker died (signal, unhandled exception, or corrupt payload)."""

    kind = "crash"

    def __init__(self, cell_id: str, detail: str):
        super().__init__(cell_id, f"worker crashed: {detail}")
        self.detail = detail


class CellOOM(CellExecutionError):
    """A worker hit an allocator failure (MemoryError)."""

    kind = "oom"

    def __init__(self, cell_id: str, detail: str = "MemoryError"):
        super().__init__(cell_id, f"allocator failure: {detail}")
        self.detail = detail


class RetriesExhausted(CellExecutionError):
    """Every attempt at a cell failed; carries the last failure."""

    kind = "retries-exhausted"

    def __init__(self, cell_id: str, attempts: int,
                 last: CellExecutionError):
        super().__init__(cell_id,
                         f"all {attempts} attempts failed; "
                         f"last: {last.kind}: {last.message}")
        self.attempts = attempts
        self.last = last


# -- observability taxonomy --------------------------------------------------

class MetricError(GraphError, ValueError):
    """Metrics-registry misuse: re-registering a name as a different
    instrument type or label set, a negative counter increment, a label
    assignment that does not match the declared names, or degenerate
    histogram buckets.  Deterministic programming errors — raised
    immediately rather than silently skewing measurements."""


# -- service taxonomy --------------------------------------------------------
#
# The query service (repro.service) ships failures across a socket as typed
# payloads; ``kind`` is the stable machine-readable tag on the wire, shared
# with the cell taxonomy above so a crashed worker looks the same to a
# remote client as to the batch matrix runner.

class ServiceError(GraphError):
    """Base class for graph-query-service failures.

    ``wire_fields`` declares the optional fields an error frame of this
    class carries beside ``kind``/``type``/``message``: any service
    error can name the ``shard`` it originated on; a class that carries
    more extends the tuple and gives each field a class-level default.
    """

    kind = "service"
    wire_fields: tuple[str, ...] = ("shard",)
    shard: "str | None" = None

    @classmethod
    def from_wire(cls, message: str) -> "ServiceError":
        """The client-side image of an error the peer shipped.  The
        constructor's arguments did not cross the wire, so it is not
        called: the instance holds the peer's message (and whichever
        declared wire fields the payload carried), nothing invented."""
        err = cls.__new__(cls)
        Exception.__init__(err, message)
        err.message = message
        return err


class ProtocolError(ServiceError, ValueError):
    """A wire frame could not be decoded or violated the protocol
    (garbage bytes, truncated frame, bad version, malformed request)."""

    kind = "protocol"


class VersionMismatch(ProtocolError):
    """The peer speaks a different protocol version.

    Raised instead of a generic decode failure so a client can tell "the
    server is a different release" apart from "the wire is garbage" —
    both versions are carried for the error message and for callers that
    want to negotiate or report precisely.
    """

    def __init__(self, ours: int, theirs: object):
        super().__init__(f"protocol version mismatch: peer speaks "
                         f"{theirs!r}, this client speaks {ours}")
        self.ours = ours
        self.theirs = theirs


class BadRequest(ServiceError, ValueError):
    """A well-framed request asked for something that cannot exist
    (unknown operation, unknown workload or dataset, invalid params)."""

    kind = "bad-request"


class AdmissionRejected(ServiceError):
    """The server's bounded request queue is full — backpressure.

    Clients should treat this as retryable after a delay; the server
    sheds load instead of queueing without bound.
    """

    kind = "admission-rejected"

    def __init__(self, pending: int, limit: int):
        super().__init__(f"request queue full ({pending}/{limit} pending); "
                         "retry later")
        self.pending = pending
        self.limit = limit


class QuotaExceeded(ServiceError):
    """A tenant spent its admission quota — per-tenant backpressure.

    Distinct from :class:`AdmissionRejected` (the *global* queue bound):
    the server had capacity, but this tenant's token bucket or fair-share
    queue was at its limit, so the request is shed to protect the other
    tenants.  Retryable after ``retry_after_s`` (the bucket refills at
    the tenant's provisioned rate).
    """

    kind = "quota-exceeded"
    wire_fields = ("shard", "retry_after_s", "tenant")
    tenant: "str | None" = None
    retry_after_s = 0.0

    def __init__(self, tenant: str, reason: str = "rate",
                 retry_after_s: float = 0.0):
        detail = f"; retry after {retry_after_s:.2f}s" \
            if retry_after_s > 0 else ""
        super().__init__(f"tenant {tenant!r} exceeded its {reason} "
                         f"quota{detail}")
        self.tenant = tenant
        self.reason = reason
        self.retry_after_s = retry_after_s


class WrongShard(ServiceError):
    """A shard received a single-dataset request for a dataset it does
    not own — a routing bug (stale ring, misconfigured topology), never
    a user mistake, so it is distinct from :class:`BadRequest`."""

    kind = "wrong-shard"

    def __init__(self, dataset: str, shard: str):
        super().__init__(f"dataset {dataset!r} is not owned by shard "
                         f"{shard!r}")
        self.dataset = dataset
        self.shard = shard


class ShardUnavailable(ServiceError):
    """Every replica that owns a key failed at the transport level.

    The router raises this only after exhausting the failover chain;
    ``tried`` is the replica order it walked.  Clients should treat it
    like :class:`AdmissionRejected` — retryable after a delay, since a
    health probe may readmit a recovered shard at any moment.
    """

    kind = "unavailable"

    def __init__(self, key: str, tried: tuple[str, ...] = ()):
        chain = " -> ".join(tried) if tried else "no replicas"
        super().__init__(f"no replica could serve {key!r} "
                         f"(tried {chain}); retry later")
        self.key = key
        self.tried = tuple(tried)


class DeadlineExceeded(ServiceError):
    """A request's end-to-end time budget ran out.

    Raised wherever the budget is discovered to be spent: in the client
    when the round trip outlives ``timeout_s``, in the scheduler when
    queued work expires before execution (shedding — the work is never
    run), and in the router when the remaining budget cannot cover
    another replica attempt.  ``stage`` names that discovery point and
    ``elapsed_s``/``budget_s`` carry the breakdown, so the error message
    a caller sees says *where* the time went, not just that it went.

    Retryable in principle — but only with a fresh budget.
    """

    kind = "deadline-exceeded"

    def __init__(self, stage: str, elapsed_s: float, budget_s: float):
        if budget_s > 0:
            detail = (f"{elapsed_s * 1e3:.1f}ms elapsed of a "
                      f"{budget_s * 1e3:.1f}ms budget")
        else:
            # a shedding stage only sees the absolute deadline, not the
            # original budget — report how far past it the work was
            detail = f"{elapsed_s * 1e3:.1f}ms past the deadline"
        super().__init__(f"deadline exceeded at {stage}: {detail}")
        self.stage = stage
        self.elapsed_s = elapsed_s
        self.budget_s = budget_s


class CircuitOpen(ServiceError):
    """Every replica that owns a key is behind an open circuit breaker.

    Distinct from :class:`ShardUnavailable`: no connection was even
    attempted — the breakers' recent history says the attempts would
    fail, so the router sheds the request instead of burning its
    deadline on doomed dials.  Retryable after the breaker's reset
    timeout (half-open probes readmit a recovered shard).
    """

    kind = "circuit-open"

    def __init__(self, key: str, shards: tuple[str, ...] = ()):
        chain = ", ".join(shards) if shards else "all replicas"
        super().__init__(f"circuit open for every replica of {key!r} "
                         f"({chain}); retry after reset timeout")
        self.key = key
        self.shards = tuple(shards)


class RetryBudgetExhausted(ServiceError):
    """Failover stopped because the cluster-wide retry budget is spent.

    The token-bucket budget caps retry amplification: when many keys
    fail at once, unbounded per-request failover multiplies offered load
    exactly when the cluster can least afford it.  The first attempt
    already failed and no token was available to pay for another, so the
    request fails fast.  Retryable after a delay (tokens refill with
    fresh traffic).
    """

    kind = "retry-budget"

    def __init__(self, key: str, tried: tuple[str, ...] = ()):
        chain = " -> ".join(tried) if tried else "none"
        super().__init__(f"retry budget exhausted for {key!r} after "
                         f"trying {chain}; failing fast to cap "
                         "amplification")
        self.key = key
        self.tried = tuple(tried)


class MutationError(ServiceError, ValueError):
    """A graph mutation cannot apply in strict mode (adding a vertex
    that already exists, deleting an edge that is not there, touching a
    vertex that was never created).

    Lenient commits skip such no-op operations and report them in the
    ``skipped`` count instead; strict commits surface the first
    violation as this error so the writer learns its model of the graph
    has drifted.
    """

    kind = "mutation"

    def __init__(self, op: str, detail: str):
        super().__init__(f"mutation {op} cannot apply: {detail}")
        self.op = op
        self.detail = detail


class SnapshotExpired(ServiceError):
    """A pinned or requested snapshot version fell outside the store's
    retention window — compaction already folded its deltas into the
    base, so the exact state at that version is no longer
    reconstructable.

    Readers recover by re-pinning the current head; incremental kernels
    recover by a full recompute (their synced version predates the
    window, so the delta chain they need is gone).
    """

    kind = "snapshot-expired"

    def __init__(self, version: int, floor: int, head: int):
        super().__init__(
            f"snapshot version {version} is outside the retention "
            f"window [{floor}, {head}]")
        self.version = version
        self.floor = floor
        self.head = head


class QueryError(ServiceError, ValueError):
    """A pipeline-DSL query could not be lexed or parsed (garbage
    tokens, a truncated pipeline, a malformed argument), or failed a
    runtime check the text alone cannot catch (a BFS root that is not a
    vertex, a result too large to ship).

    Always a property of the query, never of the server — retrying the
    same text yields the same error, so clients should fix the query,
    not back off.
    """

    kind = "query"

    def __init__(self, message: str, *, position: int | None = None):
        if position is not None:
            message = f"{message} (at position {position})"
        super().__init__(message)
        self.message = message
        self.position = position


class PlanError(QueryError):
    """A syntactically valid pipeline cannot be planned: an unknown
    stage or dataset, an argument of the wrong shape, a column no prior
    stage produces, or a stage ordering the executor does not support
    (e.g. a graph kernel after an aggregate).

    Distinct from :class:`QueryError` so tooling can tell "fix your
    syntax" apart from "fix your pipeline" — the parser accepted the
    text; the planner rejected its meaning.
    """

    kind = "plan"


class RemoteError(ServiceError):
    """Client-side image of a failure the server shipped over the wire.

    ``kind`` is the server-reported taxonomy tag (``crash``, ``timeout``,
    ``oom``, ``retries-exhausted``, ``bad-request`` ...), preserved so
    callers can dispatch on it exactly as server-side code dispatches on
    the original exception classes.
    """

    def __init__(self, kind: str, message: str, remote_type: str = ""):
        super().__init__(f"[{kind}] {message}")
        self.kind = kind
        self.message = message
        self.remote_type = remote_type
