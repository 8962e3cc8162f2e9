"""The structured event log (schema v1).

Engines with an attached sink (see ``PacketSimulator._events``) append
one small tuple per packet movement; this module owns the schema, the
canonical ordering, and the JSONL serialization.

Raw tuples all start ``(kind, cycle, uid, ...)``:

====================  ====================================================
``("inject",  c, uid, node, dst)``        packet entered its injection queue
``("enqueue", c, uid, node, queue)``      packet entered central queue
                                          ``queue`` at ``node`` (arrival,
                                          entry fold, internal phase move,
                                          degenerate self-hop, or a fault
                                          retraction)
``("hop",     c, uid, u, v, cls, dyn, queue)``  packet dispatched into the
                                          output buffer of link ``u -> v``
                                          (buffer class ``cls``; ``dyn``
                                          True iff the hop rode a dynamic
                                          link), heading for ``queue`` at
                                          ``v``
``("deliver", c, uid, node, latency)``    packet entered the delivery queue
``("drop",    c, uid, node, reason)``     packet lost (e.g. inside a node
                                          that just died)
``("epoch",   c, -1,  desc)``             the live fault set changed
====================  ====================================================

**Canonical order.**  The reference engine assigns buffers buffer-major
and the vector engine message-major, so their *emission* orders can
interleave packets differently within a cycle even though every
packet's own movement sequence is identical.  :meth:`EventLog.canonical`
stable-sorts by ``(cycle, uid)``, which collapses both emissions onto
one order — this is what makes the serialized log byte-identical
across engines at equal seeds (``tests/test_telemetry_identity.py``).

**Serialization.**  One JSON object per line, keys sorted, no
whitespace, nodes converted tuples→lists; ``read_jsonl`` reverses the
node conversion.  Every record carries ``"v": 1``; consumers must
reject newer majors.
"""

from __future__ import annotations

import json
from typing import Any, Iterable, Iterator

#: Version of the serialized record schema.
SCHEMA_VERSION = 1

#: Every event kind, in no particular order.
EVENT_KINDS = ("inject", "enqueue", "hop", "deliver", "drop", "epoch")


def _jsonable(node: Any) -> Any:
    """Topology node ids as JSON values (tuples become lists)."""
    if isinstance(node, tuple):
        return [_jsonable(x) for x in node]
    return node


def _nodeify(value: Any) -> Any:
    """Reverse of :func:`_jsonable` (lists become tuples)."""
    if isinstance(value, list):
        return tuple(_nodeify(x) for x in value)
    return value


def _to_record(ev: tuple) -> dict:
    kind, cycle, uid = ev[0], ev[1], ev[2]
    rec: dict = {"v": SCHEMA_VERSION, "kind": kind, "cycle": cycle}
    if kind == "inject":
        rec.update(uid=uid, node=_jsonable(ev[3]), dst=_jsonable(ev[4]))
    elif kind == "enqueue":
        rec.update(uid=uid, node=_jsonable(ev[3]), queue=ev[4])
    elif kind == "hop":
        rec.update(
            uid=uid,
            src=_jsonable(ev[3]),
            node=_jsonable(ev[4]),
            cls=ev[5],
            dyn=bool(ev[6]),
            queue=ev[7],
        )
    elif kind == "deliver":
        rec.update(uid=uid, node=_jsonable(ev[3]), latency=ev[4])
    elif kind == "drop":
        rec.update(uid=uid, node=_jsonable(ev[3]), reason=ev[4])
    elif kind == "epoch":
        rec.update(desc=ev[3])
    else:  # pragma: no cover - emission sites are closed-world
        raise ValueError(f"unknown event kind {kind!r}")
    return rec


class EventLog:
    """Accumulates raw engine events and serializes them.

    ``raw`` is a plain list so engines can append tuples with zero
    indirection (``sim._events = log.raw``).
    """

    def __init__(self) -> None:
        self.raw: list[tuple] = []

    def __len__(self) -> int:
        return len(self.raw)

    def canonical(self) -> list[tuple]:
        """Events stable-sorted by ``(cycle, uid)`` (engine-invariant)."""
        return sorted(self.raw, key=lambda ev: (ev[1], ev[2]))

    def records(self) -> list[dict]:
        """Canonical events as schema-v1 dicts."""
        return [_to_record(ev) for ev in self.canonical()]

    def to_jsonl(self) -> str:
        """The whole log as canonical JSONL text."""
        return events_jsonl(self.records())

    def counts(self) -> dict[str, int]:
        """Events per kind (diagnostics, tests)."""
        out: dict[str, int] = {}
        for ev in self.raw:
            out[ev[0]] = out.get(ev[0], 0) + 1
        return out

    def timelines(self) -> dict[int, list[dict]]:
        """Per-packet record sequences, keyed by uid (epochs excluded)."""
        out: dict[int, list[dict]] = {}
        for rec in self.records():
            uid = rec.get("uid")
            if uid is not None and uid >= 0:
                out.setdefault(uid, []).append(rec)
        return out


def events_jsonl(records: Iterable[dict]) -> str:
    """Serialize records deterministically: sorted keys, no whitespace."""
    lines = [
        json.dumps(rec, sort_keys=True, separators=(",", ":"))
        for rec in records
    ]
    return "\n".join(lines) + ("\n" if lines else "")


def read_jsonl(text: str) -> Iterator[dict]:
    """Parse JSONL back into records (node lists become tuples again).

    Raises ``ValueError`` on a schema major this reader does not know.
    """
    for line in text.splitlines():
        if not line.strip():
            continue
        rec = json.loads(line)
        if rec.get("v") != SCHEMA_VERSION:
            raise ValueError(
                f"unsupported event schema v{rec.get('v')!r} "
                f"(reader speaks v{SCHEMA_VERSION})"
            )
        for key in ("node", "dst", "src"):
            if key in rec:
                rec[key] = _nodeify(rec[key])
        yield rec
