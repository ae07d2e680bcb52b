"""State digests and trace export as they were written before each
location, value and update kept its canonical text: every pair and every
update is built as a JSON object and encoded afresh, and the pairs are
sorted by their spaced `json.dumps` text. Kept as the oracle that
`asmweave.state` and `asmweave.interp.export_trace_jsonl` must match byte
for byte (`tests/test_trace_oracle.py`).
"""
from __future__ import annotations

import hashlib
import json
from typing import Dict, List

from asmweave.interp import Progressed, ResEntry, Trace
from asmweave.state import Location
from asmweave.values import Value, encode_value


def digest(content: Dict[Location, Value]) -> str:
    pairs = sorted(([loc.fname, [encode_value(a) for a in loc.args], encode_value(v)]
                    for loc, v in content.items()), key=json.dumps)
    blob = json.dumps(pairs, separators=(",", ":"))
    return hashlib.sha256(blob.encode()).hexdigest()[:16]


def trace_digests(trace: Trace) -> List[str]:
    """`Trace.digests`, each state digested by `digest`."""
    states = [trace.start] + [st.next_state for st in trace.steps
                              if isinstance(st, Progressed)]
    return [digest(s.content) for s in states[:len(trace.steps)] + [states[-1]]]


def resolution(e: ResEntry) -> dict:
    """A resolution as an exported trace writes it, in this key order."""
    return {"kind": e.kind, "label": e.label, "key": e.key, "value": encode_value(e.value)}


def export_trace_jsonl(trace: Trace) -> str:
    lines = []
    digests = trace_digests(trace)
    for k, st in enumerate(trace.steps):
        obj = {
            "step": k,
            "updates": [
                {"f": u.loc.fname,
                 "args": [encode_value(a) for a in u.loc.args],
                 "val": encode_value(u.val)}
                for u in st.updates
            ],
            "resolutions": [resolution(e) for e in st.resolutions],
            "digest": digests[k],
        }
        if st.schedule:
            obj["schedule"] = list(st.schedule)
        lines.append(json.dumps(obj, separators=(",", ":")))
    return "\n".join(lines) + ("\n" if lines else "")
