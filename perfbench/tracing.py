"""In-memory spans around calls into dtseries, recorded from outside.

Each public function is wrapped at the module attribute its callers look
it up through (for example both `dtseries.cli.co_series` and
`dtseries.localization.co_series`), so a nested call gets the span of its
caller as parent.  A span keeps references to its arguments and result;
counters are computed from them after the pass, so no counting happens
inside a timed interval.
"""

import json
from time import perf_counter


class Tracer:
    def __init__(self):
        self.spans = []
        self.phase = None
        self.enabled = False
        self._stack = []

    def wrap(self, owner, attr, name):
        """Replace owner.attr by a span-recording wrapper; `name` is
        '<layer>.<function>'."""
        fn = getattr(owner, attr)
        tracer = self

        def traced(*args, **kwargs):
            if not tracer.enabled:
                return fn(*args, **kwargs)
            stack = tracer._stack
            span = {
                "id": len(tracer.spans),
                "name": name,
                "parent": stack[-1]["id"] if stack else None,
                "phase": tracer.phase,
                "args": args,
                "kwargs": kwargs,
            }
            tracer.spans.append(span)
            stack.append(span)
            span["start"] = perf_counter()
            try:
                result = fn(*args, **kwargs)
            except BaseException as exc:
                span["end"] = perf_counter()
                span["error"] = exc
                raise
            finally:
                stack.pop()
            span["end"] = perf_counter()
            span["result"] = result
            return result

        setattr(owner, attr, traced)

    def phase_spans(self, phase):
        return [s for s in self.spans if s["phase"] == phase]

    def write(self, path):
        """Write the spans (names, ids, parents, times; no payloads)."""
        rows = [
            {
                "id": s["id"],
                "name": s["name"],
                "parent": s["parent"],
                "phase": s["phase"],
                "start": s["start"],
                "end": s["end"],
                "error": type(s["error"]).__name__ if "error" in s else None,
            }
            for s in self.spans
        ]
        with open(path, "w") as fh:
            json.dump(rows, fh)
            fh.write("\n")


def layer_of(name):
    return name.rsplit(".", 1)[0]


def durations(spans):
    """Total and self time per span name and self time per layer."""
    by_id = {s["id"]: s for s in spans}
    child_time = {}
    for s in spans:
        if s["parent"] in by_id:
            child_time[s["parent"]] = child_time.get(s["parent"], 0.0) + s["end"] - s["start"]
    total, self_by_layer = {}, {}
    for s in spans:
        d = s["end"] - s["start"]
        total[s["name"]] = total.get(s["name"], 0.0) + d
        layer = layer_of(s["name"])
        self_by_layer[layer] = self_by_layer.get(layer, 0.0) + d - child_time.get(s["id"], 0.0)
    return total, self_by_layer
