"""Name-based tracing of the ulsched layers, from outside the package.

`Tracer.install` rebinds, by name, the functions through which `engine` and
`schedulers` call into the other `ulsched` modules, plus the per-TTI methods
the engine calls on its objects. Each rebinding is a span: it records calls,
inclusive time and self time (inclusive time minus the time of child spans).
A name that no longer exists is recorded as absent and skipped; its time
then falls into the caller's self time.

Hooks that count work or check outputs run outside the timed interval of
their span, and their time is removed from every enclosing span and from the
run total, so the checks do not show up as layer time.
"""

import inspect
import time
from collections import Counter

import numpy as np

LAYERS = ("channel", "traffic", "schedulers", "assignment", "ue_tx", "metrics", "engine")

# Per-TTI methods the engine calls on objects it builds: (module, class, method).
METHODS = (
    ("channel", "CqiSource", "grid"),
    ("traffic", "VoiceSource", "step"),
    ("traffic", "VideoSource", "step"),
    ("traffic", "DataSource", "step"),
    ("traffic", "UeBuffer", "enqueue"),
    ("traffic", "UeBuffer", "age_and_drop"),
    ("metrics", "MetricsCollector", "record_tti"),
    ("metrics", "MetricsCollector", "finalize"),
)
# Counted, not timed: a span per call would cost more than the call itself.
COUNTED = (("traffic", "OnOffSource", "step_ms"),)

ARRIVALS = ("traffic.VoiceSource.step", "traffic.VideoSource.step",
            "traffic.DataSource.step", "traffic.make_packet")
TRACE_PARSE = ("traffic.load_arrival_trace", "channel.load_cqi_trace")
DRAINS = ("ue_tx.flip_drain", "ue_tx.strict_priority_drain")


def boundary_functions(caller):
    """(name, function, layer) for every function the module `caller` imports
    from another ulsched module: the names through which it calls that layer."""
    out = []
    for name, obj in sorted(vars(caller).items()):
        mod = getattr(obj, "__module__", "") or ""
        if inspect.isfunction(obj) and mod.startswith("ulsched.") and mod != caller.__name__:
            out.append((name, obj, mod.rsplit(".", 1)[1]))
    return out


def decision_problems(dec, b, multi_rc=False):
    """Output checks on one scheduler decision against the buffers `b` it
    saw: no grant exceeds its buffer, each RC belongs to at most one UE, and
    outside the surplus regime (multi_rc False) each UE holds at most one RC."""
    out = []
    grants = np.asarray(dec.grants)
    if np.any(grants > b) or np.any(grants < 0):
        out.append("a grant exceeds its UE's buffer")
    owners = {}
    for ue, rcs in enumerate(dec.ue_rcs):
        if len(rcs) > 1 and not multi_rc:
            out.append(f"UE {ue} holds {len(rcs)} RCs outside the surplus regime")
        for rc in rcs:
            if rc in owners or dec.rc_to_ue[rc] != ue:
                out.append(f"RC {rc} is not held by exactly one UE")
            owners[rc] = ue
    if len(owners) != sum(ue is not None for ue in dec.rc_to_ue):
        out.append("rc_to_ue and ue_rcs disagree")
    return out


class Tracer:
    """Spans, counts and per-TTI output checks over one or more traced runs."""

    def __init__(self):
        self.counts = Counter()
        self.layer_of = {}
        self.absent = []
        self.failures = []
        self._acc = {}            # label -> [calls, inclusive ns, self ns]
        self._top = [0, 0]        # spans with no traced parent: inclusive ns, hook ns
        self._stack = []
        self._undo = []
        self.loop_self = Counter()  # layer -> self ns inside TTI loops, hook time removed
        self.loop_ns = 0          # TTI-loop time: first decision to finalize, hook time removed
        self._loop_mark = None
        self._tti_grants = []     # grants > 0 of the current decision
        self._tti_drained = []    # bytes drained per drain call this TTI
        self._surplus = False

    # -- installation -------------------------------------------------------

    def install(self, m):
        """Wrap the boundary names of the freshly imported ulsched modules `m`."""
        self.absent = []
        hooks = {
            "schedulers.dispatch": (self._pre_dispatch, self._post_dispatch),
            "traffic.compute_urgency": (self._pre_urgency, None),
            "traffic.UeBuffer.enqueue": (self._pre_enqueue, None),
            "metrics.MetricsCollector.record_tti": (self._pre_record, None),
            "metrics.MetricsCollector.finalize": (self._close_loop, None),
        }
        for drain in DRAINS:
            hooks[drain] = (self._pre_drain, self._post_drain)
        for caller in (m.engine, m.schedulers):
            for name, fn, layer in boundary_functions(caller):
                label = f"{layer}.{name}"
                if layer == "assignment":
                    hooks[label] = (self._pre_solve, None)
                self._span(caller, name, fn, label, layer, *hooks.get(label, (None, None)))
        for modname, cls_name, meth in METHODS + COUNTED:
            cls = getattr(getattr(m, modname), cls_name, None)
            fn = vars(cls).get(meth) if isinstance(cls, type) else None
            label = f"{modname}.{cls_name}.{meth}"
            if not inspect.isfunction(fn):
                self.absent.append(label)
            elif (modname, cls_name, meth) in COUNTED:
                self._count(cls, meth, fn, label)
            else:
                self._span(cls, meth, fn, label, modname, *hooks.get(label, (None, None)))
        for label in ARRIVALS + TRACE_PARSE + DRAINS + ("schedulers.dispatch",
                                                          "schedulers.build_traffic_matrix",
                                                          "traffic.compute_urgency"):
            if label not in self.layer_of and label not in self.absent:
                self.absent.append(label)
        return self

    @property
    def excluded_ns(self):
        """Hook time, which no span and no run total includes."""
        return self._top[1]

    def stat(self, i, *labels):
        return sum(self._acc[x][i] for x in labels if x in self._acc)

    def uninstall(self):
        for owner, name, fn in reversed(self._undo):
            setattr(owner, name, fn)
        self._undo.clear()

    def _span(self, owner, name, fn, label, layer, pre, post):
        stack = self._stack
        top = self._top
        perf = time.perf_counter_ns
        acc = self._acc.setdefault(label, [0, 0, 0])  # calls, inclusive ns, self ns

        def span(*args, **kwargs):
            frame = [0, 0]  # child inclusive ns, hook ns inside this span
            stack.append(frame)
            t0 = perf()
            try:
                return fn(*args, **kwargs)
            finally:
                dt = perf() - t0 - frame[1]
                stack.pop()
                acc[0] += 1
                acc[1] += dt
                acc[2] += dt - frame[0]
                parent = stack[-1] if stack else top
                parent[0] += dt
                parent[1] += frame[1]

        def hooked_span(*args, **kwargs):
            h0 = perf()
            token = pre(args) if pre is not None else None
            frame = [0, 0]
            stack.append(frame)
            t0 = perf()
            try:
                out = fn(*args, **kwargs)
            finally:
                t1 = perf()
                stack.pop()
            if post is not None:
                post(args, token, out)
            dt = t1 - t0 - frame[1]
            acc[0] += 1
            acc[1] += dt
            acc[2] += dt - frame[0]
            parent = stack[-1] if stack else top
            parent[0] += dt
            parent[1] += perf() - h0 - (t1 - t0) + frame[1]
            return out

        self.layer_of[label] = layer
        setattr(owner, name, span if pre is None and post is None else hooked_span)
        self._undo.append((owner, name, fn))

    def _count(self, owner, name, fn, label):
        counts = self.counts

        def counted(*args, **kwargs):
            counts[label] += 1
            return fn(*args, **kwargs)

        setattr(owner, name, counted)
        self._undo.append((owner, name, fn))

    # -- hooks: counts and output checks -------------------------------------

    def _fail(self, msg):
        self.failures.append(msg)

    def _mark(self):
        return (time.perf_counter_ns(), self._top[1], self._top[0],
                {label: acc[2] for label, acc in self._acc.items()})

    def _close_loop(self, _args):
        """At finalize: add this run's TTI loop, which began at its first
        decision (the end of set-up, as for setup_s), to the loop totals."""
        if self._loop_mark is None:
            return
        t1, hooks1, top1, self1 = self._mark()
        t0, hooks0, top0, self0 = self._loop_mark
        self._loop_mark = None
        ns = (t1 - t0) - (hooks1 - hooks0)
        self.loop_ns += ns
        for label, ns_self in self1.items():
            self.loop_self[self.layer_of[label]] += ns_self - self0.get(label, 0)
        self.loop_self["engine"] += ns - (top1 - top0)

    def _pre_dispatch(self, args):
        if self._loop_mark is None:
            self._loop_mark = self._mark()
        W = args[1]
        b = np.asarray(W.b)
        n_rc = int(W.w.shape[1])
        active = int(np.count_nonzero(b > 0))
        regime = ("idle" if active == 0 else "surplus" if active < n_rc
                  else "square" if active == n_rc else "penalty")
        self.counts[f"regime.{regime}"] += 1
        self.counts["active_ues"] += active
        self.counts["rcs_offered"] += n_rc
        self._surplus = regime == "surplus"
        return b.copy()

    def _post_dispatch(self, args, b, dec):
        for msg in decision_problems(dec, b, multi_rc=self._surplus):
            self._fail(msg)
        self.counts["rcs_granted"] += sum(ue is not None for ue in dec.rc_to_ue)
        self._tti_grants = sorted(int(g) for g in np.asarray(dec.grants) if g > 0)

    def _pre_drain(self, args):
        buf = args[0]
        self.counts["drain_queued_pkts"] += sum(len(q) for q in buf.queues.values())
        return buf.total

    def _post_drain(self, args, before, _res):
        buf, grant = args[0], int(args[1])
        drained = before - buf.total
        if drained != grant:
            self._fail(f"drained {drained} bytes against a grant of {grant}")
        if grant > before:
            self._fail(f"grant {grant} exceeds the buffered {before} bytes")
        self._tti_drained.append(drained)

    def _pre_record(self, args):
        has_drain = any(label in self.layer_of for label in DRAINS)
        if has_drain and sorted(self._tti_drained) != self._tti_grants:
            self._fail(f"TTI {args[1]}: drained {sorted(self._tti_drained)} "
                       f"!= granted {self._tti_grants}")
        self._tti_drained = []
        self._tti_grants = []

    def _pre_urgency(self, args):
        if args[0].total > 0:
            self.counts["urgency_useful"] += 1

    def _pre_enqueue(self, args):
        self.counts["enqueued_pkts"] += len(args[1])

    def _pre_solve(self, args):
        a = args[0]
        shape = np.shape(a) if hasattr(a, "shape") else (len(a), len(a[0]) if len(a) else 0)
        self.counts["solve_cells"] += int(shape[0]) * int(shape[1])


def layer_metrics(tr: Tracer, ttis: int, runs: int) -> dict:
    """Per-layer metrics over `runs` traced runs totalling `ttis` TTIs. Stage
    times run only inside the TTI loop; shares and engine self time are over
    the loops alone, so set-up work such as trace parsing is not in them."""
    def us(ns):  # per-TTI microseconds
        return ns / 1e3 / ttis

    def calls(*labels):
        return tr.stat(0, *labels)

    def incl(*labels):
        return tr.stat(1, *labels)

    share = {layer: 100.0 * tr.loop_self[layer] / tr.loop_ns if tr.loop_ns else 0.0
             for layer in LAYERS}
    decisions = max(1, calls("schedulers.dispatch"))
    solver = [x for x, layer in tr.layer_of.items() if layer == "assignment"]
    solves = calls(*solver)
    urgency = calls("traffic.compute_urgency")
    drains = calls(*DRAINS)
    out = {
        "channel.grid_us_per_tti": us(incl("channel.CqiSource.grid")),
        "traffic.arrivals_us_per_tti": us(incl(*ARRIVALS)),
        "traffic.onoff_steps_per_tti": tr.counts["traffic.OnOffSource.step_ms"] / ttis,
        "traffic.packets_per_tti": tr.counts["enqueued_pkts"] / ttis,
        "traffic.enqueue_us_per_tti": us(incl("traffic.UeBuffer.enqueue")),
        "traffic.age_drop_us_per_tti": us(incl("traffic.UeBuffer.age_and_drop")),
        "traffic.urgency_us_per_tti": us(incl("traffic.compute_urgency")),
        "traffic.urgency_calls_per_tti": urgency / ttis,
        "traffic.urgency_useful_ratio": tr.counts["urgency_useful"] / urgency if urgency else 0.0,
        "traffic.frame_mean_ms": incl("traffic.video_fps_for_load") / 1e6 / runs,
        "traffic.trace_parse_ms": incl(*TRACE_PARSE) / 1e6 / runs,
        "schedulers.build_w_us_per_tti": us(incl("schedulers.build_traffic_matrix")),
        "schedulers.decide_self_us_per_tti": us(tr.stat(2, "schedulers.dispatch")),
        "schedulers.active_ues_mean": tr.counts["active_ues"] / decisions,
        "schedulers.solves_per_decision": solves / decisions,
        "schedulers.rc_grant_ratio": tr.counts["rcs_granted"] / max(1, tr.counts["rcs_offered"]),
        "assignment.solve_us_per_tti": us(incl(*solver)),
        "assignment.solves_per_tti": solves / ttis,
        "assignment.us_per_solve": incl(*solver) / 1e3 / solves if solves else 0.0,
        "assignment.cells_per_solve": tr.counts["solve_cells"] / solves if solves else 0.0,
        "ue_tx.drain_us_per_tti": us(incl(*DRAINS)),
        "ue_tx.drains_per_tti": drains / ttis,
        "ue_tx.queued_pkts_per_drain": tr.counts["drain_queued_pkts"] / drains if drains else 0.0,
        "metrics.record_us_per_tti": us(incl("metrics.MetricsCollector.record_tti")),
        "metrics.finalize_ms": incl("metrics.MetricsCollector.finalize") / 1e6 / runs,
        "engine.loop_self_us_per_tti": us(tr.loop_self["engine"]),
    }
    for regime in ("penalty", "square", "surplus", "idle"):
        out[f"schedulers.regime_{regime}_pct"] = 100.0 * tr.counts[f"regime.{regime}"] / decisions
    for layer in LAYERS:
        out[f"{layer}.share_pct"] = share[layer]
    return out
