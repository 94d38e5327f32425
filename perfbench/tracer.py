"""Call tracing from outside the program, for the traced benchmark run.

Wrappers are installed on the module and class attributes through which
the CLI and the streaming API reach each layer, and removed again by
`Tracer.restore`. Nothing in the program changes.

Each timed call records its duration and its self time (duration minus
the time of the traced calls it made), aggregated per (parent, name).
Calls made millions of times (the per-hour kernels) keep only those
aggregates; the rest also keep one span (name, parent, start, end) each.
Everything stays in memory until `dump` writes it out.
"""

from __future__ import annotations

import json
import time

ROOT = "<root>"


class Tracer:
    def __init__(self):
        self.agg = {}          # (parent, name) -> [calls, total_ns, self_ns]
        self.spans = []        # (name, parent, start_ns, end_ns), coarse calls only
        self._cells = {}       # counter name -> [int]
        self.distinct = {}     # counter name -> set of first arguments seen
        self._state = [ROOT, 0]        # innermost open call, sum of self times (ns)
        self._saved = []               # (owner, attr, original)

    def add(self, name: str, amount: int = 1):
        self.cell(name)[0] += amount

    def _replace(self, owner, attr: str, wrapper):
        original = owner.__dict__[attr]
        self._saved.append((owner, attr, original))
        setattr(owner, attr, wrapper)
        return original

    def time(self, owner, attr: str, name: str, *, hot: bool = False,
             on_call=None, on_result=None):
        """Time every call of owner.attr under `name`.

        on_call(args, kwargs) and on_result(result) run outside the timed
        interval, for counters derived from the arguments or the result.
        A hot wrapper takes positional arguments only and keeps no spans.

        No stack is kept: `state` holds the name of the innermost open call
        and the running sum of self times of all closed calls. The traced
        calls made inside a call have durations summing to the growth of
        that sum while it was open, so self = duration - growth. The clock
        is read in integer nanoseconds, which costs less per call than floats.
        """
        fn = owner.__dict__[attr]
        state, agg, spans = self._state, self.agg, self.spans
        clock = time.perf_counter_ns
        slots = {}      # parent name -> [calls, total_ns, self_ns]

        def slot_for(parent):
            slot = slots[parent] = agg.setdefault((parent, name), [0, 0, 0])
            return slot

        if hot:
            def traced(*args):
                parent = state[0]
                state[0] = name
                before = state[1]
                start = clock()
                try:
                    result = fn(*args)
                except BaseException:
                    state[0] = parent
                    raise
                spent = clock() - start
                state[0] = parent
                own = spent - (state[1] - before)
                state[1] += own
                slot = slots.get(parent) or slot_for(parent)
                slot[0] += 1
                slot[1] += spent
                slot[2] += own
                if on_result is not None:
                    on_result(result)
                return result
        else:
            def traced(*args, **kwargs):
                if on_call is not None:
                    on_call(args, kwargs)
                parent = state[0]
                state[0] = name
                before = state[1]
                start = clock()
                try:
                    result = fn(*args, **kwargs)
                finally:
                    end = clock()
                    state[0] = parent
                    own = (end - start) - (state[1] - before)
                    state[1] += own
                    slot = slots.get(parent) or slot_for(parent)
                    slot[0] += 1
                    slot[1] += end - start
                    slot[2] += own
                    spans.append((name, parent, start, end))
                if on_result is not None:
                    on_result(result)
                return result

        self._replace(owner, attr, traced)

    def count(self, owner, attr: str, name: str, *, distinct: bool = False):
        """Count calls of owner.attr without timing them; with `distinct`,
        also collect the distinct first arguments."""
        fn = owner.__dict__[attr]
        cell = self._cells.setdefault(name, [0])
        if distinct:
            seen = self.distinct.setdefault(name, set())

            def counted(arg, *rest):
                cell[0] += 1
                seen.add(arg)
                return fn(arg, *rest)
        else:
            def counted(*args):
                cell[0] += 1
                return fn(*args)

        self._replace(owner, attr, counted)

    def cell(self, name: str) -> list:
        """A one-element counter list, cheaper to bump than a dict entry."""
        return self._cells.setdefault(name, [0])

    def restore(self):
        """Put every wrapped attribute back, newest first."""
        while self._saved:
            owner, attr, original = self._saved.pop()
            setattr(owner, attr, original)

    # ------------------------------------------------------------ results

    def self_seconds(self) -> dict:
        """name -> summed self time over all parents, in seconds."""
        out = {}
        for (_, name), (_, _, own) in self.agg.items():
            out[name] = out.get(name, 0) + own
        return {name: own / 1e9 for name, own in out.items()}

    def calls(self) -> dict:
        out = {}
        for (_, name), (n, _, _) in self.agg.items():
            out[name] = out.get(name, 0) + n
        return out

    def snapshot(self) -> dict:
        return {
            "self_s": self.self_seconds(),
            "calls": self.calls(),
            "counts": {k: v[0] for k, v in self._cells.items()},
            "distinct": {k: len(v) for k, v in self.distinct.items()},
            "by_parent": [[p, n, c, t / 1e9, s / 1e9]
                          for (p, n), (c, t, s) in sorted(self.agg.items())],
            "spans": [(n, p, start / 1e9, end / 1e9) for n, p, start, end in self.spans],
        }

    def dump(self, path):
        with open(path, "w") as handle:
            json.dump(self.snapshot(), handle)


def instrument(tracer: Tracer):
    """Wrap the program's layers at the attributes its callers go through.

    Module attributes are wrapped where the caller looks them up: the CLI
    reaches proxy selection through names imported into ozonet.cli, the
    engine reaches ks_pvalue through ozonet.alarms, and so on.
    """
    from ozonet import alarms, calibrate, cli, kernels, proxy, simulate
    from ozonet import io as ozio

    by_status = {status: tracer.cell(f"alarms.hours_{status}")
                 for status in (alarms.STATUS_OK, alarms.STATUS_INSUFFICIENT,
                                alarms.STATUS_DEGENERATE)}
    corrected = tracer.cell("alarms.hours_corrected")

    def on_step(row):
        by_status[row.status][0] += 1
        if row.corrected:
            corrected[0] += 1

    def rows_parsed(result):
        tracer.add("io.rows_parsed", sum(len(s) for s in result[0].values()))

    def chart_rows(args, kwargs):
        tracer.add("io.rows_written", len(args[1]))

    def corrected_rows(args, kwargs):
        tracer.add("io.rows_written", sum(r.raw_value is not None for r in args[1]))

    def series_rows(args, kwargs):
        tracer.add("io.rows_written", sum(len(s) for s in args[1].values()))

    def score_rows(args, kwargs):
        tracer.add("io.rows_written", len(args[1]))

    def median_cells(args, kwargs):
        series_list = args[0]
        exclude = args[2] if len(args) > 2 else kwargs.get("exclude", ())
        pool = [s for s in series_list if s.site_id not in exclude and len(s)]
        if pool:
            span = max(int(s.hours[-1]) for s in pool) - min(int(s.hours[0]) for s in pool) + 1
            tracer.add("proxy.median_grid_cells", len(pool) * span)

    for name in ("io.rows_parsed", "io.rows_written", "proxy.median_grid_cells"):
        tracer.add(name, 0)

    # per-hour calls: aggregates only
    tracer.time(kernels, "ks_distance", "kernels.ks_distance", hot=True)
    tracer.time(kernels, "window_moments", "kernels.window_moments", hot=True)
    tracer.time(alarms, "ks_pvalue", "kstest.ks_pvalue", hot=True)
    tracer.time(alarms, "update_persistence", "alarms.update_persistence", hot=True)
    tracer.time(alarms.SiteEngine, "step", "alarms.step", hot=True, on_result=on_step)
    tracer.time(calibrate.EstimateHistory, "append", "calibrate.append", hot=True)
    tracer.time(calibrate.EstimateHistory, "trend_at", "calibrate.trend_at", hot=True)
    tracer.count(ozio, "parse_iso_hour", "timeseries.parse_iso_hour", distinct=True)
    tracer.count(ozio, "format_iso_hour", "timeseries.format_iso_hour")

    # per-site or per-stage calls: spans as well
    tracer.time(alarms.SiteEngine, "run", "alarms.run")
    tracer.time(ozio, "load_network_config", "io.load_network_config")
    tracer.time(ozio, "scan_series_csv", "io.scan_series_csv", on_result=rows_parsed)
    tracer.time(ozio, "write_chart_csv", "io.write_chart_csv", on_call=chart_rows)
    tracer.time(ozio, "write_corrected_csv", "io.write_corrected_csv", on_call=corrected_rows)
    tracer.time(ozio, "write_series_csv", "io.write_series_csv", on_call=series_rows)
    tracer.time(ozio, "write_proxy_scores_csv", "io.write_proxy_scores_csv",
                on_call=score_rows)
    tracer.time(cli, "nearest_reference", "proxy.select")
    tracer.time(cli, "similar_aadt", "proxy.select")
    tracer.time(cli, "network_median_series", "proxy.network_median_series",
                on_call=median_cells)
    tracer.time(cli, "evaluate_proxy", "proxy.evaluate_proxy")
    tracer.time(proxy, "pair_metrics", "metrics.pair_metrics")
    tracer.time(cli, "proxy_eval_svg", "svgout.proxy_eval_svg")
    tracer.time(cli, "run_scenario", "simulate.run_scenario")
    tracer.time(simulate, "generate_regional", "simulate.generate_regional")
