"""Benchmark-side tracing of noma_fbl's public functions.

The program carries no instrumentation.  ``Tracer.install`` replaces each
traced function in every ``noma_fbl`` module that holds it (the defining
module, the package and each module that imported the name), so calls
between modules go through the wrapper too.  A "span" function records one
span per call: name, start, end, parent span and instance id.  The
per-evaluation functions (``q_inv``, ``blocklength_for_sinr``) run millions
of times on solve-cold, so they only count calls and sum their time, which
keeps memory bounded.  A traced name the program no longer has is reported
as absent.

The instance id advances at every ``solve_noma`` entry: each workload
solves NOMA first and then TDMA for one instance (a stream instance, or one
trial of one Monte-Carlo cell).
"""

import importlib
import sys
import time
from array import array
from collections import Counter

#: (module, function, kind); kind is "span" or "count".
TRACED = (
    ("qfunc", "q_inv", "count"),
    ("fbl", "blocklength_for_sinr", "count"),
    ("fbl", "sinr_for_blocklength", "span"),
    ("fbl", "required_sinr", "span"),
    ("fbl", "required_sinr_table", "span"),
    ("noma", "solve_sic_rx2", "span"),
    ("noma", "solve_tin", "span"),
    ("noma", "solve_sic_rx1", "span"),
    ("noma", "solve_noma", "span"),
    ("tdma", "solve_tdma", "span"),
    ("montecarlo", "draw_channel_batch", "span"),
    ("montecarlo", "run_trials", "span"),
    ("cli", "main", "span"),
)

#: A call with at least one call of its probe beneath it did work instead
#: of answering from a cache; it counts as a miss.
MISS_PROBES = {
    "fbl.required_sinr": "fbl.blocklength_for_sinr",
    "fbl.required_sinr_table": "fbl.required_sinr",
}

NOMA_VERDICTS = (
    "power-budget-exceeded",
    "sic-product-ge-one",
    "rate-unreachable",
    "blocklength-window-empty",
)
TDMA_VERDICTS = ("power-budget-exceeded", "rate-unreachable", "blocklength-window-empty")
NOMA_WINNERS = ("sic-rx2", "tin", "sic-rx1")
FORMULATIONS = ("noma.solve_sic_rx2", "noma.solve_tin", "noma.solve_sic_rx1")

_clock = time.perf_counter_ns


class Tracer:
    def __init__(self):
        self.names: list[str] = []
        self.span_name = array("i")
        self.parent = array("q")
        self.instance = array("q")
        self.start = array("q")
        self.end = array("q")
        # per traced name: [calls, ns of "count" calls, misses, ns of misses]
        self.cells: dict[str, list[int]] = {}
        self.raised = Counter()  # "name:ExceptionType"
        self.outcomes = Counter()  # "noma.verdict.x", "tdma.winner.tdma", ...
        self.candidates = 0
        self.trial_cells = 0
        self.absent: list[str] = []
        self._stack = [-1]
        self._instance = -1
        self._installed: list[tuple[object, str, object]] = []

    # -- installation -------------------------------------------------

    def install(self, package) -> None:
        """Wrap every name in TRACED wherever a noma_fbl module holds it."""
        defining = {}
        for mod_name in dict.fromkeys(m for m, _, _ in TRACED):
            try:
                defining[mod_name] = importlib.import_module(f"{package.__name__}.{mod_name}")
            except ModuleNotFoundError:
                pass
        modules = [
            m
            for name, m in list(sys.modules.items())
            if m is not None and (name == package.__name__ or name.startswith(package.__name__ + "."))
        ]
        for mod_name, fn_name, kind in TRACED:
            name = f"{mod_name}.{fn_name}"
            original = getattr(defining.get(mod_name), fn_name, None)
            if original is None:
                self.absent.append(name)
                continue
            wrapper = self._counter(original, name) if kind == "count" else self._span(original, name)
            for module in modules:
                for attr, value in list(vars(module).items()):
                    if value is original:
                        setattr(module, attr, wrapper)
                        self._installed.append((module, attr, original))

    def uninstall(self) -> None:
        for module, attr, original in reversed(self._installed):
            setattr(module, attr, original)
        self._installed.clear()

    def _cell(self, name: str) -> list[int]:
        return self.cells.setdefault(name, [0, 0, 0, 0])

    def _counter(self, fn, name):
        cell = self._cell(name)

        def counted(*args, **kwargs):
            t0 = _clock()
            try:
                return fn(*args, **kwargs)
            finally:
                cell[1] += _clock() - t0
                cell[0] += 1

        return counted

    def _span(self, fn, name):
        nid = len(self.names)
        self.names.append(name)
        stack, cell = self._stack, self._cell(name)
        span_name, parent, instance = self.span_name, self.parent, self.instance
        start, end = self.start, self.end
        probe = self._cell(MISS_PROBES[name]) if name in MISS_PROBES else None
        observe = {
            "noma.solve_noma": self._observe_noma,
            "tdma.solve_tdma": self._observe_tdma,
            "montecarlo.run_trials": self._observe_run_trials,
        }.get(name)
        opens_instance = name == "noma.solve_noma"

        def spanned(*args, **kwargs):
            if opens_instance:
                self._instance += 1
            idx = len(start)
            span_name.append(nid)
            parent.append(stack[-1])
            instance.append(self._instance)
            start.append(0)
            end.append(0)
            cell[0] += 1
            before = probe[0] if probe else 0
            stack.append(idx)
            t0 = _clock()
            try:
                result = fn(*args, **kwargs)
            except Exception as exc:
                self.raised[f"{name}:{type(exc).__name__}"] += 1
                raise
            finally:
                t1 = _clock()
                stack.pop()
                start[idx] = t0
                end[idx] = t1
                if probe and probe[0] != before:
                    cell[2] += 1
                    cell[3] += t1 - t0
            if observe is not None:
                observe(args, result)
            return result

        return spanned

    # -- observers (read arguments and results of the program's calls) --

    def _observe_noma(self, args, outcome) -> None:
        a = outcome.allocation
        key = f"winner.{a.scheme.value}" if a is not None else f"verdict.{outcome.verdict.value}"
        self.outcomes[f"noma.{key}"] += 1

    def _observe_tdma(self, args, outcome) -> None:
        s1, s2 = args[1], args[2]
        self.candidates += max(0, min(s1.deadline, s2.deadline - s2.min_blocklength) - s1.min_blocklength + 1)
        a = outcome.allocation
        key = "feasible" if a is not None else f"verdict.{outcome.verdict.value}"
        self.outcomes[f"tdma.{key}"] += 1

    def _observe_run_trials(self, args, batch) -> None:
        cfg = args[0] if args else batch.config
        self.trial_cells += cfg.n_trials * len(cfg.d1_grid) * len(cfg.p_max_dbm_grid)

    # -- results ----------------------------------------------------------

    def span_times(self) -> dict[str, tuple[int, int, int]]:
        """Per span name: (calls, total ns, self ns).

        A span's self time is its duration minus the durations of its
        child spans; one thread runs them, so children never overlap.
        """
        dur = [e - s for s, e in zip(self.start, self.end)]
        child = [0] * len(dur)
        for j, p in enumerate(self.parent):
            if p >= 0:
                child[p] += dur[j]
        totals = {name: [0, 0, 0] for name in self.names}
        for j, nid in enumerate(self.span_name):
            t = totals[self.names[nid]]
            t[0] += 1
            t[1] += dur[j]
            t[2] += dur[j] - child[j]
        return {name: tuple(t) for name, t in totals.items()}

    def metrics(self) -> dict[str, float]:
        """The per-layer metrics this trace can give (import and overhead
        metrics come from run.py)."""
        spans = self.span_times()
        ns = 1e-9

        def cell(name):
            return self.cells.get(name, (0, 0, 0, 0))

        def ratio(num, den):
            return num / den if den else 0.0

        def span(name):
            return spans.get(name, (0, 0, 0))

        q_inv = cell("qfunc.q_inv")
        rs_calls, _, rs_misses, rs_miss_ns = cell("fbl.required_sinr")
        table_calls, _, table_misses, _ = cell("fbl.required_sinr_table")
        evals = cell("fbl.blocklength_for_sinr")[0]
        m = {
            "qfunc.q_inv.calls": q_inv[0],
            "qfunc.q_inv.time_s": q_inv[1] * ns,
            "fbl.required_sinr.calls": rs_calls,
            "fbl.required_sinr.misses": rs_misses,
            "fbl.required_sinr.hit_ratio": ratio(rs_calls - rs_misses, rs_calls),
            "fbl.required_sinr_table.calls": table_calls,
            "fbl.required_sinr_table.misses": table_misses,
            "fbl.root.evals": evals,
            "fbl.root.evals_per_miss": ratio(evals, rs_misses),
            "fbl.root.time_s": rs_miss_ns * ns,
        }
        for layer, fn in (("noma", "solve_noma"), ("tdma", "solve_tdma")):
            n, total, own = span(f"{layer}.{fn}")
            raised = sum(v for k, v in self.raised.items() if k.startswith(f"{layer}.{fn}:"))
            feasible = sum(
                v for k, v in self.outcomes.items()
                if k.startswith(f"{layer}.winner.") or k == f"{layer}.feasible"
            )
            m.update(
                {
                    f"{layer}.{fn}.calls": n,
                    f"{layer}.{fn}.time_s": total * ns,
                    f"{layer}.{fn}.self_us": ratio(own * 1e-3, n),
                    f"{layer}.feasible_ratio": ratio(feasible, n),
                    f"{layer}.raised": raised,
                }
            )
        n_noma = span("noma.solve_noma")[0]
        m["noma.formulations_per_solve"] = ratio(sum(span(f)[0] for f in FORMULATIONS), n_noma)
        for v in NOMA_VERDICTS:
            m[f"noma.verdict.{v}"] = self.outcomes[f"noma.verdict.{v}"]
        for w in NOMA_WINNERS:
            m[f"noma.winner.{w}"] = self.outcomes[f"noma.winner.{w}"]
        m["tdma.candidates"] = self.candidates
        for v in TDMA_VERDICTS:
            m[f"tdma.verdict.{v}"] = self.outcomes[f"tdma.verdict.{v}"]
        _, mc_total, mc_self = span("montecarlo.run_trials")
        _, cli_total, cli_self = span("cli.main")
        m.update(
            {
                "montecarlo.run_trials.time_s": mc_total * ns,
                "montecarlo.run_trials.self_s": mc_self * ns,
                "montecarlo.draw_channel_batch.time_s": span("montecarlo.draw_channel_batch")[1] * ns,
                "montecarlo.trial_cells": self.trial_cells,
                "cli.main.time_s": cli_total * ns,
                "cli.main.self_s": cli_self * ns,
            }
        )
        return m

    def write_spans(self, path, header: str) -> None:
        """Write the spans as TSV: name, start_ns, end_ns, parent, instance."""
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(f"# {header}\n")
            fh.write("name\tstart_ns\tend_ns\tparent\tinstance\n")
            names = self.names
            for row in zip(self.span_name, self.start, self.end, self.parent, self.instance):
                fh.write(f"{names[row[0]]}\t{row[1]}\t{row[2]}\t{row[3]}\t{row[4]}\n")
