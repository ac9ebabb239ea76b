"""Span recording around the library's public functions, from outside.

Tracer.install() replaces each public function of the layer modules with a
wrapper, in every gefdesign module namespace that holds it, so calls through
`partial(eval_gef, ...)` or a module-global lookup reach the wrapper.  Each
call records a span: name, start, end, parent span, and a count (points
evaluated for the core eval functions).  Spans stay in memory; `save` writes
them out when the run ends.  Untraced runs never import this module.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import json
import sys
import time
from array import array
from collections import defaultdict

import numpy as np

from gen import ROWS

LAYERS = ("cli", "core", "characteristics", "design", "harness", "digital", "filterbank")

# private helpers the per-layer counters need; everything public is wrapped too
EXTRA = {"design": ("_solve_decreasing",)}

RESIDUAL_FNS = ("design.qerb_over_delay", "design.qn_over_delay")
EVAL_FNS = ("core.eval_gef", "core.eval_sharp", "core.eval_v")

# _solve_decreasing evaluates its residual at 257 grid points when the seeded
# bracket fails; a solve that stays on the seeded bracket evaluates it at two
# points plus the Brent iterations, far fewer.
SCAN_MIN_EVALS = 257

SUBCOMMANDS = ("design", "analyze", "discretize", "response", "filter", "bank", "evaluate")


def _per_layer() -> list[tuple[str, str, str]]:
    """(name, unit, better) of every per-layer metric, in report order."""
    out = [("cli.interp_start_ms", "ms", "lower"), ("cli.import_ms", "ms", "lower")]
    out += [(f"cli.run_ms.{sub}", "ms", "lower") for sub in SUBCOMMANDS]
    out += [("core.eval_gef.calls", "count", "lower"), ("core.eval_gef.points", "count", "lower"),
            ("core.eval_gef.ms", "ms", "lower"),
            ("core.peak_beta.calls", "count", "lower"), ("core.peak_beta.ms", "ms", "lower")]
    for fn in ("closed_form", "default_grid", "extract_numeric"):
        out += [(f"characteristics.{fn}.calls", "count", "lower"),
                (f"characteristics.{fn}.ms", "ms", "lower")]
    out.append(("characteristics.extract_numeric.scalar_evals_per_call", "count", "lower"))
    for row in ROWS:
        out += [(f"design.design.{row}.calls", "count", "lower"),
                (f"design.design.{row}.ms", "ms", "lower")]
    out += [("design.residual_evals_per_solve", "count", "lower"),
            ("design.bracket_scans", "count", "lower")]
    out += [(f"harness.{fn}.ms", "ms", "lower") for fn in ("evaluate_case", "sweep", "figure_report")]
    out.append(("harness.sweep.feasible_ratio", "ratio", "higher"))
    out += [(f"digital.{fn}.ms", "ms", "lower")
            for fn in ("to_sos", "apply_sos", "apply_fft", "read_wav", "write_wav")]
    out += [("digital.apply_fft.nfft_over_n", "ratio", "lower"),
            ("digital.apply_fft.bytes_per_sample", "B", "lower"),
            ("digital.apply_sos.bytes_per_sample", "B", "lower")]
    out += [(f"filterbank.{fn}.ms", "ms", "lower") for fn in
            ("build_constant_q_bank", "bank_response_rows", "multiband_response", "crosstalk_report")]
    out += [(f"{layer}.self_ms", "ms", "lower") for layer in LAYERS]
    out += [("trace.spans", "count", "lower"), ("trace.overhead_pct", "%", "lower")]
    return out


PER_LAYER = _per_layer()


def layer_modules() -> dict:
    """Layer name -> module.  `gefdesign.design` is reached through
    importlib because the package attribute of that name is the function."""
    return {name: importlib.import_module(f"gefdesign.{name}") for name in LAYERS}


class Tracer:
    """Holds the spans of one traced phase."""

    def __init__(self):
        self.names: list[str] = []
        self._name_ids: dict[str, int] = {}
        self.name_id = array("i")
        self.start = array("d")
        self.end = array("d")
        self.parent = array("i")
        self.count = array("d")
        self._stack: list[int] = []
        self._patched: list[tuple] = []
        self.notes: dict[str, list] = defaultdict(list)

    # -- recording ---------------------------------------------------------

    def _intern(self, name: str) -> int:
        nid = self._name_ids.get(name)
        if nid is None:
            nid = self._name_ids[name] = len(self.names)
            self.names.append(name)
        return nid

    def _wrap(self, name: str, fn, count_fn=None, name_fn=None):
        fixed_id = self._intern(name)
        stack = self._stack
        clock = time.perf_counter

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            nid = fixed_id if name_fn is None else self._intern(name_fn(args, kwargs))
            idx = len(self.start)
            self.name_id.append(nid)
            self.parent.append(stack[-1] if stack else -1)
            self.count.append(0.0 if count_fn is None else count_fn(args, kwargs))
            self.end.append(0.0)
            stack.append(idx)
            self.start.append(clock())
            try:
                return fn(*args, **kwargs)
            finally:
                self.end[idx] = clock()
                stack.pop()

        return wrapper

    def install(self) -> None:
        """Wrap every public function of every layer, and the extras."""
        mods = layer_modules()
        namespaces = [m for key, m in sys.modules.items() if key.split(".")[0] == "gefdesign"]
        for layer, mod in mods.items():
            names = [
                key
                for key, obj in vars(mod).items()
                if inspect.isfunction(obj)
                and obj.__module__ == mod.__name__
                and not key.startswith("_")
            ]
            names += list(EXTRA.get(layer, ()))
            for key in names:
                original = getattr(mod, key)
                span = f"{layer}.{key}"
                wrapper = self._wrap(span, original, *_hooks(span))
                for ns in namespaces:
                    for attr, value in list(vars(ns).items()):
                        if value is original:
                            setattr(ns, attr, wrapper)
                            self._patched.append((ns, attr, original))

    def note(self, key: str, value) -> None:
        self.notes[key].append(value)

    def uninstall(self) -> None:
        for ns, attr, original in reversed(self._patched):
            setattr(ns, attr, original)
        self._patched.clear()

    # -- analysis ----------------------------------------------------------

    def arrays(self) -> dict:
        names = np.asarray(self.name_id, dtype=np.int32)
        start = np.asarray(self.start)
        end = np.asarray(self.end)
        parent = np.asarray(self.parent, dtype=np.int64)
        count = np.asarray(self.count)
        dur = end - start
        has_parent = parent >= 0
        child = np.bincount(parent[has_parent], weights=dur[has_parent], minlength=dur.size)
        return {
            "name": names, "start": start, "end": end, "parent": parent,
            "count": count, "dur": dur, "self": dur - child,
        }

    def save(self, path) -> None:
        """Write the spans (compressed numpy arrays plus the name table)."""
        a = self.arrays()
        np.savez_compressed(
            path,
            names=np.array(json.dumps(self.names)),
            name=a["name"], start=a["start"], end=a["end"],
            parent=a["parent"], count=a["count"],
        )


def _beta_points(args, kwargs):
    beta = args[1] if len(args) > 1 else kwargs.get("beta")
    return float(np.size(beta))


def _signal_samples(args, kwargs):
    signal = args[-1] if args else kwargs["signal"]
    return float(signal.samples.size)


def _cli_subcommand_name(args, kwargs):
    argv = args[0] if args else kwargs.get("argv")
    return f"cli.run.{argv[0]}"


def _design_row_name(args, kwargs):
    spec = args[0] if args else kwargs["spec"]
    return f"design.design.{spec.row.value}"


def _hooks(span: str):
    """(count_fn, name_fn) for a span: the core eval functions count the
    points they evaluate, the filtering functions the signal samples, and
    `design` and `cli.run` spans carry the design row and the subcommand in
    their names."""
    if span in EVAL_FNS:
        return _beta_points, None
    if span == "design.design":
        return None, _design_row_name
    if span == "cli.run":
        return None, _cli_subcommand_name
    if span in ("digital.apply_fft", "digital.apply_sos"):
        return _signal_samples, None
    return None, None


def _stat(values, fn=np.median) -> float:
    return float(fn(values)) if len(values) else 0.0


def layer_metrics(tracer: Tracer) -> dict:
    """Per-layer metrics from the recorded spans (see BENCHMARK.json)."""
    a = tracer.arrays()
    names = tracer.names
    idx_of = {name: np.flatnonzero(a["name"] == nid) for nid, name in enumerate(names)}
    empty = np.zeros(0, dtype=np.int64)

    def ids(name):
        return idx_of.get(name, empty)

    def calls(name):
        return float(ids(name).size)

    def total_ms(name):
        return float(a["dur"][ids(name)].sum() * 1e3)

    def children(parents, child_names):
        """Number of direct child spans of each parent span with the names."""
        kids = np.concatenate([ids(name) for name in child_names])
        up = a["parent"][kids]
        per = np.bincount(up[up >= 0], minlength=a["name"].size)
        return per[parents]

    m = {}
    for sub in SUBCOMMANDS:
        m[f"cli.run_ms.{sub}"] = _stat(a["dur"][ids(f"cli.run.{sub}")]) * 1e3
    for name in ("core.eval_gef", "core.peak_beta"):
        m[f"{name}.calls"] = calls(name)
        m[f"{name}.ms"] = total_ms(name)
    m["core.eval_gef.points"] = float(a["count"][ids("core.eval_gef")].sum())

    for fn in ("closed_form", "default_grid", "extract_numeric"):
        m[f"characteristics.{fn}.calls"] = calls(f"characteristics.{fn}")
        m[f"characteristics.{fn}.ms"] = total_ms(f"characteristics.{fn}")

    # extract_numeric calls the response it is given directly, so its scalar
    # evaluations are eval spans (one point each) whose parent it is
    extract = ids("characteristics.extract_numeric")
    evals = np.concatenate([ids(name) for name in EVAL_FNS])
    scalar_parents = a["parent"][evals[a["count"][evals] == 1.0]]
    m["characteristics.extract_numeric.scalar_evals_per_call"] = (
        float(np.isin(scalar_parents, extract).sum()) / extract.size if extract.size else 0.0
    )

    for row in ROWS:
        m[f"design.design.{row}.calls"] = calls(f"design.design.{row}")
        m[f"design.design.{row}.ms"] = total_ms(f"design.design.{row}")
    solves = ids("design._solve_decreasing")
    per_solve = children(solves, RESIDUAL_FNS)
    m["design.residual_evals_per_solve"] = _stat(per_solve, np.mean)
    m["design.bracket_scans"] = float(np.sum(per_solve >= SCAN_MIN_EVALS))

    for fn in ("evaluate_case", "sweep", "figure_report"):
        m[f"harness.{fn}.ms"] = total_ms(f"harness.{fn}")
    cells = tracer.notes["sweep_cells"]  # (feasible, total) per sweep
    m["harness.sweep.feasible_ratio"] = (
        sum(f for f, _ in cells) / sum(n for _, n in cells) if cells else 0.0
    )

    for fn in ("to_sos", "apply_sos", "apply_fft", "read_wav", "write_wav"):
        m[f"digital.{fn}.ms"] = total_ms(f"digital.{fn}")
    # the response apply_fft samples has nfft/2 + 1 bins: one eval_gef child
    ffts = ids("digital.apply_fft")
    n = a["count"][ffts].sum()
    bins = a["count"][ids("core.eval_gef")]
    bins = bins[np.isin(a["parent"][ids("core.eval_gef")], ffts)]
    nfft = 2.0 * (bins - 1.0)
    m["digital.apply_fft.nfft_over_n"] = float(nfft.sum() / n) if n else 0.0
    m["digital.apply_fft.bytes_per_sample"] = (
        float(sum(fft_bytes(k) for k in nfft) + FFT_BYTES_PER_SAMPLE * n) / n if n else 0.0
    )
    n_sos = a["count"][ids("digital.apply_sos")].sum()
    m["digital.apply_sos.bytes_per_sample"] = SOS_BYTES_PER_SAMPLE if n_sos else 0.0

    for fn in ("build_constant_q_bank", "bank_response_rows", "multiband_response",
               "crosstalk_report"):
        m[f"filterbank.{fn}.ms"] = total_ms(f"filterbank.{fn}")

    layer_of = np.array([n.split(".")[0] for n in names] or [""], dtype=object)
    span_layer = layer_of[a["name"]] if a["name"].size else np.zeros(0, dtype=object)
    for layer in LAYERS:
        m[f"{layer}.self_ms"] = float(a["self"][span_layer == layer].sum() * 1e3)
    m["trace.spans"] = float(a["name"].size)
    return m


# Bytes moved, computed from array sizes rather than measured: apply_fft
# reads the float64 input and writes its n-sample output copy (16 B a
# sample), and per transform writes and reads the nfft-point padded input and
# inverse (float64) and the spectrum, response and product (complex128,
# nfft/2 + 1 bins each).  apply_sos reads the input, writes the sosfilt output
# and the gain-scaled copy: 32 B a sample, whatever the section count, since
# the cascade state stays in registers.
FFT_BYTES_PER_SAMPLE = 16.0
SOS_BYTES_PER_SAMPLE = 32.0


def fft_bytes(nfft: float) -> float:
    bins = nfft / 2.0 + 1.0
    return 2 * (8.0 * nfft + 8.0 * nfft) + 2 * 3 * 16.0 * bins
