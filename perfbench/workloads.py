"""The three workloads: set-up, the timed loop, and the metrics of a run.

All are closed loops with one client on one thread.  Each loop looks the
library's functions up on their modules at call time, so a traced run's
wrappers see every call.  Output checks run outside the timed regions.
"""

from __future__ import annotations

import contextlib
import hashlib
import importlib
import io
import json
import math
import os
import statistics
import subprocess
import sys
import threading
import time
from collections import defaultdict
from pathlib import Path

import checks
import gen
from speed import Speed

CLI_TIMEOUT_S = 120
MARK_WINDOW = 6
# bank exports per signal round: one export varies by about 10% (it builds
# 262144 row tuples), so a run needs about twenty for a steady median
BANK_EXPORTS = 3
CLI_CALLS = 2000


class Lib:
    """The library's modules, looked up once; functions are read off them at
    call time."""

    def __init__(self):
        for name in ("core", "design", "harness", "digital", "filterbank", "cli"):
            setattr(self, name, importlib.import_module(f"gefdesign.{name}"))


class Samples:
    """What one timed loop saw: latencies per operation kind (seconds), each
    with the machine-speed factor around it, work counts, and failed
    operations with their causes."""

    def __init__(self, speed: Speed):
        self.speed = speed
        self._marks: list[float] = []
        self._lat = defaultdict(list)
        self.work = defaultdict(float)
        self.attempted = 0
        self.failures: list[str] = []
        self.digests: dict[str, "hashlib._Hash"] = {}
        self.child_rss_kb: list[int] = []

    def mark(self) -> None:
        """Probe the machine speed between operations."""
        self._marks.append(self.speed.probe())

    def record(self, kind: str, seconds: float, problems: list[str], label: str) -> None:
        self._lat[kind].append((seconds, len(self._marks) - 1))
        self.attempted += 1
        if problems:
            self.failures.append(f"{label}: {'; '.join(problems)}")

    def kinds(self) -> list[str]:
        return list(self._lat)

    def raw(self, kind: str) -> list[float]:
        return [seconds for seconds, _ in self._lat[kind]]

    def lat(self, kind: str) -> list[float]:
        """Latencies of a kind, normalized to nominal machine speed by the
        median factor of the MARK_WINDOW marks around each: one probe is
        noisy, and the drift it tracks changes over seconds."""
        marks = self._marks
        half = MARK_WINDOW // 2
        return [
            seconds / statistics.median(marks[max(0, m + 1 - half):m + 1 + half])
            for seconds, m in self._lat[kind]
        ]

    def digest(self, kind: str, data: bytes) -> None:
        self.digests.setdefault(kind, hashlib.sha256()).update(data)


def median(values) -> float:
    return statistics.median(values)


def tail(values) -> tuple[float, float]:
    """(value, percentile) of the highest percentile with at least ten samples
    beyond it.  With 20 samples or fewer no percentile above the median has
    ten beyond it, and the median is returned."""
    ordered = sorted(values)
    n = len(ordered)
    k = n - 11
    if k < n / 2:
        return median(ordered), 50.0
    return ordered[k], 100.0 * (k + 1) / n


def _until(seconds: float):
    """Yield round numbers until the time is up (always at least one)."""
    end = time.perf_counter() + seconds
    index = 0
    while index == 0 or time.perf_counter() < end:
        yield index
        index += 1


class Workload:
    name = ""

    def __init__(self, lib: Lib, root: Path):
        self.lib = lib
        self.speed = Speed()

    def setup(self, seed: int, workdir: Path) -> None:
        raise NotImplementedError

    def run(self, seconds: float, in_process: bool = True, tracer=None) -> Samples:
        """Closed loop for about `seconds`; in_process selects in-process CLI
        calls (cli-cold only); tracer receives notes in a traced run."""
        raise NotImplementedError

    def metrics(self, s: Samples) -> dict:
        """op (normalized op latencies), op_tail, work_per_s, named."""
        raise NotImplementedError


# ---------------------------------------------------------------------------
# cli-cold
# ---------------------------------------------------------------------------


class CliCold(Workload):
    name = "cli-cold"

    def __init__(self, lib: Lib, root: Path):
        super().__init__(lib, root)
        self.env = dict(os.environ)
        self.env["PYTHONPATH"] = str(root / "src")

    def setup(self, seed: int, workdir: Path) -> None:
        files = gen.cli_files(seed)
        for name, doc in files["json"].items():
            (workdir / name).write_text(json.dumps(doc))
        digital = self.lib.digital
        digital.write_wav(workdir / "in.wav", digital.SignalBuffer(gen.FS, files["wav"]))
        theta = self.lib.core.FilterConstants.from_dict(files["json"]["c0.json"]["constants"])
        digital.save_filter(digital.to_sos(theta, files["sos_peak_hz"], gen.FS), workdir / "filter.json")
        self.workdir = workdir
        self.calls = gen.cli_calls(seed, CLI_CALLS)

    def _spawn(self, argv) -> tuple:
        """One `python -m gefdesign.cli` process: (exit code, wall seconds,
        stderr text, child max RSS in KiB)."""
        out_path, err_path = self.workdir / "stdout.txt", self.workdir / "stderr.txt"
        with open(out_path, "wb") as out, open(err_path, "wb") as err:
            start = time.perf_counter()
            proc = subprocess.Popen(
                [sys.executable, "-m", "gefdesign.cli", *argv],
                cwd=self.workdir, env=self.env, stdout=out, stderr=err,
            )
            watchdog = threading.Timer(CLI_TIMEOUT_S, proc.kill)
            watchdog.start()
            try:
                _, status, usage = os.wait4(proc.pid, 0)
            finally:
                watchdog.cancel()
            elapsed = time.perf_counter() - start
        proc.returncode = code = os.waitstatus_to_exitcode(status)
        return code, elapsed, err_path.read_text(), usage.ru_maxrss

    def _in_process(self, argv) -> tuple:
        """cli.run in this process, same working directory and streams
        captured: (exit code, wall seconds, stderr text)."""
        err = io.StringIO()
        cwd = os.getcwd()
        os.chdir(self.workdir)
        try:
            with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
                start = time.perf_counter()
                code = self.lib.cli.run(argv)
                elapsed = time.perf_counter() - start
        finally:
            os.chdir(cwd)
        return code, elapsed, err.getvalue()

    def run(self, seconds: float, in_process: bool = False, tracer=None) -> Samples:
        s = Samples(self.speed)
        for i in _until(seconds):
            s.mark()
            call = self.calls[i % len(self.calls)]
            out = self.workdir / call["out"] if call["out"] else None
            if out is not None and out.exists():
                out.unlink()
            if in_process:
                code, elapsed, stderr = self._in_process(call["argv"])
            else:
                code, elapsed, stderr, rss_kb = self._spawn(call["argv"])
                s.child_rss_kb.append(rss_kb)
            label = f"call {i} {' '.join(call['argv'])}"
            if call["expect"] != 0:
                problems = checks.cli_refusal(code, call["expect"], stderr)
                s.digest("refusal", stderr.encode())
            elif code != 0:
                problems = [f"exit {code}: {stderr[:200]!r}"]
            else:
                data = out.read_bytes()
                kind = call["kind"] + (f"-{call['format']}" if "format" in call else "")
                s.digest(kind, data)
                problems = checks.cli_output(call, "" if kind == "filter" else data.decode(), self.workdir)
            s.record(call["kind"], elapsed, problems, label)
        s.mark()
        return s

    def metrics(self, s: Samples) -> dict:
        calls = [t for kind in s.kinds() for t in s.lat(kind)]
        value, pct = tail(calls)
        return {
            "op": calls,
            "op_raw": [t for kind in s.kinds() for t in s.raw(kind)],
            "op_tail": (value, pct),
            "work_per_s": len(calls) / sum(calls),
            "peak_rss_kb": max(s.child_rss_kb) if s.child_rss_kb else 0,
            "named": {
                "cli_call_ms_p50": (1e3 * median(calls), "ms"),
                "cli_call_ms_tail": (1e3 * value, f"ms (p{pct:.0f} of {len(calls)})"),
            },
        }


# ---------------------------------------------------------------------------
# audit
# ---------------------------------------------------------------------------


class Audit(Workload):
    name = "audit"

    def setup(self, seed: int, workdir: Path) -> None:
        self.seed = seed
        self.rounds = [gen.audit_round(seed, 0)]

    def _round(self, index: int) -> dict:
        while len(self.rounds) <= index:
            self.rounds.append(gen.audit_round(self.seed, len(self.rounds)))
        return self.rounds[index]

    def run(self, seconds: float, in_process: bool = True, tracer=None) -> Samples:
        s = Samples(self.speed)
        design_mod, harness = self.lib.design, self.lib.harness
        warm = self._round(0)
        for spec_dict in warm["specs"][:len(gen.ROWS)]:  # untimed: one case per row, one sweep
            harness.evaluate_case(design_mod.CharacteristicSpec.from_dict(spec_dict))
        harness.sweep(warm["q_axis"], warm["n_axis"])
        for r in _until(seconds):
            s.mark()
            inputs = self._round(r)
            for k, spec_dict in enumerate(inputs["specs"]):
                spec = design_mod.CharacteristicSpec.from_dict(spec_dict)
                start = time.perf_counter()
                try:
                    records = harness.evaluate_case(spec)
                except Exception as exc:  # a failed operation, not a crash
                    s.record("case", time.perf_counter() - start, [repr(exc)], f"round {r} case {k}")
                    continue
                elapsed = time.perf_counter() - start
                desired = records[0].desired  # closed forms of the designed constants
                problems = checks.trio_report(spec_dict, desired)
                # a_p / b_p from N = b_u / (2 pi a_p) and phi_accum = b_u / 2
                ratio = desired.phi_accum / (math.pi * desired.n_beta * desired.beta_peak)
                errors = {rec.target: rec.errors for rec in records}
                problems += checks.extraction(
                    {t: errors[t] for t in checks.held_targets(ratio)}
                )
                s.record("case", elapsed, problems, f"round {r} case {k} {spec_dict}")
            s.mark()
            q_axis, n_axis = inputs["q_axis"], inputs["n_axis"]
            start = time.perf_counter()
            result = harness.sweep(q_axis, n_axis)
            elapsed = time.perf_counter() - start
            problems, feasible = checks.sweep(result, q_axis, n_axis)
            cells = len(q_axis) * len(n_axis)
            s.record("sweep", elapsed, problems, f"round {r} sweep")
            s.work["cells"] += cells
            if tracer is not None:
                tracer.note("sweep_cells", (feasible, cells))
        s.mark()
        return s

    def metrics(self, s: Samples) -> dict:
        """The op is one round's 14 evaluate_case calls.  A single call's tail
        (about p99 of some 1400) follows half-second slow spells of the host
        and moved 15% between runs; a round's tail (about p90 of some 100)
        does not."""
        cases, raw = s.lat("case"), s.raw("case")
        per_round = len(gen.ROWS) * 2
        batches = [sum(cases[i:i + per_round]) for i in range(0, len(cases), per_round)]
        value, pct = tail(batches)
        case_tail, case_pct = tail(cases)
        cells_per_s = s.work["cells"] / sum(s.lat("sweep"))
        return {
            "op": batches,
            "op_raw": [sum(raw[i:i + per_round]) for i in range(0, len(raw), per_round)],
            "op_tail": (value, pct),
            "work_per_s": cells_per_s,
            "named": {
                "audit_case_ms_p50": (1e3 * median(cases), "ms"),
                "audit_case_ms_tail": (1e3 * case_tail, f"ms (p{case_pct:.1f} of {len(cases)})"),
                "audit_round_ms_p50": (1e3 * median(batches), "ms"),
                "audit_round_ms_tail": (1e3 * value, f"ms (p{pct:.0f} of {len(batches)})"),
                "sweep_cells_per_s": (cells_per_s, "1/s"),
            },
        }


# ---------------------------------------------------------------------------
# signal
# ---------------------------------------------------------------------------


class Signal(Workload):
    name = "signal"

    def setup(self, seed: int, workdir: Path) -> None:
        inputs = gen.signal_inputs(seed)
        lib = self.lib
        self.clips = [
            dict(clip, signal=lib.digital.SignalBuffer(gen.FS, clip["samples"]),
                 spec_obj=lib.design.CharacteristicSpec.from_dict(clip["spec"]),
                 slot=f"{clip['path']}-{clip['seconds']:g}s")
            for clip in inputs["clips"]
        ]
        bank = inputs["bank"]
        self.bank = dict(
            bank,
            spec_obj=lib.design.CharacteristicSpec.from_dict(bank["spec"]),
            cf_map=lib.filterbank.CfMap(cf0=bank["cf0"], l=bank["l"], x_max=bank["x_max"]),
        )
        self.bank["places"] = lib.filterbank.uniform_places(self.bank["cf_map"], bank["channels"])
        self.multiband = dict(
            inputs["multiband"],
            spec_obj=lib.filterbank.multiband_from_dict(inputs["multiband"]),
        )

    def _clip(self, clip) -> tuple:
        lib = self.lib
        start = time.perf_counter()
        try:
            theta = lib.design.design(clip["spec_obj"])
            if clip["path"] == "sos":
                filt = lib.digital.to_sos(theta, clip["f_peak"], gen.FS)
                out = lib.digital.apply_sos(filt, clip["signal"])
            else:
                filt = None
                unit = lib.core.normalized_to_peak(theta)
                out = lib.digital.apply_fft(unit, clip["f_peak"], gen.FS, clip["signal"])
        except Exception as exc:  # a failed operation, not a crash
            return time.perf_counter() - start, [repr(exc)]
        elapsed = time.perf_counter() - start
        problems = checks.signal(out.samples, clip["signal"].samples.size)
        if filt is not None:
            problems += checks.sos_peak(filt, clip["f_peak"])
        return elapsed, problems

    def run(self, seconds: float, in_process: bool = True, tracer=None) -> Samples:
        s = Samples(self.speed)
        fb = self.lib.filterbank
        bank, mb = self.bank, self.multiband
        for clip in self.clips[:2]:  # untimed: the two shortest clips, a bank, a multiband
            self._clip(clip)
        fb.bank_response_rows(fb.build_constant_q_bank(bank["cf_map"], bank["places"], bank["spec_obj"]),
                              bank["freqs"])
        fb.crosstalk_report(mb["spec_obj"])
        for r in _until(seconds):
            for clip in self.clips:
                s.mark()
                elapsed, problems = self._clip(clip)
                s.record(clip["slot"], elapsed, problems, f"round {r} clip {clip['slot']}")

            for b in range(BANK_EXPORTS):
                s.mark()
                start = time.perf_counter()
                channels = fb.build_constant_q_bank(bank["cf_map"], bank["places"], bank["spec_obj"])
                rows = fb.bank_response_rows(channels, bank["freqs"])
                elapsed = time.perf_counter() - start
                problems = checks.bank_rows(rows, bank["channels"] * bank["freqs"].size)
                s.record("bank", elapsed, problems, f"round {r} bank {b}")
                s.work["bank_rows"] += len(rows)
                del rows

            s.mark()
            start = time.perf_counter()
            response = fb.multiband_response(mb["spec_obj"], mb["freqs"])
            crosstalk = fb.crosstalk_report(mb["spec_obj"])
            elapsed = time.perf_counter() - start
            problems = checks.signal(response, mb["freqs"].size)
            problems += checks.crosstalk(crosstalk, len(mb["bands"]))
            s.record("multiband", elapsed, problems, f"round {r} multiband")
        s.mark()
        return s

    def metrics(self, s: Samples) -> dict:
        path_rates = {}
        for path in ("sos", "fft"):
            clips = [c for c in self.clips if c["path"] == path]
            audio = sum(c["seconds"] * len(s.lat(c["slot"])) for c in clips)
            path_rates[path] = (audio, sum(sum(s.lat(c["slot"])) for c in clips))
        audio = sum(a for a, _ in path_rates.values())
        wall = sum(w for _, w in path_rates.values())
        bank = s.lat("bank")
        value, pct = tail(bank)
        return {
            "op": bank,
            "op_raw": s.raw("bank"),
            "op_tail": (value, pct),
            "work_per_s": audio / wall,
            "named": {
                "sos_audio_x_realtime": (path_rates["sos"][0] / path_rates["sos"][1], "s/s"),
                "fft_audio_x_realtime": (path_rates["fft"][0] / path_rates["fft"][1], "s/s"),
                "bank_rows_per_s": (s.work["bank_rows"] / sum(bank), "1/s"),
                "bank_ms_p50": (1e3 * median(bank), "ms"),
                "bank_ms_tail": (1e3 * value, f"ms (p{pct:.0f} of {len(bank)})"),
                "multiband_ms_p50": (1e3 * median(s.lat("multiband")), "ms"),
            },
        }


WORKLOADS = {cls.name: cls for cls in (CliCold, Audit, Signal)}
