"""Seeded input generator for the three workloads.

Everything a workload feeds the library comes from here and depends only on
the seed.  The generator builds plain data (constants, trio values, argument
lists, sample arrays); the workloads turn it into library calls.  The shape of
each workload is fixed (which rows, how many infeasible sweep cells, which
clip lengths and exponents), and the seed varies the values inside it, so the
work per run is the same for every seed.
"""

from __future__ import annotations

import math
import random

import numpy as np

ROWS = ("II.1", "II.2", "II.3", "II.4", "II.5", "II.6", "II.7")
QN_LEVEL_DB = 10.0

# audit: a_p / b_p stays inside the sharp domain a_p < 0.2 b_p
AUDIT_AP_RATIO = (0.01, 0.19)
AUDIT_BU = (1.5, 20.0)
AUDIT_BP = (0.5, 2.0)

# sweep axes: N in [14, 20] and four Q_erb values in [20, 28] keep Q_erb / N
# in [1, 2], inside the range (0.44, 2.10) the exact delay+Q_erb solve can
# reach on its exponent bracket [1, 64], with b_u <= 13 so a_p < 0.2.  One Q_erb value below 0.36 * min(N) and one above
# 2.2 * max(N) make two rows of six infeasible: 12 of 36 cells every sweep.
SWEEP_N = (14.0, 20.0)
SWEEP_Q_FEASIBLE = (20.0, 28.0)
SWEEP_Q_LOW = (3.0, 5.0)
SWEEP_Q_HIGH = (45.0, 60.0)
SWEEP_SIZE = 6

# signal: clip lengths from 1 s (fits a 4 MiB L2) to 60 s (the FFT working set
# of several hundred MiB passes a 300 MiB L3); one integer-exponent clip
# (biquad cascade) and one non-integer clip (FFT) per length
FS = 48000.0
CLIP_SECONDS = (1.0, 2.0, 4.0, 8.0, 15.0, 30.0, 60.0)
CLIP_SECTIONS = (2, 3, 4, 5, 6, 7, 8)
BANK_CHANNELS = 64
BANK_FREQS = 4096
MULTIBAND_BANDS = 16

CLI_WAV_SECONDS = 1.0
CLI_BANK_CHANNELS = 16


def _rng(seed: int, stream: str) -> random.Random:
    """Independent stdlib stream per purpose, so adding draws to one stream
    leaves the others unchanged."""
    return random.Random(f"{seed}:{stream}")


def _np_rng(seed: int, stream: str) -> np.random.Generator:
    return np.random.default_rng([seed, sum(map(ord, stream))])


def constants(rng: random.Random, integer_bu: bool | None = None) -> tuple:
    """(a_p, b_p, b_u) with a_p < 0.2 b_p and b_u in [1.5, 20].

    integer_bu None draws integer and non-integer exponents alike."""
    b_p = rng.uniform(*AUDIT_BP)
    a_p = rng.uniform(*AUDIT_AP_RATIO) * b_p
    if integer_bu is None:
        integer_bu = rng.random() < 0.5
    if integer_bu:
        b_u = float(rng.randint(2, 20))
    else:
        b_u = rng.uniform(*AUDIT_BU)
        if b_u == round(b_u):
            b_u += 0.25
    return a_p, b_p, b_u


def trio(row: str, a_p: float, b_p: float, b_u: float) -> dict:
    """Spec dict (CharacteristicSpec.from_dict layout) whose trio the given
    constants realize, from the closed forms written out here."""
    n_cycles = b_u / (2.0 * math.pi * a_p)
    phi_accum = 0.5 * b_u
    q_erb = b_p * math.exp(math.lgamma(b_u) - math.lgamma(b_u - 0.5)) / (
        math.sqrt(math.pi) * a_p
    )
    q_n = b_p / (2.0 * a_p * math.sqrt(10.0 ** (QN_LEVEL_DB / (10.0 * b_u)) - 1.0))
    s_beta = (20.0 / math.log(10.0)) * b_u / (a_p * a_p)
    values = {
        "II.1": {"n_cycles": n_cycles, "phi_accum": phi_accum},
        "II.2": {"n_cycles": n_cycles, "q_erb": q_erb},
        "II.3": {"q_erb": q_erb, "phi_accum": phi_accum},
        "II.4": {"q_n": q_n, "phi_accum": phi_accum},
        "II.5": {"s_beta": s_beta, "n_cycles": n_cycles},
        "II.6": {"s_beta": s_beta, "phi_accum": phi_accum},
        "II.7": {"q_n": q_n, "n_cycles": n_cycles},
    }[row]
    spec = {"row": row, "beta_peak": b_p, **values}
    if row in ("II.4", "II.7"):
        spec["n_level"] = QN_LEVEL_DB
    return spec


# ---------------------------------------------------------------------------
# audit
# ---------------------------------------------------------------------------


def audit_round(seed: int, index: int) -> dict:
    """One audit round: a spec per row with an integer exponent and one with a
    non-integer exponent (14 evaluate_case calls), and one 6 x 6 sweep."""
    rng = _rng(seed, f"audit:{index}")
    specs = []
    for integer_bu in (True, False):
        for row in ROWS:
            specs.append(trio(row, *constants(rng, integer_bu)))
    n_axis = sorted(rng.uniform(*SWEEP_N) for _ in range(SWEEP_SIZE))
    q_axis = sorted(
        [rng.uniform(*SWEEP_Q_FEASIBLE) for _ in range(SWEEP_SIZE - 2)]
        + [rng.uniform(*SWEEP_Q_LOW), rng.uniform(*SWEEP_Q_HIGH)]
    )
    return {"specs": specs, "q_axis": q_axis, "n_axis": n_axis}


# ---------------------------------------------------------------------------
# signal
# ---------------------------------------------------------------------------


def signal_inputs(seed: int) -> dict:
    """Noise clips and their filter specs, plus the bank and multiband specs.

    The clips are generated once per run and reused every round; each round
    designs, discretizes and filters all of them again."""
    rng = _rng(seed, "signal")
    noise = _np_rng(seed, "signal-noise")
    clips = []
    for seconds, sections in zip(CLIP_SECONDS, CLIP_SECTIONS):
        samples = noise.standard_normal(int(seconds * FS))
        for integer_bu in (True, False):
            a_p = rng.uniform(0.02, 0.08)
            b_u = float(sections) if integer_bu else sections + rng.uniform(0.1, 0.9)
            clips.append(
                {
                    "seconds": seconds,
                    "path": "sos" if integer_bu else "fft",
                    "spec": trio("II.1", a_p, 1.0, b_u),
                    "f_peak": rng.uniform(200.0, 4000.0),
                    "samples": samples,
                }
            )
    bank_a_p = rng.uniform(0.03, 0.08)
    bank = {
        "spec": trio("II.1", bank_a_p, 1.0, float(rng.randint(3, 8))),
        "cf0": rng.uniform(16000.0, 20000.0),
        "l": 1.0,
        "x_max": rng.uniform(3.0, 4.0),
        "channels": BANK_CHANNELS,
        "freqs": np.geomspace(20.0, 0.5 * FS, BANK_FREQS),
    }
    peaks = np.geomspace(100.0, 12000.0, MULTIBAND_BANDS) * np.exp(
        noise.uniform(-0.05, 0.05, MULTIBAND_BANDS)
    )
    bands = [
        {
            "f_peak_hz": float(f),
            "gain": rng.uniform(0.5, 2.0),
            "spec": trio("II.1", rng.uniform(0.03, 0.08), 1.0, float(rng.randint(2, 6))),
        }
        for f in peaks
    ]
    multiband = {"bands": bands, "freqs": np.geomspace(50.0, 20000.0, 2048)}
    return {"clips": clips, "bank": bank, "multiband": multiband}


# ---------------------------------------------------------------------------
# cli-cold
# ---------------------------------------------------------------------------


def _trio_flags(spec: dict) -> list[str]:
    flags = ["--peak-beta", repr(spec["beta_peak"])]
    names = {
        "n_cycles": "--gdelay-cycles",
        "phi_accum": "--phase-accum",
        "q_erb": "--qerb",
        "s_beta": "--convexity",
    }
    for key, value in spec.items():
        if key in names:
            flags += [names[key], repr(value)]
    if "q_n" in spec:
        flags += ["--qn", f"{spec['n_level']:g}:{spec['q_n']!r}"]
    return flags


def cli_files(seed: int) -> dict:
    """Contents of the input files the CLI calls read: constants documents
    (integer exponents, so they can be discretized), characteristic specs,
    and a 1 s noise signal.  The filter JSON for `filter --sos` is made by the
    library's own `discretize` at set-up."""
    rng = _rng(seed, "cli-files")
    docs = {}
    for k in range(4):
        theta = {"a_p": rng.uniform(0.01, 0.05), "b_p": 1.0, "b_u": float(rng.randint(2, 12))}
        docs[f"c{k}.json"] = {"constants": theta}
    for k in range(2):
        theta = {"a_p": rng.uniform(0.01, 0.05), "b_p": 1.0, "b_u": rng.randint(2, 11) + 0.5}
        docs[f"nonint{k}.json"] = {"constants": theta}
    for k in range(3):
        row = rng.choice(ROWS)
        docs[f"spec{k}.json"] = trio(row, rng.uniform(0.01, 0.05), 1.0, rng.uniform(2.0, 12.0))
    samples = _np_rng(seed, "cli-wav").standard_normal(int(CLI_WAV_SECONDS * FS)) * 0.1
    return {"json": docs, "wav": samples, "sos_peak_hz": rng.uniform(300.0, 3000.0)}


def cli_calls(seed: int, count: int) -> list[dict]:
    """A seeded sequence of CLI calls: each is {"kind", "argv", "expect",
    "out"}.  argv excludes the program; "out" names the output file the call
    writes (None for stdout only); expect is the exit code.  About one call in
    ten is a bad-usage or infeasible call."""
    rng = _rng(seed, "cli-calls")
    calls = []
    for i in range(count):
        out = f"out{i}"
        pick = rng.random()
        if pick < 0.1:
            calls.append(_bad_call(rng))
        elif pick < 0.4:
            row = rng.choice(ROWS)
            spec = trio(row, *constants(rng))
            argv = ["design", *_trio_flags(spec), "--out", f"{out}.json"]
            extra = rng.random()
            if extra < 0.25:
                argv.append("--integer-snap")
            elif row == "II.2" and extra < 0.6:
                argv += ["--mode", "approx"]
            calls.append(
                {"kind": "design", "argv": argv, "expect": 0, "out": f"{out}.json", "spec": spec}
            )
        elif pick < 0.5:
            fmt = rng.choice(("json", "csv"))
            src = rng.choice([["--constants", f"c{rng.randrange(4)}.json"],
                              ["--spec", f"spec{rng.randrange(3)}.json"]])
            calls.append(
                {"kind": "analyze", "argv": ["analyze", *src, "--format", fmt, "--out", f"{out}.{fmt}"],
                 "expect": 0, "out": f"{out}.{fmt}", "format": fmt, "source": src}
            )
        elif pick < 0.6:
            k = rng.randrange(4)
            peak = rng.uniform(100.0, 8000.0)
            calls.append(
                {"kind": "discretize",
                 "argv": ["discretize", "--constants", f"c{k}.json", "--peak-hz", repr(peak),
                          "--fs", repr(FS), "--out", f"{out}.json"],
                 "expect": 0, "out": f"{out}.json", "peak_hz": peak}
            )
        elif pick < 0.7:
            points = rng.choice((501, 1001, 2001))
            if rng.random() < 0.5:
                src = ["--sos", "filter.json"]
            else:
                src = ["--constants", f"nonint{rng.randrange(2)}.json", "--peak-hz", "1000"]
            calls.append(
                {"kind": "response",
                 "argv": ["response", *src, "--fmin", "50", "--fmax", "12000",
                          "--points", str(points), "--out", f"{out}.csv"],
                 "expect": 0, "out": f"{out}.csv", "points": points}
            )
        elif pick < 0.8:
            calls.append(
                {"kind": "filter", "argv": ["filter", "--sos", "filter.json", "in.wav", f"{out}.wav"],
                 "expect": 0, "out": f"{out}.wav"}
            )
        elif pick < 0.9:
            spec = trio("II.1", rng.uniform(0.02, 0.06), 1.0, float(rng.randint(2, 10)))
            calls.append(
                {"kind": "bank",
                 "argv": ["bank", *_trio_flags(spec), "--cf0", repr(rng.uniform(8000.0, 20000.0)),
                          "--l", "1", "--channels", str(CLI_BANK_CHANNELS), "--x-max", "3",
                          "--out", f"{out}.json"],
                 "expect": 0, "out": f"{out}.json", "channels": CLI_BANK_CHANNELS}
            )
        else:
            calls.append(
                {"kind": "evaluate",
                 "argv": ["evaluate", "--spec", f"spec{rng.randrange(3)}.json",
                          "--errors-out", f"{out}.csv"],
                 "expect": 0, "out": f"{out}.csv"}
            )
    return calls


def _bad_call(rng: random.Random) -> dict:
    """A call the CLI must refuse with exit 2 (bad usage) or 3 (infeasible)."""
    n = rng.uniform(10.0, 25.0)
    choice = rng.randrange(4)
    if choice == 0:  # only one characteristic beside the peak
        argv, expect = ["design", "--peak-beta", "1", "--gdelay-cycles", repr(n)], 2
    elif choice == 1:  # malformed --qn
        argv, expect = ["design", "--peak-beta", "1", "--gdelay-cycles", repr(n), "--qn", "ten"], 2
    elif choice == 2:  # Q_erb / N above the reachable maximum of about 2.1
        argv = ["design", "--peak-beta", "1", "--gdelay-cycles", repr(n), "--qerb", repr(3.0 * n)]
        expect = 3
    else:  # biquads need an integer exponent
        argv = ["discretize", "--constants", "nonint0.json", "--peak-hz", "1000", "--fs", repr(FS)]
        expect = 3
    return {"kind": "bad", "argv": argv, "expect": expect, "out": None}
