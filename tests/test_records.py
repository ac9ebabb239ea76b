"""The frozen value classes: repr, equality, hashing, immutability and
construction, the same for each of them; and the one finite-positive check
behind their float fields, the functions' arguments and the CLI's flags."""

import json
import math

import numpy as np
import pytest

from gefdesign import (
    BankChannel,
    CfMap,
    CharacteristicReport,
    CharacteristicSpec,
    DesignRow,
    DigitalFilter,
    ErrorRecord,
    FilterConstants,
    FrequencyGrid,
    MultibandBand,
    MultibandSpec,
    SharpnessReport,
    SignalBuffer,
    SweepResult,
    apply_fft,
    closed_form,
    sweep,
    to_sos,
)
from gefdesign.cli import run
from gefdesign.errors import InfeasibleSpec, NonPositiveConstant, NyquistViolation, OutOfRange

THETA = FilterConstants(0.05, 1.0, 6.0)
SPEC = CharacteristicSpec(DesignRow.PEAK_QERB_PHASE, 1.0, {"q_erb": 25.9, "phi_accum": 3.0})
REPORT = CharacteristicReport(1.0, 19.1, 3.0, 20846.3, {3.0: 0.05, 10.0: 0.1}, 0.04)
BAND = MultibandBand(1000.0, SPEC)
SAMPLES = np.linspace(0.5, 2.0, 16)
SIGNAL = np.array([0.0, 0.5, -0.25])

# name: (class, (field, value) pairs in order, how many have no default,
#        the literal repr)
RECORDS = {
    "FilterConstants": (
        FilterConstants, [("a_p", 0.05), ("b_p", 1.0), ("b_u", 6.0), ("gain", 1.0)], 3,
        "FilterConstants(a_p=0.05, b_p=1.0, b_u=6.0, gain=1.0)"),
    "SharpnessReport": (
        SharpnessReport, [("a_p", 0.05), ("alpha_at_peak", 0.025), ("satisfied", True)], 3,
        "SharpnessReport(a_p=0.05, alpha_at_peak=0.025, satisfied=True)"),
    "CharacteristicSpec": (
        CharacteristicSpec,
        [("row", DesignRow.PEAK_QERB_PHASE), ("beta_peak", 1.0),
         ("values", {"q_erb": 25.9, "phi_accum": 3.0}), ("n_level", None), ("mode", "exact")], 3,
        "CharacteristicSpec(row=<DesignRow.PEAK_QERB_PHASE: 'II.3'>, beta_peak=1.0, "
        "values={'q_erb': 25.9, 'phi_accum': 3.0}, n_level=None, mode='exact')"),
    "DigitalFilter": (
        DigitalFilter,
        [("sample_rate", 48000.0), ("sections", ((0.25, 0.5, 0.25, -1.5, 0.75),)), ("gain", 1.0),
         ("source_theta", None), ("f_peak", None)], 2,
        "DigitalFilter(sample_rate=48000.0, sections=((0.25, 0.5, 0.25, -1.5, 0.75),), "
        "gain=1.0, source_theta=None, f_peak=None)"),
    "CfMap": (
        CfMap, [("cf0", 8000.0), ("l", 1.5), ("x_max", 3.3)], 3,
        "CfMap(cf0=8000.0, l=1.5, x_max=3.3)"),
    "BankChannel": (
        BankChannel, [("x", 0.5), ("f_peak", 1000.0), ("theta", THETA), ("gain", 1.0)], 3,
        "BankChannel(x=0.5, f_peak=1000.0, theta=FilterConstants(a_p=0.05, b_p=1.0, b_u=6.0, "
        "gain=1.0), gain=1.0)"),
    "FrequencyGrid": (
        FrequencyGrid,
        [("samples", SAMPLES), ("dense_halfwidth", 0.6), ("dense_step", 0.1), ("tail_max", 2.0),
         ("tail_points", 4)], 5,
        "FrequencyGrid(samples=array([0.5, 0.6, 0.7, 0.8, 0.9, 1. , 1.1, 1.2, 1.3, 1.4, 1.5, "
        "1.6, 1.7,\n       1.8, 1.9, 2. ]), dense_halfwidth=0.6, dense_step=0.1, tail_max=2.0, "
        "tail_points=4)"),
    "CharacteristicReport": (
        CharacteristicReport,
        [("beta_peak", 1.0), ("n_beta", 19.1), ("phi_accum", 3.0), ("s_beta", 20846.3),
         ("bw_n_beta", {3.0: 0.05, 10.0: 0.1}), ("erb_beta", None), ("provenance", None)], 5,
        "CharacteristicReport(beta_peak=1.0, n_beta=19.1, phi_accum=3.0, s_beta=20846.3, "
        "bw_n_beta={3.0: 0.05, 10.0: 0.1}, erb_beta=None, provenance=None)"),
    "ErrorRecord": (
        ErrorRecord,
        [("target", "p"), ("desired", REPORT), ("achieved", REPORT), ("errors", {"n_beta": 0.0})],
        4,
        "ErrorRecord(target='p', desired={r}, achieved={r}, errors={{'n_beta': 0.0}})".format(
            r=repr(REPORT))),
    "SweepResult": (
        SweepResult,
        [("q_erb_axis", (10.0,)), ("n_axis", (5.0,)), ("error_grids", {"n_beta": [[0.0]]})], 3,
        "SweepResult(q_erb_axis=(10.0,), n_axis=(5.0,), error_grids={'n_beta': [[0.0]]})"),
    "SignalBuffer": (
        SignalBuffer, [("sample_rate", 48000.0), ("samples", SIGNAL)], 2,
        "SignalBuffer(sample_rate=48000.0, samples=array([ 0.  ,  0.5 , -0.25]))"),
    "MultibandBand": (
        MultibandBand, [("f_peak_hz", 1000.0), ("spec", SPEC), ("gain", 1.0)], 2,
        f"MultibandBand(f_peak_hz=1000.0, spec={SPEC!r}, gain=1.0)"),
    "MultibandSpec": (
        MultibandSpec, [("bands", (BAND,))], 1,
        f"MultibandSpec(bands=({BAND!r},))"),
}
# the records whose fields hold no mutable container
HASHABLE = {"FilterConstants", "SharpnessReport", "DigitalFilter", "CfMap", "BankChannel"}


def _build(name):
    cls, pairs, _, _ = RECORDS[name]
    return cls(*(value for _, value in pairs))


@pytest.mark.parametrize("name", RECORDS)
class TestRecords:
    def test_repr_is_the_literal(self, name):
        assert repr(_build(name)) == RECORDS[name][3]

    def test_keyword_construction_matches_positional(self, name):
        cls, pairs, _, _ = RECORDS[name]
        record = cls(**dict(pairs))
        assert repr(record) == repr(_build(name))
        for field, value in pairs:
            if isinstance(value, np.ndarray):
                assert np.array_equal(getattr(record, field), value)
            else:
                assert getattr(record, field) == value

    def test_defaults(self, name):
        cls, pairs, required, _ = RECORDS[name]
        record = cls(*(value for _, value in pairs[:required]))
        assert repr(record) == repr(_build(name))

    def test_equality_by_type_and_fields(self, name):
        record = _build(name)
        assert record == record
        if name not in ("FrequencyGrid", "SignalBuffer"):  # new arrays compare elementwise
            assert record == _build(name)
        assert record.__eq__(tuple(vars(record).values())) is NotImplemented
        assert record != object()

    def test_hash_is_that_of_the_field_tuple(self, name):
        cls, pairs, _, _ = RECORDS[name]
        record = _build(name)
        if name in HASHABLE:
            assert hash(record) == hash(tuple(getattr(record, field) for field, _ in pairs))
            assert hash(record) == hash(_build(name))
        else:
            with pytest.raises(TypeError, match="unhashable"):
                hash(record)

    def test_fields_cannot_be_set_or_deleted(self, name):
        record = _build(name)
        field = RECORDS[name][1][0][0]
        before = repr(record)
        with pytest.raises(AttributeError, match=f"cannot assign to field '{field}'"):
            setattr(record, field, 1.0)
        with pytest.raises(AttributeError, match="cannot assign to field 'other'"):
            record.other = 1.0
        with pytest.raises(AttributeError, match=f"cannot delete field '{field}'"):
            delattr(record, field)
        assert repr(record) == before


def test_records_differ_by_a_field_and_by_type():
    assert FilterConstants(0.05, 1.0, 6.0) != FilterConstants(0.05, 1.0, 7.0)
    assert FilterConstants(0.05, 1.0, 6.0) != FilterConstants(0.05, 1.0, 6.0, gain=2.0)
    assert len({THETA, FilterConstants(0.05, 1.0, 6.0), FilterConstants(0.05, 1.0, 7.0)}) == 2
    # equal field tuples of two record types are not equal records
    assert CfMap(1.0, 2.0, 3.0) != SharpnessReport(1.0, 2.0, 3.0)


def test_with_gain_builds_new_constants():
    theta = THETA.with_gain(2.5)
    assert theta == FilterConstants(0.05, 1.0, 6.0, 2.5)
    assert THETA.gain == 1.0
    with pytest.raises(NonPositiveConstant, match="gain must be finite and > 0"):
        THETA.with_gain(math.inf)


def test_flat_map_is_built_once_on_a_frozen_report():
    report = _build("CharacteristicReport")
    assert report.characteristics() is report.characteristics()
    assert report.as_dict() is not report.as_dict()
    assert repr(report) == RECORDS["CharacteristicReport"][3]


# what a finite-positive field refuses, and two spellings of 2.5 it takes
NOT_FINITE_POSITIVE = [0, -0.0, -1, math.nan, math.inf, -math.inf, None, "abc", [1.0]]
TAKEN_AS_2_5 = ["2.5", np.float64(2.5)]


def _record_field(name, field):
    """The RECORDS build of name with field set to a value, and its reader."""
    cls, pairs, _, _ = RECORDS[name]
    return (lambda value: cls(**{**dict(pairs), field: value}),
            lambda record: getattr(record, field))


# "Record.field": how to build the record with that field, how to read it
# back, and the exception its check raises
GUARDED_FIELDS = {
    f"{name}.{field}": (*_record_field(name, field), error)
    for name, fields, error in [
        ("FilterConstants", ("a_p", "b_p", "b_u", "gain"), NonPositiveConstant),
        ("CharacteristicSpec", ("beta_peak",), InfeasibleSpec),
        ("CharacteristicReport", ("beta_peak", "n_beta", "phi_accum", "s_beta"), ValueError),
        ("FrequencyGrid", ("dense_halfwidth", "dense_step"), ValueError),
        ("CfMap", ("cf0", "l"), OutOfRange),
        ("BankChannel", ("f_peak", "gain"), OutOfRange),
        ("MultibandBand", ("f_peak_hz", "gain"), ValueError),
        ("DigitalFilter", ("sample_rate", "gain"), ValueError),
        ("SignalBuffer", ("sample_rate",), ValueError),
    ]
    for field in fields
}
GUARDED_FIELDS["CharacteristicSpec.values"] = (
    lambda value: CharacteristicSpec(DesignRow.PEAK_QERB_PHASE, 1.0,
                                     {"q_erb": value, "phi_accum": 3.0}),
    lambda spec: spec.values["q_erb"], InfeasibleSpec)
GUARDED_FIELDS["CharacteristicSpec.n_level"] = (
    lambda value: CharacteristicSpec(DesignRow.PEAK_QN_PHASE, 1.0,
                                     {"q_n": 14.6, "phi_accum": 3.0}, value),
    lambda spec: spec.n_level, InfeasibleSpec)

# "function argument": a call with that argument, and the exception it raises
GUARDED_ARGUMENTS = {
    "closed_form n_levels": (lambda value: closed_form(THETA, [3.0, value]), OutOfRange),
    "to_sos f_peak": (lambda value: to_sos(THETA, value, 48000.0), OutOfRange),
    "apply_fft f_peak": (
        lambda value: apply_fft(THETA, value, 48000.0, SignalBuffer(48000.0, SIGNAL)),
        OutOfRange),
    "sweep q_erb_values": (lambda value: sweep([value], [5.0]), OutOfRange),
    "sweep n_values": (lambda value: sweep([10.0], [value]), OutOfRange),
}


@pytest.mark.parametrize("value", NOT_FINITE_POSITIVE, ids=repr)
@pytest.mark.parametrize("guard", GUARDED_FIELDS)
def test_field_refuses_what_is_not_finite_and_positive(guard, value):
    build, _, error = GUARDED_FIELDS[guard]
    with pytest.raises(error, match="must be finite and > 0, got"):
        build(value)


@pytest.mark.parametrize("value", TAKEN_AS_2_5, ids=repr)
@pytest.mark.parametrize("guard", GUARDED_FIELDS)
def test_field_stores_a_number_as_a_float(guard, value):
    build, read, _ = GUARDED_FIELDS[guard]
    stored = read(build(value))
    assert type(stored) is float and stored == 2.5


@pytest.mark.parametrize("value", NOT_FINITE_POSITIVE, ids=repr)
@pytest.mark.parametrize("guard", GUARDED_ARGUMENTS)
def test_argument_refuses_what_is_not_finite_and_positive(guard, value):
    call, error = GUARDED_ARGUMENTS[guard]
    with pytest.raises(error, match="must be finite and > 0, got"):
        call(value)


def test_levels_are_taken_as_floats():
    levels = list(closed_form(THETA, ["2.5", np.float64(3.0)]).bw_n_beta)
    assert levels == [2.5, 3.0] and all(type(n) is float for n in levels)


@pytest.mark.parametrize("build, error", [
    (lambda: CfMap("x", 1, 1), OutOfRange),
    (lambda: BankChannel(0, "x", THETA), OutOfRange),
    (lambda: MultibandBand("x", SPEC), ValueError),
    (lambda: CharacteristicSpec(DesignRow.PEAK_QERB_PHASE, None,
                                {"q_erb": 25.9, "phi_accum": 3.0}), InfeasibleSpec),
    (lambda: CharacteristicSpec(DesignRow.PEAK_QERB_PHASE, 1.0,
                                {"q_erb": None, "phi_accum": 3.0}), InfeasibleSpec),
    (lambda: FilterConstants("x", 1, 1), NonPositiveConstant),
])
def test_non_numbers_raise_the_class_refusal(build, error):
    # each once escaped as a bare TypeError, or as a ValueError from float()
    with pytest.raises(error, match="must be finite and > 0"):
        build()


# guards whose rule is not "finite and > 0": each reads a non-number as nan,
# so it meets the rule's own refusal; what the rule takes, it stores as a float
@pytest.mark.parametrize("value", NOT_FINITE_POSITIVE, ids=repr)
def test_sample_rate_is_finite_and_checked_against_f_peak(value):
    # fs <= 0 puts f_peak at or past fs/2, the Nyquist refusal
    error = NyquistViolation if value in (0, -1) else OutOfRange
    match = "fs/2" if error is NyquistViolation else "fs must be finite, got"
    for call in (lambda: to_sos(THETA, 1000.0, value),
                 lambda: apply_fft(THETA, 1000.0, value, SignalBuffer(48000.0, SIGNAL))):
        with pytest.raises(error, match=match):
            call()


def test_sample_rate_as_a_numeric_string():
    assert to_sos(THETA, 1000.0, "48000").sample_rate == 48000.0


@pytest.mark.parametrize("value", NOT_FINITE_POSITIVE, ids=repr)
def test_x_max_is_finite_and_may_be_zero(value):
    if value == 0:  # 0 and -0.0
        assert CfMap(1.0, 1.0, value).x_max == 0.0
        return
    with pytest.raises(OutOfRange, match="x_max must be finite and >= 0, got"):
        CfMap(1.0, 1.0, value)


@pytest.mark.parametrize("value", TAKEN_AS_2_5, ids=repr)
def test_x_max_stores_a_number_as_a_float(value):
    stored = CfMap(1.0, 1.0, value).x_max
    assert type(stored) is float and stored == 2.5


# CLI flags whose value must be finite and > 0: the argv with the value's
# place, and the exit code of the check's refusal
GUARDED_FLAGS = {
    "design --peak-hz": (["design", "--peak-hz={}", "--gdelay-cycles", "19.1",
                          "--phase-accum", "3"], 2),
    "filter --rate": (["filter", "--fft", "--constants", "{c}", "--peak-hz", "1000",
                       "--rate={}", "in.csv", "out.csv"], 3),
    "response --peak-hz": (["response", "--constants", "{c}", "--peak-hz={}", "--fmin", "0",
                            "--fmax", "4000", "--points", "3"], 3),
    "sweep --qerb": (["sweep", "--qerb={}", "--n", "5"], 2),
    "sweep --n": (["sweep", "--qerb", "10", "--n={}"], 2),
}


@pytest.mark.parametrize("text", ["0", "-0.0", "-1", "nan", "inf", "-inf", "abc", "[1.0]"])
@pytest.mark.parametrize("guard", GUARDED_FLAGS)
def test_flag_refuses_what_is_not_finite_and_positive(tmp_path, capsys, guard, text):
    constants = tmp_path / "c.json"
    constants.write_text(json.dumps(THETA.as_dict()))
    template, code = GUARDED_FLAGS[guard]
    argv = [arg.replace("{c}", str(constants)).replace("{}", text) for arg in template]
    is_number = text not in ("abc", "[1.0]")
    # argparse refuses a float flag's non-number as bad usage first
    takes_text = guard.startswith("sweep")
    assert run(argv) == (code if is_number or takes_text else 2)
    lines = capsys.readouterr().err.splitlines()
    assert len(lines) == 1
    message = json.loads(lines[0])["error"]["message"]
    if is_number or takes_text:
        assert message.startswith(f"{guard.split()[1]} must be finite and > 0, got ")
