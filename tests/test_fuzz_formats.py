"""Fuzz of the MIN1, SOM1, OF1 and SCEN1 text formats.

Each parser gets arbitrary bytes and near-valid files: a valid file with
lines dropped, duplicated or replaced, or one token swapped for an odd
value (0, negative or huge numbers, ``nan``, ``inf``, ``1e400``). The only
allowed outcomes are a value or a ``FingerprintError``, which the CLI maps
to exit code 3. The OF1 field is also run through core detection and
feature extraction, which read its block size.
"""

import tempfile
import warnings
from pathlib import Path

import numpy as np
from hypothesis import example, given, settings
from hypothesis import strategies as st

from fpverify.core import CorePoint, parse_minutiae, serialize_minutiae
from fpverify.errors import FingerprintError, LowConfidenceCoreWarning
from fpverify.evaluate import ScenarioConfig, parse_scenario, serialize_scenario
from fpverify.orientation import FEATURE_LEN, FingerClass, OrientationField, detect_core, extract_feature_vector
from fpverify.som import SomMap, load_som, save_som
from fpverify.synth import SynthConfig, gen_synthetic_minutiae, load_orientation_field, save_orientation_field

ODD_TOKENS = [
    "0", "-1", "-16", "1", "2", "99999999999", "1" + "0" * 120, "9" * 5000,
    "nan", "-nan", "inf", "-inf", "1e400", "-1e400", "1e-400", "0.5", "x", "",
]  # fmt: skip


def _written(save, value, **kwargs) -> str:
    with tempfile.TemporaryDirectory() as directory:
        path = Path(directory) / "file"
        save(value, path, **kwargs)
        return path.read_text(encoding="utf-8")


_FIELD = OrientationField(np.linspace(0.0, 3.0, 16).reshape(4, 4), np.full((4, 4), 0.75), block_size=16)
VALID = {
    "MIN1": [
        serialize_minutiae(gen_synthetic_minutiae(SynthConfig(n_minutiae=4, seed=1))).decode(),
        "MIN1\n1 2 0.5 E\n3 4 1.5 B\n",
    ],
    "SOM1": [
        _written(save_som, SomMap(2, np.full((4, FEATURE_LEN), 0.25), (FingerClass.ARCH, None, None, None)))
    ],
    "OF1": [_written(save_orientation_field, _FIELD), _written(save_orientation_field, _FIELD, core=CorePoint(24, 40))],
    "SCEN1": [
        serialize_scenario(ScenarioConfig()),
        "SCEN1\nfingers 3\ngenuine_pairs 2\nimposter_pairs 2\n",
    ],
}


@st.composite
def near_valid(draw, fmt: str) -> bytes:
    """A valid file of the format with one to three lines or tokens changed;
    the header line is picked half the time."""
    lines = draw(st.sampled_from(VALID[fmt])).splitlines()
    for _ in range(draw(st.integers(1, 3))):
        i = draw(st.just(0) | st.integers(0, len(lines) - 1))
        op = draw(st.sampled_from(["token", "drop", "duplicate", "replace"]))
        if op == "token":
            tokens = lines[i].split(" ")
            tokens[draw(st.integers(0, len(tokens) - 1))] = draw(st.sampled_from(ODD_TOKENS))
            lines[i] = " ".join(tokens)
        elif op == "drop" and len(lines) > 1:
            del lines[i]
        elif op == "duplicate":
            lines.insert(i, lines[i])
        elif op == "replace":
            lines[i] = draw(st.text(max_size=20))
    return ("\n".join(lines) + "\n").encode("utf-8", "surrogatepass")


def inputs(fmt: str):
    header = fmt.encode()
    return st.binary(max_size=80) | st.binary(max_size=60).map(lambda tail: header + tail) | near_valid(fmt)


def value_or_fingerprint_error(parse, data: bytes) -> None:
    try:
        parse(data)
    except FingerprintError:
        pass


def _field_features(data: bytes):
    field, core = load_orientation_field(data)
    if core is None:
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", LowConfidenceCoreWarning)
            core = detect_core(field)
    return extract_feature_vector(field, core)


def _som(data: bytes):
    with tempfile.TemporaryDirectory() as directory:
        path = Path(directory) / "map.som"
        path.write_bytes(data)
        return load_som(path)


def test_valid_files_parse():
    for text in VALID["MIN1"]:
        parse_minutiae(text)
    for text in VALID["OF1"]:
        assert _field_features(text.encode()).directions.shape == (FEATURE_LEN,)
    assert _som(VALID["SOM1"][0].encode()).m == 2
    for text in VALID["SCEN1"]:
        parse_scenario(text)


@given(data=inputs("MIN1"))
@settings(max_examples=300, deadline=None)
def test_min1_parses_or_raises_fingerprint_error(data):
    value_or_fingerprint_error(parse_minutiae, data)


@given(data=inputs("SOM1"))
@settings(max_examples=150, deadline=None)
@example(data=VALID["SOM1"][0].replace("m=2", "m=0").encode())
@example(data=VALID["SOM1"][0].replace("m=2", "m=-2").encode())
def test_som1_loads_or_raises_fingerprint_error(data):
    value_or_fingerprint_error(_som, data)


@given(data=inputs("OF1"))
@settings(max_examples=300, deadline=None)
@example(data=VALID["OF1"][0].replace(" 16\n", " 0\n", 1).encode())
@example(data=VALID["OF1"][0].replace(" 16\n", " -16\n", 1).encode())
@example(data=VALID["OF1"][0].replace(" 16\n", " 1" + "0" * 400 + "\n", 1).encode())
@example(data=VALID["OF1"][0].replace("0.75", "nan", 1).encode())
def test_of1_field_features_or_fingerprint_error(data):
    value_or_fingerprint_error(_field_features, data)


@given(data=inputs("SCEN1"))
@settings(max_examples=300, deadline=None)
@example(data=b"SCEN1\nk 1\n")
@example(data=b"SCEN1\ntau nan\n")
@example(data=b"SCEN1\nmax_translation 1e400\n")
def test_scen1_parses_or_raises_fingerprint_error(data):
    value_or_fingerprint_error(lambda raw: parse_scenario(raw.decode("utf-8", "replace")), data)
