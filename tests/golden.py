"""Golden outputs: the results of the whole pipeline on fixed seeds, kept in
``tests/data/golden.json`` so that a change which claims to keep every
output the same is checked against one committed file.

    PYTHONPATH=src python tests/golden.py            # write tests/data/golden.json
    PYTHONPATH=src python tests/golden.py --compare  # check every bit, print hash lines

``--compare`` rebuilds every section, requires each float to equal the stored
one bit for bit and each array and written file to hash the same, prints one
SHA-256 line per section, and exits 1 on any difference.
``tests/test_golden.py`` reads the same file with ``compare(exact=False)``:
decisions, index keys, gates, ``first_failed``, rankings, labels and CLI
stdout exactly, floats within ``RTOL`` (``ATOL`` near zero). It skips array
and file hashes, because numpy builds may differ in the last bit of
``arctan2``, ``sin`` and ``cos``.

Floats are stored as ``float.hex``, an array as the SHA-256 of its bytes plus
its shape and a few summary floats. An item whose outcome turns on a margin
below ``NEAR_TIE`` (an MHD that close to tau, or two MHDs that close in one
ranking) carries ``"near_tie": true``; the tolerant comparison reads only its
floats, in sorted order.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import json
import math
import os
import re
import sys
import tempfile
from pathlib import Path

import numpy as np

from fpverify import cli
from fpverify.evaluate import ScenarioConfig, report_at, run_trials
from fpverify.graph import is_isomorphic
from fpverify.matching import DEFAULT_TAU
from fpverify.orientation import FeatureVector, FingerClass, GrayImage, estimate_block_directions, extract_feature_vector
from fpverify.som import TrainConfig, classify, train_msom, train_som
from fpverify.store import TemplateStore, compute_signature
from fpverify.synth import SynthConfig, gen_synthetic_minutiae, gen_synthetic_orientation, perturb_impression

GOLDEN = Path(__file__).parent / "data" / "golden.json"
RTOL = 1e-9
ATOL = 1e-12
NEAR_TIE = 1e-9
_FLOAT_HEX = re.compile(r"-?(0x[0-9a-f]+(\.[0-9a-f]*)?p[+-][0-9]+|inf|nan)")


def f(x) -> str:
    return float(x).hex()


def array(a) -> dict:
    a = np.ascontiguousarray(a, dtype=np.float64)
    return {
        "sha256": hashlib.sha256(a.tobytes()).hexdigest(),
        "shape": list(a.shape),
        "sum": f(a.sum()),
        "min": f(a.min()),
        "max": f(a.max()),
    }


def sha(data: bytes) -> dict:
    return {"sha256": hashlib.sha256(data).hexdigest()}


def verdict(res, tau: float) -> dict:
    """One pair's result; a gate is read as ``getattr(g, "passed", g)`` so
    both a gate object and a plain bool give its verdict."""
    s = res.score
    out = {
        "accepted": res.accepted,
        "gates": [bool(getattr(g, "passed", g)) for g in res.gates],
        "first_failed": res.first_failed,
        "mhd": f(s.mhd),
        "directed": [f(s.directed_ab), f(s.directed_ba)],
        "rotation": f(res.rotation),
    }
    if abs(s.mhd - tau) < NEAR_TIE:
        out["near_tie"] = True
    return out


def ranking(matches, tau: float) -> dict:
    mhds = [s.mhd for _, s in matches]
    out = {"ranking": [[rid, f(s.mhd), s.accepted] for rid, s in matches]}
    gaps = [b - a for a, b in zip(mhds, mhds[1:])] + [abs(m - tau) for m in mhds]
    if any(g < NEAR_TIE for g in gaps):
        out["near_tie"] = True
    return out


# --- sections ------------------------------------------------------------------


def store_section() -> dict:
    """verify (own and next id) and identify of 30 perturbed probes against a
    30-finger k=5 store, then the same against the store opened again."""
    fingers = [gen_synthetic_minutiae(SynthConfig(seed=s)) for s in range(30)]
    probes = [perturb_impression(m, SynthConfig(seed=1000 + i)) for i, m in enumerate(fingers)]
    ids = [f"f{i:02d}" for i in range(30)]
    out = {}
    with tempfile.TemporaryDirectory() as tmp:
        store = TemplateStore(Path(tmp) / "db")
        out["keys"] = [store.enroll(m, rid, k=5).index_key for m, rid in zip(fingers, ids)]
        # Each record without its ENROLLED line, which holds the clock.
        texts = [(store.directory / f"{rid}.rec").read_text(encoding="utf-8") for rid in ids]
        out["records"] = sha("".join(re.sub(r"(?m)^ENROLLED .*\n", "", t) for t in texts).encode())
        for name, st in (("fresh", store), ("reopened", TemplateStore(store.directory))):
            out[name] = {
                "verify": [
                    verdict(st.verify(p, claim, tau=DEFAULT_TAU), DEFAULT_TAU)
                    for i, p in enumerate(probes)
                    for claim in (ids[i], ids[(i + 1) % 30])
                ],
                "identify": [ranking(st.identify(p, tau=DEFAULT_TAU), DEFAULT_TAU) for p in probes],
            }
    return out


def signatures_section() -> dict:
    """Signatures of 12 fingers at k = 3, 5 and 7, and the is_isomorphic
    matrix over them at each k."""
    fingers = [gen_synthetic_minutiae(SynthConfig(seed=200 + s)) for s in range(12)]
    out = {}
    for k in (3, 5, 7):
        sigs = [compute_signature(m, k=k) for m in fingers]
        out[f"k{k}"] = {
            "keys": [s.index_key for s in sigs],
            "edges": [sorted(map(list, s.graph.edges)) for s in sigs],
            "centroids": [array(s.centroids) for s in sigs],
            "isomorphic": ["".join("1" if is_isomorphic(a.graph, b.graph) else "0" for b in sigs) for a in sigs],
        }
    return out


def eval_section() -> dict:
    """Criterion 10's trials, and report_at at several thresholds."""
    scenario = ScenarioConfig(
        seed=10_010, fingers=40, n_minutiae=30, jitter_sigma=1.0, k=3, genuine_pairs=200, imposter_pairs=200
    )
    outcomes = run_trials(scenario)
    reports = {}
    for tau in (2.0, 6.0, 12.0, 20.0):
        rep = report_at(outcomes, tau)
        reports[f"tau{tau:g}"] = {"F": rep.wrong_accepts, "R": rep.wrong_rejects, "S": rep.trials}
        if any(abs(res.score.mhd - tau) < NEAR_TIE for _, res in outcomes):
            reports[f"tau{tau:g}"]["near_tie"] = True
    trials = [dict(verdict(res, scenario.tau), genuine=genuine) for genuine, res in outcomes]
    return {"trials": trials, "report_at": reports}


def som_section() -> dict:
    """SOM and MSOM trained on 3 fields per class, and classify of each
    training vector with the plain and the weighted winner."""
    train = []
    for ci, cls in enumerate(FingerClass):
        for j in range(3):
            field, core = gen_synthetic_orientation(SynthConfig(finger_class=cls, seed=ci * 100 + j))
            fv = extract_feature_vector(field, core)
            train.append(FeatureVector(fv.directions, fv.certainties, class_label=cls))
    out = {}
    for name, trainer, weighted in (("som", train_som, False), ("msom", train_msom, True)):
        trained = trainer(train, 4, TrainConfig(epochs=10, seed=3))
        labels = []
        for v in train:
            c = v.certainties if weighted else None
            label, node = classify(trained, v.directions, c)
            diff = (v.directions - trained.weights) * (1.0 if c is None else c)
            d = np.sort((diff * diff).sum(axis=1))
            item = {"label": label.value, "node": node}
            if d[1] - d[0] < NEAR_TIE:
                item["near_tie"] = True
            labels.append(item)
        out[name] = {
            "weights": array(trained.weights),
            "labels": [None if lbl is None else lbl.value for lbl in trained.labels],
            "classify": labels,
        }
    return out


def orientation_section() -> dict:
    """estimate_block_directions on 6 ridge images of different periods,
    slants and sizes."""
    out = []
    for i in range(6):
        h, w = 96 + 16 * i, 128 - 8 * i
        y, x = np.mgrid[0:h, 0:w]
        ridges = np.sin((x + (0.2 * i - 0.5) * y) / (2.5 + 0.5 * i) + 0.01 * (x - w / 2) * (y - h / 2) / (i + 3))
        field = estimate_block_directions(GrayImage(np.round(127.5 + 127.5 * ridges)))
        out.append({"directions": array(field.directions), "certainties": array(field.certainties)})
    return {"images": out}


def cli_section() -> dict:
    """Exit code and stdout of a CLI session, and the files it writes."""
    session = [
        ["synth", "minutiae", "--seed", "1", "--out", "a.min"],
        ["synth", "minutiae", "--seed", "2", "--out", "b.min"],
        ["enroll", "--store", "db", "--id", "a", "a.min"],
        ["enroll", "--store", "db", "--id", "b", "b.min"],
        ["verify", "--store", "db", "--id", "a", "a.min"],
        ["verify", "--store", "db", "--id", "a", "b.min"],
        ["identify", "--store", "db", "a.min"],
        ["eval", "--scenario", "tiny.scen"],
        ["eval", "--scenario", "tiny.scen", "--taus", "2:14:3", "--out", "report.txt"],
        ["synth", "field", "--seed", "1", "--class", "arch", "--out", "arch.of1"],
        ["synth", "field", "--seed", "2", "--class", "whorl", "--out", "whorl.of1"],
        ["train", "--out", "map.som", "--m", "2", "--epochs", "2", "train.lst"],
        ["classify", "--map", "map.som", "whorl.of1"],
    ]
    out = {"runs": [], "files": {}}
    cwd = os.getcwd()
    with tempfile.TemporaryDirectory() as tmp:
        os.chdir(tmp)
        try:
            Path("tiny.scen").write_text("SCEN1\nfingers 6\ngenuine_pairs 8\nimposter_pairs 8\n", encoding="utf-8")
            Path("train.lst").write_text("arch.of1 arch\nwhorl.of1 whorl\n", encoding="utf-8")
            for argv in session:
                stdout = io.StringIO()
                with contextlib.redirect_stdout(stdout):
                    code = cli.main(argv)
                out["runs"].append({"argv": " ".join(argv), "exit": code, "stdout": stdout.getvalue()})
            for name in ("a.min", "b.min", "report.txt", "arch.of1", "whorl.of1", "map.som", "db/manifest.txt"):
                out["files"][name] = sha(Path(name).read_bytes())
        finally:
            os.chdir(cwd)
    return out


SECTIONS = {
    "store": store_section,
    "signatures": signatures_section,
    "eval": eval_section,
    "som": som_section,
    "orientation": orientation_section,
    "cli": cli_section,
}


# --- comparison ------------------------------------------------------------------


def _floats(node) -> list[float]:
    if isinstance(node, dict):
        return [x for key in sorted(node) if key != "sha256" for x in _floats(node[key])]
    if isinstance(node, list):
        return [x for item in node for x in _floats(item)]
    if isinstance(node, str) and _FLOAT_HEX.fullmatch(node):
        return [float.fromhex(node)]
    return []


def _close(a: float, b: float) -> bool:
    return a == b or math.isclose(a, b, rel_tol=RTOL, abs_tol=ATOL) or (math.isnan(a) and math.isnan(b))


def compare(want, got, exact: bool, path: str = "") -> list[str]:
    """Differences between two encoded outputs, one line each. ``exact``
    compares every leaf as stored: floats bit for bit and every hash."""
    if exact:
        if want == got:
            return []
        if isinstance(want, dict) and isinstance(got, dict) and want.keys() == got.keys():
            return [d for key in want for d in compare(want[key], got[key], exact, f"{path}/{key}")]
        if isinstance(want, list) and isinstance(got, list) and len(want) == len(got):
            return [d for i, (a, b) in enumerate(zip(want, got)) for d in compare(a, b, exact, f"{path}[{i}]")]
        return [f"{path}: {want!r} != {got!r}"]
    if isinstance(want, dict) and (want.get("near_tie") or (isinstance(got, dict) and got.get("near_tie"))):
        a, b = sorted(_floats(want)), sorted(_floats(got))
        if len(a) != len(b) or not all(map(_close, a, b)):
            return [f"{path} (near tie): floats {a} != {b}"]
        return []
    if isinstance(want, dict) and isinstance(got, dict):
        if want.keys() != got.keys():
            return [f"{path}: keys {sorted(want)} != {sorted(got)}"]
        return [d for key in want if key != "sha256" for d in compare(want[key], got[key], exact, f"{path}/{key}")]
    if isinstance(want, list) and isinstance(got, list):
        if len(want) != len(got):
            return [f"{path}: length {len(want)} != {len(got)}"]
        return [d for i, (a, b) in enumerate(zip(want, got)) for d in compare(a, b, exact, f"{path}[{i}]")]
    if isinstance(want, str) and isinstance(got, str) and _FLOAT_HEX.fullmatch(want) and _FLOAT_HEX.fullmatch(got):
        a, b = float.fromhex(want), float.fromhex(got)
        return [] if _close(a, b) else [f"{path}: {a!r} != {b!r}"]
    return [] if want == got else [f"{path}: {want!r} != {got!r}"]


def dumps(node, indent: int = 0) -> str:
    """JSON with every value that fits in 160 characters on one line."""
    flat = json.dumps(node, sort_keys=True)
    if len(flat) <= 160 or not isinstance(node, (dict, list)):
        return flat
    pad = " " * (indent + 1)
    if isinstance(node, dict):
        items = [f"{pad}{json.dumps(key)}: {dumps(node[key], indent + 1)}" for key in sorted(node)]
        return "{\n" + ",\n".join(items) + "\n" + " " * indent + "}"
    return "[\n" + ",\n".join(pad + dumps(item, indent + 1) for item in node) + "\n" + " " * indent + "]"


def section_hash(value) -> str:
    return hashlib.sha256(json.dumps(value, sort_keys=True).encode()).hexdigest()


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--compare", action="store_true", help="check against the stored file instead of writing it")
    args = parser.parse_args(argv)
    built = {name: build() for name, build in SECTIONS.items()}
    if not args.compare:
        GOLDEN.parent.mkdir(parents=True, exist_ok=True)
        GOLDEN.write_text(dumps(built) + "\n", encoding="utf-8")
        near = sum(json.dumps(v).count('"near_tie"') for v in built.values())
        print(f"wrote {GOLDEN} ({GOLDEN.stat().st_size:,} bytes, {near} near-tie items)")
        return 0
    stored = json.loads(GOLDEN.read_text(encoding="utf-8"))
    failed = False
    for name, value in built.items():
        diffs = compare(stored.get(name), value, exact=True, path=name)
        failed |= bool(diffs)
        print(f"golden {name:12s} sha256 {section_hash(value)[:16]} {'DIFFERS' if diffs else 'bit-identical'}")
        for line in diffs[:10]:
            print(f"  {line}")
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
