"""Command-line interface.

Exit codes: 0 success/Accept, 1 Reject, 2 usage error (argparse), 3 data
error (unreadable files, unknown ids, infeasible configurations), 4 internal
error (any other exception: a fault in the program, reported in one line).
"""

from __future__ import annotations

import argparse
import dataclasses
import math
import sys
import warnings
from pathlib import Path

from . import evaluate, som, synth
from .core import load_minutiae, save_minutiae
from .errors import FingerprintError, LowConfidenceCoreWarning
from .matching import DEFAULT_TAU
from .orientation import (
    DEFAULT_SEGMENT_THRESHOLD,
    FingerClass,
    detect_core,
    estimate_block_directions,
    extract_feature_vector,
    read_pgm,
    segment_by_certainty,
)
from .store import DEFAULT_K, TemplateStore


def _feature_from_file(path: str):
    """Feature vector + certainty from a PGM image or an OF1 field file."""
    data = Path(path).read_bytes()
    if data.startswith(b"OF1"):
        field, core = synth.load_orientation_field(data)
    else:
        img = read_pgm(data)
        field = segment_by_certainty(
            estimate_block_directions(img), DEFAULT_SEGMENT_THRESHOLD
        )
        core = None
    if core is None:
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", LowConfidenceCoreWarning)
            core = detect_core(field)
    return extract_feature_vector(field, core)


def _cmd_enroll(args) -> int:
    store = TemplateStore(args.store)
    mset = load_minutiae(args.file)
    record = store.enroll(mset, args.id, k=args.k)
    print(f"enrolled {record.id}: index {record.index_key}")
    return 0


def _cmd_verify(args) -> int:
    store = TemplateStore(args.store)
    probe = load_minutiae(args.file)
    result = store.verify(probe, args.id, tau=args.tau)
    for gate in result.gates:
        print(f"gate {gate.name}: {'pass' if gate.passed else 'FAIL'}")
    s = result.score
    print(
        f"hausdorff {s.hausdorff:.3f}  mhd {s.mhd:.3f}  "
        f"(directed {s.directed_ab:.3f}/{s.directed_ba:.3f}, tau {args.tau:g})"
    )
    print("ACCEPT" if result.accepted else "REJECT")
    return 0 if result.accepted else 1


def _cmd_identify(args) -> int:
    store = TemplateStore(args.store)
    probe = load_minutiae(args.file)
    matches = store.identify(probe, tau=args.tau, k=args.k)
    if not matches:
        print("no candidates in bucket")
        return 0
    for rid, score in matches:
        print(f"{rid}\tmhd {score.mhd:.3f}\t{'accept' if score.accepted else 'reject'}")
    return 0


def _cmd_classify(args) -> int:
    trained = som.load_som(args.map)
    fv = _feature_from_file(args.image)
    label, node = som.classify(
        trained, fv.directions, fv.certainties if args.msom else None
    )
    print(f"{label.value} (node {node})")
    return 0


def _cmd_train(args) -> int:
    entries = []
    for line in Path(args.list).read_text(encoding="utf-8").splitlines():
        line = line.strip()
        if not line or line.startswith("#"):
            continue
        path, cls_name = line.rsplit(maxsplit=1)
        entries.append((path, FingerClass(cls_name)))
    if not entries:
        raise FingerprintError("training list is empty")
    vectors = [dataclasses.replace(_feature_from_file(path), class_label=cls) for path, cls in entries]
    cfg = som.TrainConfig(epochs=args.epochs, seed=args.seed)
    trainer = som.train_msom if args.msom else som.train_som
    trained = trainer(vectors, args.m, cfg)
    som.save_som(trained, args.out)
    print(f"trained {args.m}x{args.m} map on {len(vectors)} vectors -> {args.out}")
    return 0


def _cmd_eval(args) -> int:
    scenario = evaluate.parse_scenario(Path(args.scenario).read_text(encoding="utf-8"))
    taus = None
    if args.taus:
        start, stop, step = (float(v) for v in args.taus.split(":"))
        # A step <= 0 never reaches stop, and a NaN bound sweeps nothing.
        if not all(map(math.isfinite, (start, stop, step))) or step <= 0:
            raise FingerprintError(
                f"--taus needs finite start:stop:step with step > 0, not {args.taus!r}"
            )
        # Bounded before it is built; also false for a count that overflows to inf.
        count = (stop - start) / step
        if not count <= 100_000:
            raise FingerprintError(f"--taus {args.taus!r} sweeps more than 100,000 steps")
        taus = [round(start + i * step, 9) for i in range(math.floor(count + 1e-9) + 1)]
    main_report, sweep = evaluate.run_eval(scenario, taus)
    text = evaluate.report_text(main_report, sweep, scenario.tau)
    if args.out:
        Path(args.out).write_text(text, encoding="utf-8")
    print(text, end="")
    return 0


def _cmd_synth(args) -> int:
    cfg = synth.SynthConfig(
        n_minutiae=args.n,
        disk_radius=args.radius,
        jitter_sigma=args.jitter,
        finger_class=FingerClass(args.finger_class),
        seed=args.seed,
    )
    if args.kind == "minutiae":
        save_minutiae(synth.gen_synthetic_minutiae(cfg), args.out)
    else:
        field, core = synth.gen_synthetic_orientation(cfg)
        synth.save_orientation_field(field, args.out, core=core)
    print(f"wrote {args.out}")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="fpverify", description="Fingerprint enrollment and verification toolkit"
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("enroll", help="add a minutiae file to a template store")
    p.add_argument("--store", required=True)
    p.add_argument("--id", required=True)
    p.add_argument("--k", type=int, default=DEFAULT_K)
    p.add_argument("file")
    p.set_defaults(func=_cmd_enroll)

    p = sub.add_parser("verify", help="check a probe against one enrolled id")
    p.add_argument("--store", required=True)
    p.add_argument("--id", required=True)
    p.add_argument("--tau", type=float, default=DEFAULT_TAU)
    p.add_argument("file")
    p.set_defaults(func=_cmd_verify)

    p = sub.add_parser("identify", help="rank candidates from the probe's index bucket")
    p.add_argument("--store", required=True)
    p.add_argument("--tau", type=float, default=DEFAULT_TAU)
    p.add_argument("--k", type=int, help="default: the k of the store's templates")
    p.add_argument("file")
    p.set_defaults(func=_cmd_identify)

    p = sub.add_parser("classify", help="classify a fingerprint image with a trained map")
    p.add_argument("--map", required=True)
    p.add_argument("--msom", action="store_true", help="use the certainty-weighted winner")
    p.add_argument("image")
    p.set_defaults(func=_cmd_classify)

    p = sub.add_parser("train", help="train a map from a list of labeled inputs")
    p.add_argument("--out", required=True)
    p.add_argument("--m", type=int, required=True)
    p.add_argument("--epochs", type=int, default=100)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--msom", action="store_true")
    p.add_argument("list", help="text file: one '<path> <class>' entry per line")
    p.set_defaults(func=_cmd_train)

    p = sub.add_parser("eval", help="run a genuine/imposter scenario")
    p.add_argument("--scenario", required=True)
    p.add_argument("--taus", help="threshold sweep start:stop:step")
    p.add_argument("--out")
    p.set_defaults(func=_cmd_eval)

    p = sub.add_parser("synth", help="generate synthetic data")
    p.add_argument("kind", choices=["minutiae", "field"])
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--class", dest="finger_class", default="arch",
                   choices=[c.value for c in FingerClass])
    p.add_argument("--n", type=int, default=30)
    p.add_argument("--radius", type=float, default=120.0)
    p.add_argument("--jitter", type=float, default=1.0)
    p.add_argument("--out", required=True)
    p.set_defaults(func=_cmd_synth)

    return parser


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except (FingerprintError, OSError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    except Exception as exc:  # exit 1 would read as "Reject"
        print(f"internal error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 4


if __name__ == "__main__":
    sys.exit(main())
