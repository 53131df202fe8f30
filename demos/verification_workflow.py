"""End-to-end enrollment and verification against an on-disk store.

Equivalent CLI session:

    fpverify synth minutiae --seed 1 --out alice.min
    fpverify enroll --store db --id alice --k 5 alice.min
    fpverify verify --store db --id alice --tau 12 probe.min
    fpverify identify --store db --tau 12 probe.min
"""

import tempfile
from pathlib import Path

from fpverify import SynthConfig, TemplateStore, gen_synthetic_minutiae, perturb_impression
from fpverify.store import GATES

with tempfile.TemporaryDirectory() as tmp:
    store = TemplateStore(Path(tmp) / "db")

    # Enroll three fingers.
    fingers = {name: gen_synthetic_minutiae(SynthConfig(seed=i)) for i, name in
               enumerate(["alice", "bob", "carol"])}
    for name, s in fingers.items():
        record = store.enroll(s, name, k=3)
        print(f"enrolled {name:6s} index {record.index_key}")

    # A fresh impression of alice's finger: jitter plus a rigid motion.
    probe = perturb_impression(fingers["alice"], SynthConfig(jitter_sigma=1.0, seed=99))

    print("\nverify probe against each claim:")
    for name in fingers:
        result = store.verify(probe, name, tau=12.0)
        gates = " ".join(f"{name}={'ok' if passed else 'NO'}" for name, passed in zip(GATES, result.gates))
        print(f"  claim {name:6s} {'ACCEPT' if result.accepted else 'reject'}  "
              f"mhd {result.score.mhd:7.2f}  [{gates}]")

    print("\nidentification (bucket scan, best first):")
    for rid, score in store.identify(probe, tau=12.0, k=3):
        print(f"  {rid:6s} mhd {score.mhd:7.2f}")

    print(f"\nstore manifest ({store.directory / 'manifest.txt'}):")
    print((store.directory / "manifest.txt").read_text(), end="")
