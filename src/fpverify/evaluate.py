"""False-accept / false-reject evaluation over synthetic genuine and
imposter trials, with threshold sweeps.

A scenario is a plain-text, diffable description of the experiment: how many
synthetic fingers to generate, how they are perturbed into probe
impressions, and how many genuine and imposter comparisons to run. Every
trial runs the full verification gate logic; an accepted imposter counts
into F, a rejected genuine into R, and FAR = F / S * 100 over the S trials.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

from .errors import EmptyScenario, FingerprintError, ZeroTrials
from .matching import DEFAULT_TAU, Decision
from .store import DEFAULT_K, compute_signature, decide, gate_trace
from .synth import SynthConfig, gen_synthetic_minutiae, perturb_impression


def compute_far(wrong_accepts: int, trials: int) -> float:
    """FAR as a percentage: wrongly accepted trials over all trials, times 100."""
    if trials < 1:
        raise ZeroTrials("rate over zero trials is undefined")
    if not 0 <= wrong_accepts <= trials:
        raise ValueError("wrong-accept count must lie in [0, trials]")
    return wrong_accepts / trials * 100.0


@dataclass(frozen=True)
class EvalReport:
    far_percent: float
    frr_percent: float
    accuracy_percent: float
    wrong_accepts: int  # F
    wrong_rejects: int  # R
    trials: int  # S

    def __post_init__(self):
        if self.far_percent != compute_far(self.wrong_accepts, self.trials):
            raise ValueError("far_percent must equal F/S*100 exactly")
        for pct in (self.far_percent, self.frr_percent, self.accuracy_percent):
            if not 0.0 <= pct <= 100.0:
                raise ValueError("percentages must lie in [0, 100]")


@dataclass(frozen=True)
class ScenarioConfig:
    seed: int = 0
    fingers: int = 20
    n_minutiae: int = 30
    disk_radius: float = 120.0
    jitter_sigma: float = 1.0
    k: int = DEFAULT_K
    tau: float = DEFAULT_TAU
    genuine_pairs: int = 100
    imposter_pairs: int = 100
    max_rotation: float = 2 * np.pi
    max_translation: float = 20.0


_SCENARIO_FIELDS = {
    "seed": int,
    "fingers": int,
    "n_minutiae": int,
    "disk_radius": float,
    "jitter_sigma": float,
    "k": int,
    "tau": float,
    "genuine_pairs": int,
    "imposter_pairs": int,
    "max_rotation": float,
    "max_translation": float,
}


def parse_scenario(text: str) -> ScenarioConfig:
    """Parse ``SCEN1`` key/value lines; unknown keys are rejected."""
    lines = [ln.strip() for ln in text.splitlines()]
    lines = [ln for ln in lines if ln and not ln.startswith("#")]
    if not lines or lines[0] != "SCEN1":
        raise FingerprintError("scenario file must start with 'SCEN1'")
    values = {}
    for ln in lines[1:]:
        try:
            key, raw = ln.split(maxsplit=1)
            values[key] = _SCENARIO_FIELDS[key](raw)
        except (ValueError, KeyError) as exc:
            raise FingerprintError(f"bad scenario line {ln!r}") from exc
    return ScenarioConfig(**values)


def serialize_scenario(cfg: ScenarioConfig) -> str:
    lines = ["SCEN1"]
    for key in _SCENARIO_FIELDS:
        lines.append(f"{key} {getattr(cfg, key)}")
    return "\n".join(lines) + "\n"


@dataclass(frozen=True)
class TrialOutcome:
    genuine: bool
    index_ok: bool
    iso_ok: bool
    mhd: float

    def accepted(self, tau: float) -> bool:
        return decide(self.index_ok, self.iso_ok, self.mhd, tau)[1] is Decision.ACCEPT


def run_trials(scenario: ScenarioConfig) -> list[TrialOutcome]:
    """Generate all genuine and imposter comparisons for a scenario.

    Fingers and per-trial perturbation seeds derive deterministically from
    the scenario seed. Genuine trials compare a finger with a perturbed
    impression of itself; imposter trials compare a finger with a perturbed
    impression of a different finger.
    """
    total = scenario.genuine_pairs + scenario.imposter_pairs
    if total < 1:
        raise EmptyScenario("scenario defines no trials")
    if scenario.fingers < 2 and scenario.imposter_pairs > 0:
        raise EmptyScenario("imposter trials need at least two fingers")

    seeds = np.random.SeedSequence(scenario.seed).generate_state(scenario.fingers + total)
    base = SynthConfig(
        n_minutiae=scenario.n_minutiae,
        disk_radius=scenario.disk_radius,
        jitter_sigma=scenario.jitter_sigma,
    )
    fingers = [
        gen_synthetic_minutiae(replace(base, seed=int(seeds[i])))
        for i in range(scenario.fingers)
    ]
    signatures = [compute_signature(f, k=scenario.k) for f in fingers]

    outcomes: list[TrialOutcome] = []
    for trial in range(total):
        genuine = trial < scenario.genuine_pairs
        seed = int(seeds[scenario.fingers + trial])
        if genuine:
            t_idx = trial % scenario.fingers
            p_idx = t_idx
        else:
            t_idx = trial % scenario.fingers
            p_idx = (t_idx + 1 + trial % (scenario.fingers - 1)) % scenario.fingers
        probe_set = perturb_impression(
            fingers[p_idx],
            replace(base, seed=seed),
            max_rotation=scenario.max_rotation,
            max_translation=scenario.max_translation,
        )
        probe_sig = compute_signature(probe_set, k=scenario.k)
        gates, score, _ = gate_trace(probe_sig, signatures[t_idx], scenario.tau)
        outcomes.append(
            TrialOutcome(
                genuine=genuine,
                index_ok=gates[0].passed,
                iso_ok=gates[1].passed,
                mhd=score.mhd,
            )
        )
    return outcomes


def report_at(outcomes: list[TrialOutcome], tau: float) -> EvalReport:
    if not outcomes:
        raise EmptyScenario("no trial outcomes")
    f = sum(1 for o in outcomes if not o.genuine and o.accepted(tau))
    r = sum(1 for o in outcomes if o.genuine and not o.accepted(tau))
    s = len(outcomes)
    return EvalReport(
        far_percent=compute_far(f, s),
        frr_percent=r / s * 100.0,
        accuracy_percent=(s - f - r) / s * 100.0,
        wrong_accepts=f,
        wrong_rejects=r,
        trials=s,
    )


def run_eval(
    scenario: ScenarioConfig, taus: list[float] | None = None
) -> tuple[EvalReport, list[tuple[float, EvalReport]]]:
    """Report at the scenario threshold plus an optional tau sweep."""
    outcomes = run_trials(scenario)
    main = report_at(outcomes, scenario.tau)
    sweep = [(tau, report_at(outcomes, tau)) for tau in (taus or [])]
    return main, sweep


def report_text(main: EvalReport, sweep: list[tuple[float, EvalReport]], tau: float) -> str:
    """Plain-text result table, one sweep row per threshold."""
    out = [
        f"trials {main.trials} (F={main.wrong_accepts} R={main.wrong_rejects})",
        f"tau {tau:g}: FAR {main.far_percent:.2f}%  FRR {main.frr_percent:.2f}%  "
        f"accuracy {main.accuracy_percent:.2f}%",
    ]
    if sweep:
        out.append("")
        out.append(f"{'tau':>8} {'FAR%':>8} {'FRR%':>8} {'accuracy%':>10}")
        for tau_i, rep in sweep:
            out.append(
                f"{tau_i:>8.2f} {rep.far_percent:>8.2f} {rep.frr_percent:>8.2f} "
                f"{rep.accuracy_percent:>10.2f}"
            )
    return "\n".join(out) + "\n"
