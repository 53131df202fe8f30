"""False-accept / false-reject evaluation over synthetic genuine and
imposter trials, with threshold sweeps.

A scenario is a plain-text, diffable description of the experiment: how many
synthetic fingers to generate, how they are perturbed into probe
impressions, and how many genuine and imposter comparisons to run. Every
trial runs the full verification gate logic and keeps the pair's
``VerifyResult``; an accepted imposter counts into F, a rejected genuine into
R, and FAR = F / S * 100 over the S trials.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, fields

import numpy as np

from .core import MAX_COORDINATE
from .errors import EmptyScenario, FingerprintError, ZeroTrials
from .matching import DEFAULT_TAU, check_tau
from .store import DEFAULT_K, VerifyResult, compute_signature, decide, gate_trace
from .synth import SynthConfig, gen_synthetic_minutiae, perturb_impression

MAX_SCENARIO_SIZE = 1_000_000  # fingers plus trials, each drawing one seed before any trial runs


def compute_far(wrong_accepts: int, trials: int) -> float:
    """FAR as a percentage: wrongly accepted trials over all trials, times 100."""
    if trials < 1:
        raise ZeroTrials("rate over zero trials is undefined")
    if not 0 <= wrong_accepts <= trials:
        raise ValueError("wrong-accept count must lie in [0, trials]")
    return wrong_accepts / trials * 100.0


@dataclass(frozen=True)
class EvalReport:
    """The counts of one evaluation; the three rates follow from them."""

    wrong_accepts: int  # F
    wrong_rejects: int  # R
    trials: int  # S

    def __post_init__(self):
        f, r, s = self.wrong_accepts, self.wrong_rejects, self.trials
        if min(f, r) < 0 or f + r > s or s < 1:
            raise ValueError("counts must satisfy F, R >= 0, F + R <= S and S >= 1")

    @property
    def far_percent(self) -> float:
        return compute_far(self.wrong_accepts, self.trials)

    @property
    def frr_percent(self) -> float:
        return self.wrong_rejects / self.trials * 100.0

    @property
    def accuracy_percent(self) -> float:
        return (self.trials - self.wrong_accepts - self.wrong_rejects) / self.trials * 100.0


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

    def __post_init__(self):
        if min(self.seed, self.genuine_pairs, self.imposter_pairs) < 0 or self.fingers < 1:
            raise FingerprintError("seed and pair counts must be >= 0, fingers >= 1")
        if self.fingers + self.genuine_pairs + self.imposter_pairs > MAX_SCENARIO_SIZE:
            raise FingerprintError(f"fingers plus pairs must total at most {MAX_SCENARIO_SIZE:,}")
        if not 2 <= self.k <= self.n_minutiae:
            raise FingerprintError(f"k must lie in [2, n_minutiae], not {self.k}")
        if not (math.isfinite(self.max_rotation) and 0 <= self.max_translation <= MAX_COORDINATE):
            raise FingerprintError(f"max_rotation must be finite, max_translation in [0, {MAX_COORDINATE:g}]")
        check_tau(self.tau)
        self.synth_config()  # checks n_minutiae, disk_radius and jitter_sigma

    def synth_config(self, seed: int = 0) -> SynthConfig:
        """The synthesis settings of the scenario's fingers and impressions."""
        return SynthConfig(
            n_minutiae=self.n_minutiae, disk_radius=self.disk_radius, jitter_sigma=self.jitter_sigma, seed=seed
        )


_SCENARIO_FIELDS = {f.name: type(f.default) for f in fields(ScenarioConfig)}


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
    return ScenarioConfig(**values)  # raises FingerprintError on a bad value


def serialize_scenario(cfg: ScenarioConfig) -> str:
    lines = ["SCEN1"]
    for key in _SCENARIO_FIELDS:
        lines.append(f"{key} {getattr(cfg, key)}")
    return "\n".join(lines) + "\n"


def run_trials(scenario: ScenarioConfig) -> list[tuple[bool, VerifyResult]]:
    """Run all genuine and imposter comparisons of a scenario, each as
    (genuine, the pair's ``gate_trace`` result at the scenario's tau).

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
    fingers = [gen_synthetic_minutiae(scenario.synth_config(int(seeds[i]))) for i in range(scenario.fingers)]
    signatures = [compute_signature(f, k=scenario.k) for f in fingers]

    outcomes = []
    for trial in range(total):
        genuine = trial < scenario.genuine_pairs
        seed = int(seeds[scenario.fingers + trial])
        t_idx = trial % scenario.fingers
        p_idx = t_idx if genuine else (t_idx + 1 + trial % (scenario.fingers - 1)) % scenario.fingers
        probe_set = perturb_impression(
            fingers[p_idx],
            scenario.synth_config(seed),
            max_rotation=scenario.max_rotation,
            max_translation=scenario.max_translation,
        )
        probe_sig = compute_signature(probe_set, k=scenario.k)
        outcomes.append((genuine, gate_trace(probe_sig, signatures[t_idx], scenario.tau)))
    return outcomes


def report_at(outcomes: list[tuple[bool, VerifyResult]], tau: float) -> EvalReport:
    """The counts at threshold tau: ``decide`` takes each trial again from its
    index and isomorphism gates and its MHD, which do not depend on tau."""
    if not outcomes:
        raise EmptyScenario("no trial outcomes")
    f = r = 0
    for genuine, result in outcomes:
        index_gate, iso_gate, _ = result.gates
        accepted = decide(index_gate.passed, iso_gate.passed, result.score.mhd, tau)[1]
        f += accepted and not genuine
        r += genuine and not accepted
    return EvalReport(wrong_accepts=f, wrong_rejects=r, trials=len(outcomes))


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
