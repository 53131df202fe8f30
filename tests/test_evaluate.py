import pytest

from fpverify import evaluate
from fpverify.errors import EmptyScenario, FingerprintError, ZeroTrials
from fpverify.evaluate import (
    EvalReport,
    ScenarioConfig,
    compute_far,
    parse_scenario,
    report_at,
    report_text,
    run_eval,
    run_trials,
    serialize_scenario,
)
from fpverify.store import gate_trace


class TestComputeFar:
    def test_endpoints(self):
        assert compute_far(0, 100) == 0.0
        assert compute_far(100, 100) == 100.0

    def test_five_percent(self):
        assert compute_far(5, 100) == 5.0

    def test_exact_division(self):
        assert compute_far(1, 3) == 1 / 3 * 100.0

    def test_zero_trials(self):
        with pytest.raises(ZeroTrials):
            compute_far(0, 0)

    def test_range_check(self):
        with pytest.raises(ValueError):
            compute_far(5, 4)


class TestScenarioFile:
    def test_round_trip(self):
        cfg = ScenarioConfig(seed=7, fingers=5, genuine_pairs=10, imposter_pairs=20, tau=8.5)
        assert parse_scenario(serialize_scenario(cfg)) == cfg

    def test_defaults_and_comments(self):
        cfg = parse_scenario("SCEN1\n# comment\nseed 3\n\nfingers 4\n")
        assert cfg.seed == 3 and cfg.fingers == 4
        assert cfg.k == ScenarioConfig().k

    def test_bad_header(self):
        with pytest.raises(FingerprintError):
            parse_scenario("SCENARIO\nseed 1\n")

    def test_unknown_key(self):
        with pytest.raises(FingerprintError):
            parse_scenario("SCEN1\nbogus 1\n")


    @pytest.mark.parametrize(
        "body",
        [
            "fingers 0",
            "n_minutiae 0",
            "genuine_pairs -2; imposter_pairs 3",
            "seed -1",
            "k 1",
            "k 31",
            "tau 0",
            "tau nan",
            "max_translation inf",
            "max_translation 1e300",
            "max_rotation nan",
            "disk_radius 1e300",
            "disk_radius -1",
            "jitter_sigma nan",
            "fingers 1000000000000",
        ],
    )
    def test_bad_value_raises_fingerprint_error(self, body):
        # These used to divide by zero, overflow, or run a trial count of
        # their own choosing.
        with pytest.raises(FingerprintError):
            parse_scenario("SCEN1\n" + body.replace("; ", "\n") + "\n")

    def test_size_bound(self):
        # Fingers plus pairs up to MAX_SCENARIO_SIZE construct; one more raises
        # before any seed is drawn.
        n = evaluate.MAX_SCENARIO_SIZE
        assert ScenarioConfig(fingers=1, genuine_pairs=n - 1, imposter_pairs=0).genuine_pairs == n - 1
        with pytest.raises(FingerprintError):
            ScenarioConfig(fingers=2, genuine_pairs=n - 2, imposter_pairs=1)


def small_scenario(**kw):
    base = dict(
        seed=5, fingers=6, n_minutiae=25, k=3, genuine_pairs=20, imposter_pairs=20
    )
    base.update(kw)
    return ScenarioConfig(**base)


class TestRunEval:
    def test_self_pairs_only_all_accept(self):
        scenario = small_scenario(jitter_sigma=0.0, imposter_pairs=0, genuine_pairs=12)
        report, _ = run_eval(scenario)
        assert report.wrong_accepts == 0
        assert report.wrong_rejects == 0
        assert report.accuracy_percent == 100.0

    def test_imposters_only_far_zero_at_tiny_tau(self):
        scenario = small_scenario(genuine_pairs=0, imposter_pairs=16, tau=0.001)
        report, _ = run_eval(scenario)
        assert report.wrong_accepts == 0
        assert report.far_percent == 0.0

    def test_far_monotone_in_tau(self):
        scenario = small_scenario()
        outcomes = run_trials(scenario)
        taus = [0.0, 1.0, 3.0, 6.0, 12.0, 24.0, 48.0, 100.0]
        fars = [report_at(outcomes, t).far_percent for t in taus]
        assert fars == sorted(fars)
        genuine_acc = [100.0 - report_at(outcomes, t).frr_percent for t in taus]
        assert genuine_acc == sorted(genuine_acc)

    def test_empty_scenario(self):
        with pytest.raises(EmptyScenario):
            run_trials(small_scenario(genuine_pairs=0, imposter_pairs=0))

    def test_deterministic(self):
        scenario = small_scenario()
        a = run_trials(scenario)
        b = run_trials(scenario)
        assert a == b

    def test_each_trial_keeps_the_result_of_its_pair(self, monkeypatch):
        # An entry is (genuine, result): the result gate_trace gave for the
        # pair compared. report_at counts the results' own decisions.
        calls = []

        def recording(*args):
            result = gate_trace(*args)
            calls.append((args, result))
            return result

        monkeypatch.setattr(evaluate, "gate_trace", recording)
        scenario = small_scenario(k=4, jitter_sigma=2.0, tau=20.0)  # gives F = 10, R = 8
        outcomes = run_trials(scenario)
        assert [genuine for genuine, _ in outcomes] == [True] * 20 + [False] * 20
        assert all(result is returned for (_, result), (_, returned) in zip(outcomes, calls, strict=True))
        assert [result for _, result in outcomes] == [gate_trace(*args) for args, _ in calls]
        wrong_accepts = sum(result.accepted for genuine, result in outcomes if not genuine)
        wrong_rejects = sum(not result.accepted for genuine, result in outcomes if genuine)
        assert wrong_accepts > 0 and wrong_rejects > 0
        report = report_at(outcomes, scenario.tau)
        assert (report.wrong_accepts, report.wrong_rejects) == (wrong_accepts, wrong_rejects)

    def test_report_invariant(self):
        # The rates follow from the counts F, R and S alone.
        report = EvalReport(wrong_accepts=1, wrong_rejects=2, trials=7)
        assert report.far_percent == compute_far(1, 7) == 1 / 7 * 100.0
        assert report.frr_percent == 2 / 7 * 100.0
        assert report.accuracy_percent == (7 - 1 - 2) / 7 * 100.0
        assert EvalReport(wrong_accepts=3, wrong_rejects=1, trials=4).accuracy_percent == 0.0
        for f, r, s in ((3, 2, 4), (-1, 0, 4), (0, -1, 4), (4, 1, 4), (0, 0, 0)):
            with pytest.raises(ValueError):
                EvalReport(wrong_accepts=f, wrong_rejects=r, trials=s)

    def test_report_text_table(self):
        scenario = small_scenario(genuine_pairs=6, imposter_pairs=6)
        report, sweep = run_eval(scenario, taus=[0.0, 12.0])
        text = report_text(report, sweep, scenario.tau)
        assert "FAR" in text
        assert text.count("\n") >= 4
