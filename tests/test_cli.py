from pathlib import Path

import numpy as np
import pytest

from fpverify.cli import main
from fpverify.core import load_minutiae, serialize_minutiae
from fpverify.orientation import FingerClass
from fpverify.som import load_som
from fpverify.synth import SynthConfig, gen_synthetic_minutiae, load_orientation_field


def run(*argv):
    return main([str(a) for a in argv])


@pytest.fixture
def probe_file(tmp_path):
    s = gen_synthetic_minutiae(SynthConfig(seed=77))
    path = tmp_path / "probe.min"
    path.write_bytes(serialize_minutiae(s))
    return path


class TestEnrollVerify:
    def test_enroll_then_verify_accept(self, tmp_path, probe_file, capsys):
        store = tmp_path / "db"
        assert run("enroll", "--store", store, "--id", "alice", "--k", 5, probe_file) == 0
        assert "index V" in capsys.readouterr().out
        assert run("verify", "--store", store, "--id", "alice", "--tau", 12, probe_file) == 0
        out = capsys.readouterr().out
        assert "ACCEPT" in out and "gate index: pass" in out

    def test_verify_reject_exit_code(self, tmp_path, probe_file, capsys):
        store = tmp_path / "db"
        run("enroll", "--store", store, "--id", "a", probe_file)
        other = tmp_path / "other.min"
        other.write_bytes(serialize_minutiae(gen_synthetic_minutiae(SynthConfig(seed=5078))))
        code = run("verify", "--store", store, "--id", "a", other)
        assert code == 1
        assert "REJECT" in capsys.readouterr().out

    def test_duplicate_enroll_is_data_error(self, tmp_path, probe_file, capsys):
        store = tmp_path / "db"
        assert run("enroll", "--store", store, "--id", "a", probe_file) == 0
        assert run("enroll", "--store", store, "--id", "a", probe_file) == 3

    def test_unknown_id_is_data_error(self, tmp_path, probe_file):
        store = tmp_path / "db"
        run("enroll", "--store", store, "--id", "a", probe_file)
        assert run("verify", "--store", store, "--id", "nobody", probe_file) == 3

    def test_read_commands_on_a_missing_store_leave_no_directory(self, tmp_path, probe_file, capsys):
        store = tmp_path / "typo_store"
        assert run("verify", "--store", store, "--id", "a", probe_file) == 3
        assert run("identify", "--store", store, probe_file) == 0
        assert "no candidates" in capsys.readouterr().out
        assert not store.exists()
        assert run("enroll", "--store", store / "nested", "--id", "a", probe_file) == 0
        assert (store / "nested" / "a.rec").is_file()

    def test_identify_lists_candidates(self, tmp_path, probe_file, capsys):
        store = tmp_path / "db"
        run("enroll", "--store", store, "--id", "a", probe_file)
        capsys.readouterr()
        assert run("identify", "--store", store, "--tau", 12, probe_file) == 0
        assert "a\t" in capsys.readouterr().out

    def test_identify_tag_follows_the_accept_rule(self, tmp_path, capsys):
        # Seeds 1 and 15 share a k=7 index key but their cluster graphs are
        # not isomorphic, so the bucket-mate is rejected however large tau is.
        from fpverify.graph import is_isomorphic
        from fpverify.store import compute_signature

        files = []
        for seed in (1, 15):
            path = tmp_path / f"f{seed}.min"
            path.write_bytes(serialize_minutiae(gen_synthetic_minutiae(SynthConfig(seed=seed))))
            files.append(path)
        sigs = [compute_signature(load_minutiae(f), k=7) for f in files]
        assert sigs[0].index_key == sigs[1].index_key
        assert not is_isomorphic(sigs[0].graph, sigs[1].graph)

        store = tmp_path / "db"
        run("enroll", "--store", store, "--id", "t", "--k", 7, files[0])
        capsys.readouterr()
        assert run("identify", "--store", store, "--k", 7, "--tau", 1e6, files[1]) == 0
        line = capsys.readouterr().out.strip()
        assert line.startswith("t\tmhd ") and line.endswith("\treject")
        assert float(line.split()[2]) <= 1e6
        assert run("verify", "--store", store, "--id", "t", "--tau", 1e6, files[1]) == 1

    def test_identify_takes_k_from_the_store(self, tmp_path, probe_file, capsys):
        # verify clusters the probe with the record's k; identify without
        # --k must do the same, not fall back to k=5 and find an empty bucket.
        store = tmp_path / "db"
        run("enroll", "--store", store, "--id", "a", "--k", 7, probe_file)
        capsys.readouterr()
        assert run("identify", "--store", store, "--tau", 12, probe_file) == 0
        assert capsys.readouterr().out.startswith("a\tmhd ")
        assert run("verify", "--store", store, "--id", "a", "--tau", 12, probe_file) == 0

    def test_identify_without_k_on_a_mixed_store_is_data_error(self, tmp_path, probe_file, capsys):
        store = tmp_path / "db"
        run("enroll", "--store", store, "--id", "a", "--k", 5, probe_file)
        run("enroll", "--store", store, "--id", "b", "--k", 7, probe_file)
        capsys.readouterr()
        assert run("identify", "--store", store, probe_file) == 3
        err = capsys.readouterr().err
        assert "k = 5, 7" in err and "--k" in err
        assert run("identify", "--store", store, "--k", 7, probe_file) == 0
        assert capsys.readouterr().out.startswith("b\tmhd ")

    @pytest.mark.parametrize("new_key", ["V5|D2,2,2,1,1|H9|M1:2,2:3", "V5|x"])
    def test_non_canonical_manifest_key_is_data_error(self, tmp_path, probe_file, capsys, new_key):
        # A key that no graph has would leave identify an empty bucket, not a wrong answer.
        store = tmp_path / "db"
        run("enroll", "--store", store, "--id", "a", probe_file)
        manifest = store / "manifest.txt"
        rec_id, _, fname = manifest.read_text().rstrip("\n").split("\t")
        manifest.write_text(f"{rec_id}\t{new_key}\t{fname}\n")
        capsys.readouterr()
        assert run("identify", "--store", store, probe_file) == 3
        assert "manifest line 1: not a canonical index string" in capsys.readouterr().err
        assert run("verify", "--store", store, "--id", "a", probe_file) == 3

    def test_usage_error_exit_code(self):
        with pytest.raises(SystemExit) as err:
            run("verify", "--store")
        assert err.value.code == 2


class TestSynthCommand:
    def test_synth_minutiae(self, tmp_path, capsys):
        out = tmp_path / "f.min"
        assert run("synth", "minutiae", "--seed", 3, "--n", 12, "--out", out) == 0
        s = load_minutiae(out)
        assert len(s) == 12 and s.core is not None

    def test_synth_field(self, tmp_path):
        out = tmp_path / "f.of1"
        assert run("synth", "field", "--seed", 3, "--class", "whorl", "--out", out) == 0
        field, core = load_orientation_field(out)
        assert core is not None and field.rows > 10


class TestTrainClassify:
    def test_train_and_classify_roundtrip(self, tmp_path, capsys):
        entries = []
        for i, cls in enumerate(FingerClass):
            for j in range(3):
                path = tmp_path / f"{cls.value}_{j}.of1"
                run("synth", "field", "--seed", 1000 * i + j, "--class", cls.value, "--out", path)
                entries.append(f"{path} {cls.value}")
        listing = tmp_path / "train.lst"
        listing.write_text("\n".join(entries) + "\n")
        map_path = tmp_path / "map.som"
        capsys.readouterr()
        assert (
            run("train", "--out", map_path, "--m", 6, "--epochs", 30, "--seed", 4, listing) == 0
        )
        loaded = load_som(map_path)
        assert loaded.m == 6

        probe = tmp_path / "probe.of1"
        run("synth", "field", "--seed", 999, "--class", "whorl", "--out", probe)
        capsys.readouterr()
        assert run("classify", "--map", map_path, probe) == 0
        printed = capsys.readouterr().out
        assert any(c.value in printed for c in FingerClass)

    def test_classify_msom_flag(self, tmp_path, capsys):
        entries = []
        for i, cls in enumerate(FingerClass):
            for j in range(2):
                path = tmp_path / f"{cls.value}_{j}.of1"
                run("synth", "field", "--seed", 100 * i + j, "--class", cls.value, "--out", path)
                entries.append(f"{path} {cls.value}")
        listing = tmp_path / "train.lst"
        listing.write_text("\n".join(entries) + "\n")
        map_path = tmp_path / "map.som"
        run("train", "--out", map_path, "--m", 5, "--epochs", 20, "--seed", 1, "--msom", listing)
        probe = tmp_path / "probe.of1"
        run("synth", "field", "--seed", 55, "--class", "left_loop", "--out", probe)
        assert run("classify", "--map", map_path, "--msom", probe) == 0

    def test_classify_pgm_image(self, tmp_path, capsys):
        from fpverify.orientation import GrayImage, write_pgm

        # vertical-ridge sinusoid: a valid PGM input end to end
        yy, xx = np.mgrid[0:304, 0:304]
        img = GrayImage(
            np.round(128 + 100 * np.sin(2 * np.pi * xx / 8)).astype(np.uint8)
        )
        pgm = tmp_path / "ridges.pgm"
        write_pgm(img, pgm)

        entries = []
        for i, cls in enumerate(FingerClass):
            path = tmp_path / f"{cls.value}.of1"
            run("synth", "field", "--seed", i, "--class", cls.value, "--out", path)
            entries.append(f"{path} {cls.value}")
        listing = tmp_path / "t.lst"
        listing.write_text("\n".join(entries) + "\n")
        map_path = tmp_path / "m.som"
        run("train", "--out", map_path, "--m", 5, "--epochs", 10, "--seed", 0, listing)
        assert run("classify", "--map", map_path, pgm) == 0

    def test_field_path_that_starts_with_of1(self, tmp_path, monkeypatch, capsys):
        # A relative path that starts like the OF1 header is still a path.
        monkeypatch.chdir(tmp_path)
        assert run("synth", "field", "--seed", 5, "--class", "whorl", "--out", "OF1_whorl.of1") == 0
        Path("t.lst").write_text("OF1_whorl.of1 whorl\n")
        assert run("train", "--out", "m.som", "--m", 2, "--epochs", 2, "t.lst") == 0
        assert run("classify", "--map", "m.som", "OF1_whorl.of1") == 0


class TestBadInput:
    @pytest.fixture
    def field_and_map(self, tmp_path):
        field = tmp_path / "f.of1"
        run("synth", "field", "--seed", 1, "--out", field)
        listing = tmp_path / "t.lst"
        listing.write_text(f"{field} arch\n")
        map_path = tmp_path / "m.som"
        run("train", "--out", map_path, "--m", 2, "--epochs", 2, listing)
        return field, map_path

    def test_som_map_with_unknown_label_is_data_error(self, field_and_map, capsys):
        field, map_path = field_and_map
        lines = map_path.read_text().splitlines()
        lines[1] = "spiral"
        map_path.write_text("\n".join(lines) + "\n")
        capsys.readouterr()
        assert run("classify", "--map", map_path, field) == 3
        assert "spiral" in capsys.readouterr().err

    def test_header_only_field_is_data_error(self, field_and_map, tmp_path, capsys):
        field, map_path = field_and_map
        header_only = tmp_path / "h.of1"
        header_only.write_text(field.read_text().splitlines()[0] + "\n")
        capsys.readouterr()
        assert run("classify", "--map", map_path, header_only) == 3
        assert "error:" in capsys.readouterr().err

    def test_field_with_block_size_zero_is_data_error(self, field_and_map, tmp_path, capsys):
        # Block size 0 divided by zero in extract_feature_vector: exit 4.
        field, map_path = field_and_map
        lines = field.read_text().splitlines()
        lines[0] = " ".join(lines[0].split()[:3] + ["0"])
        zero = tmp_path / "z.of1"
        zero.write_text("\n".join(lines) + "\n")
        capsys.readouterr()
        assert run("classify", "--map", map_path, zero) == 3
        assert "block size" in capsys.readouterr().err

    @pytest.mark.parametrize("pixel", ["300", "-1"])
    def test_p2_pixel_out_of_range_is_data_error(self, tmp_path, pixel, capsys):
        # The uint8 cast used to raise OverflowError first: exit 4, "internal error".
        image = tmp_path / "bad.pgm"
        image.write_text(f"P2\n16 16\n255\n{pixel}" + " 7" * 255 + "\n")
        listing = tmp_path / "t.lst"
        listing.write_text(f"{image} arch\n")
        capsys.readouterr()
        assert run("train", "--out", tmp_path / "m.som", "--m", 2, "--epochs", 2, listing) == 3
        assert "P2 pixel values" in capsys.readouterr().err

    @pytest.mark.parametrize("tau", ["nan", "-1", "0", "inf"])
    def test_bad_tau_is_data_error(self, tmp_path, probe_file, tau, capsys):
        # Exit 1 would read as "Reject"; a threshold that is not a positive
        # finite number is bad input, for a scored pair and an empty bucket.
        store = tmp_path / "db"
        run("enroll", "--store", store, "--id", "a", probe_file)
        capsys.readouterr()
        assert run("verify", "--store", store, "--id", "a", "--tau", tau, probe_file) == 3
        assert "tau" in capsys.readouterr().err
        assert run("identify", "--store", store, "--tau", tau, probe_file) == 3
        assert run("identify", "--store", tmp_path / "empty", "--tau", tau, probe_file) == 3


class TestEvalCommand:
    def test_eval_scenario(self, tmp_path, capsys):
        scenario = tmp_path / "s.scen"
        scenario.write_text(
            "SCEN1\nseed 2\nfingers 5\nn_minutiae 25\nk 3\n"
            "genuine_pairs 10\nimposter_pairs 10\n"
        )
        report = tmp_path / "report.txt"
        assert run("eval", "--scenario", scenario, "--taus", "0:20:5", "--out", report) == 0
        text = report.read_text()
        assert "FAR" in text and "accuracy" in text
        assert run("eval", "--scenario", tmp_path / "missing.scen") == 3

    @pytest.mark.parametrize(
        "lines",
        [
            "fingers 0; imposter_pairs 0",
            "max_rotation nan",
            "disk_radius 1e300",
            "genuine_pairs -2; imposter_pairs 3",
        ],
    )
    def test_bad_scenario_value_is_data_error(self, tmp_path, lines, capsys):
        scenario = tmp_path / "s.scen"
        scenario.write_text("SCEN1\nn_minutiae 25\nk 3\n" + lines.replace("; ", "\n") + "\n")
        assert run("eval", "--scenario", scenario) == 3
        assert "error:" in capsys.readouterr().err

    @pytest.mark.parametrize("kind", ["minutiae", "field"])
    def test_huge_synth_radius_is_data_error(self, tmp_path, kind, capsys):
        assert run("synth", kind, "--radius", "1e300", "--out", tmp_path / "out") == 3
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("taus", ["0:20:0", "0:20:-1", "nan:20:1", "0:200000:1"])
    def test_bad_tau_sweep_is_data_error(self, tmp_path, taus, capsys):
        # A step <= 0 never reaches the stop and used to grow the sweep until
        # memory ran out; a NaN bound gave an empty sweep without a word; a
        # sweep of more than 100,000 steps is refused before it is built.
        scenario = tmp_path / "s.scen"
        scenario.write_text("SCEN1\nseed 2\nfingers 5\nn_minutiae 25\nk 3\n")
        assert run("eval", "--scenario", scenario, "--taus", taus) == 3
        assert "--taus" in capsys.readouterr().err


class TestInternalError:
    def test_unexpected_exception_exits_4_in_one_line(self, tmp_path, monkeypatch, capsys):
        # Exit 1 would read as "Reject": a fault in the program gets its own
        # code and one line on stderr, not a traceback.
        import fpverify.cli as cli

        def broken(args):
            raise RuntimeError("boom")

        monkeypatch.setattr(cli, "_cmd_synth", broken)
        assert run("synth", "minutiae", "--out", tmp_path / "f.min") == 4
        captured = capsys.readouterr()
        assert captured.err == "internal error: RuntimeError: boom\n"
        assert captured.out == ""
