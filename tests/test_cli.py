import csv
import hashlib
import json

import pytest

from cplab.cli import main


def run_cli(*argv):
    return main(list(argv))


class TestLattice:
    def test_writes_artifacts(self, tmp_path):
        out = tmp_path / "run"
        assert run_cli("lattice", "--m", "13", "--out", str(out)) == 0
        manifest = json.loads((out / "lattice_manifest.json").read_text())
        assert manifest["violations"] == 0
        assert manifest["config"]["n"] == 104
        assert (out / "lattice_points.csv").exists()

    def test_missing_required_flag_exits_2(self, tmp_path):
        with pytest.raises(SystemExit) as err:
            run_cli("lattice", "--out", str(tmp_path))
        assert err.value.code == 2

    @pytest.mark.parametrize(
        "argv",
        [
            ("lattice", "--m", "10"),
            ("lattice", "--m", "0"),
            ("lattice", "--m", "13", "--n", "5"),
            ("grid", "--n", "440", "--beta", "5", "--m", "10"),
        ],
        ids=["not-fibonacci", "zero", "m-above-n", "grid-not-fibonacci"],
    )
    def test_bad_lattice_size_exits_2(self, tmp_path, capsys, argv):
        out = tmp_path / "out"
        with pytest.raises(SystemExit) as err:
            run_cli(*argv, "--out", str(out))
        assert err.value.code == 2
        stderr = capsys.readouterr().err
        assert "--m:" in stderr
        assert stderr.startswith(f"usage: cplab {argv[0]} ")
        assert not out.exists()


class TestLatticeGolden:
    """Byte-exact artifacts of `cplab lattice`, pinned from a reference run.
    The points CSV ends its lines with LF, where the CSVs of the other
    commands end them with CRLF."""

    def test_artifacts_byte_identical(self, tmp_path):
        out = tmp_path / "lattice"
        assert run_cli("lattice", "--m", "13", "--out", str(out)) == 0
        digest = hashlib.sha256((out / "lattice_points.csv").read_bytes()).hexdigest()
        assert digest == "3f1a3a4972f3905ed2e94ac4f78a5b07a68e3cd0110994a89de4d3a2bdd7682b"
        manifest = json.loads((out / "lattice_manifest.json").read_text())
        del manifest["versions"]
        assert manifest == {
            "artifacts": ["lattice_points.csv"],
            "command": "lattice",
            "config": {"m": 13, "multiplier": 8, "n": 104},
            "rectangles": 8281,
            "violations": 0,
        }


class TestFamily:
    def test_build_and_audit(self, tmp_path):
        out = tmp_path / "fam"
        code = run_cli(
            "family", "--n", "8", "--c", "2", "--seed", "1",
            "--trials", "50", "--out", str(out),
        )
        assert code == 0
        manifest = json.loads((out / "family_manifest.json").read_text())
        assert manifest["vectors"] == 64
        assert manifest["violations"] == 0
        header = (out / "family.txt").read_text().splitlines()[0]
        assert header.split()[0] == "8"

    def test_stalled_build_is_an_invariant_failure(self, tmp_path, capsys):
        # c = 0.01 needs distinct nonzero 2-bit suffixes (k = 2), and only
        # three exist for the 16 vectors
        out = tmp_path / "fam"
        code = run_cli("family", "--n", "4", "--c", "0.01", "--out", str(out))
        assert code == 1
        assert capsys.readouterr().err.startswith(
            "invariant failure: family construction stalled after 500 consecutive rejections"
        )
        assert not out.exists()  # the build fails before the output directory is made


class TestChronogram:
    def test_profile_csv_per_epoch(self, tmp_path):
        out = tmp_path / "chrono"
        code = run_cli(
            "chronogram", "--n", "55", "--beta", "5", "--structure", "orc2d",
            "--seed", "7", "--trials", "40", "--out", str(out),
        )
        assert code == 0
        manifest = json.loads((out / "chronogram_manifest.json").read_text())
        assert manifest["snapped_sizes"] == [34, 5]
        assert (out / "chronogram_trace.csv").exists()
        # one row per executed epoch in time order, and the manifest's mean
        # total is the sum of the epochs' mean t_i
        with open(out / "chronogram_profile.csv", newline="") as fh:
            header, *rows = csv.reader(fh)
        assert header == ["epoch", "queries_sampled", "mean_t_i", "max_t_i"]
        assert [(epoch, sampled) for epoch, sampled, _, _ in rows] == [("2", "40"), ("1", "40")]
        assert all(float(mean) <= int(top) for _, _, mean, top in rows)
        assert manifest["mean_total_probes"] == sum(float(mean) for _, _, mean, _ in rows)


class TestChronogramGolden:
    """Byte-exact artifacts of `cplab chronogram`, pinned from a
    reference run; they do not depend on PYTHONHASHSEED."""

    CASES = {
        "orc2d": (
            ["--n", "55", "--beta", "5", "--structure", "orc2d", "--seed", "0"],
            "5a06f4a553ee3596c7610599c6adc5cb836ae4b9f4737062c35f1c34488fbe55",
            "2dbc62f99fc43e2d5b5a3083ea39ebdd72be52f74ea4b6f710b10463c5dfdc9c",
            {
                "config": {"beta": 5.0, "kind": "orc", "n": 55, "queries_sampled": 200,
                           "seed": 0, "structure": "orc2d", "w": 32},
                "delta": 9150613,
                "epoch_sizes": [50, 5],
                "mean_total_probes": 3.795,
                "snapped_sizes": [34, 5],
            },
        ),
        "naive": (
            ["--n", "25", "--beta", "5", "--structure", "naive", "--seed", "0"],
            "98151f47a43ef1732f5be2931191e7f60565e52cbbc248c8765fa04aa47cba7c",
            "3f3cf2fd6495805dd3868f3b671c4daa07deda9092cea3b5acd985fbab6ac5cc",
            {
                "config": {"beta": 5.0, "kind": "artificial", "n": 25, "queries_sampled": 200,
                           "seed": 0, "structure": "naive", "w": 24},
                "delta": 390581,
                "epoch_sizes": [20, 5],
                "mean_total_probes": 12.54,
                "snapped_sizes": [20, 5],
            },
        ),
    }

    @pytest.mark.parametrize("structure", sorted(CASES))
    def test_artifacts_byte_identical(self, tmp_path, structure):
        argv, trace_sha, profile_sha, manifest_rest = self.CASES[structure]
        out = tmp_path / structure
        assert run_cli("chronogram", *argv, "--out", str(out)) == 0
        digest = lambda name: hashlib.sha256((out / name).read_bytes()).hexdigest()
        assert digest("chronogram_trace.csv") == trace_sha
        assert digest("chronogram_profile.csv") == profile_sha
        manifest = json.loads((out / "chronogram_manifest.json").read_text())
        del manifest["versions"]
        assert manifest == {
            "artifacts": ["chronogram_profile.csv", "chronogram_trace.csv"],
            "command": "chronogram",
            **manifest_rest,
        }


class TestEncode:
    def test_manifest_reports_exact_recovery(self, tmp_path):
        out = tmp_path / "enc"
        code = run_cli(
            "encode", "--kind", "artificial", "--n", "25", "--beta", "5",
            "--istar", "2", "--seed", "1", "--out", str(out),
        )
        assert code == 0
        manifest = json.loads((out / "encode_manifest.json").read_text())
        assert manifest["recovery"] == "exact"
        assert manifest["slack_bits"] >= 0
        assert (out / "encode_message.bin").exists()

    def test_flag0_with_overrides(self, tmp_path):
        out = tmp_path / "enc0"
        code = run_cli(
            "encode", "--kind", "artificial", "--n", "25", "--beta", "5",
            "--istar", "2", "--seed", "1", "--cell-budget", "16",
            "--probe-threshold", "12", "--tries", "8", "--out", str(out),
        )
        assert code == 0
        manifest = json.loads((out / "encode_manifest.json").read_text())
        assert manifest["flag"] == 0
        assert manifest["recovery"] == "exact"

    def test_missing_kind_exits_2(self, tmp_path):
        with pytest.raises(SystemExit) as err:
            run_cli("encode", "--n", "25", "--beta", "5", "--istar", "2")
        assert err.value.code == 2

    def test_decodes_the_file_it_writes(self, tmp_path, monkeypatch):
        # a written file that does not parse must fail the run, even though
        # the message object it came from decodes
        from cplab.encoding_game import EncodingMessage

        to_bytes = EncodingMessage.to_bytes
        monkeypatch.setattr(EncodingMessage, "to_bytes", lambda self: to_bytes(self) + b"\x00")
        out = tmp_path / "enc"
        with pytest.raises(ValueError, match="checksum"):
            run_cli(
                "encode", "--kind", "artificial", "--n", "25", "--beta", "5",
                "--istar", "2", "--seed", "1", "--cell-budget", "16",
                "--probe-threshold", "12", "--out", str(out),
            )
        assert (out / "encode_message.bin").read_bytes().endswith(b"\x00")
        assert not (out / "encode_manifest.json").exists()


class TestEncodeGolden:
    """Byte-exact flag-0 messages of `cplab encode`, pinned from a
    reference run; they do not depend on PYTHONHASHSEED."""

    CASES = {
        "artificial": (
            ["--kind", "artificial", "--n", "25", "--beta", "5", "--istar", "2",
             "--seed", "1", "--cell-budget", "16", "--probe-threshold", "12"],
            "7cbfff01302970aa36f1ff07eaad2de2c22553911f7c9b905d9c725f5f115f3a",
        ),
        "orc": (
            ["--kind", "orc", "--n", "440", "--beta", "5", "--istar", "2",
             "--seed", "3", "--probe-threshold", "8"],
            "2653379994b8a9046825c6a8aef3040a6492d525b8c45b2e28f06c033e17880e",
        ),
    }

    @pytest.mark.parametrize("kind", sorted(CASES))
    def test_message_byte_identical(self, tmp_path, kind):
        argv, message_sha = self.CASES[kind]
        out = tmp_path / kind
        assert run_cli("encode", *argv, "--out", str(out)) == 0
        manifest = json.loads((out / "encode_manifest.json").read_text())
        assert manifest["flag"] == 0
        assert manifest["recovery"] == "exact"
        digest = hashlib.sha256((out / "encode_message.bin").read_bytes()).hexdigest()
        assert digest == message_sha


class TestGrid:
    def test_trials_and_hitting_csv(self, tmp_path):
        out = tmp_path / "grid"
        code = run_cli(
            "grid", "--n", "440", "--beta", "5", "--m", "55",
            "--trials", "20", "--out", str(out),
        )
        assert code == 0
        lines = (out / "grid_trials.csv").read_text().strip().splitlines()
        assert lines[0] == "trial,|Q|,rank,well_separated_fraction"
        assert len(lines) == 21
        manifest = json.loads((out / "grid_manifest.json").read_text())
        assert manifest["full_rank_trials"] == 20
        # one row per grid, each counting the cells the first sample hits
        with open(out / "grid_hitting.csv", newline="") as fh:
            header, *rows = csv.reader(fh)
        assert header == ["grid_j", "mu", "gamma", "hitting_number"]
        assert [row[0] for row in rows] == list(manifest["grids"])
        assert all(1 <= int(row[3]) <= 11 for row in rows)  # 55 / 5 slab queries


class TestGridGolden:
    """Byte-exact artifacts of `cplab grid`, pinned from a reference run;
    they do not depend on PYTHONHASHSEED."""

    def test_artifacts_byte_identical(self, tmp_path):
        out = tmp_path / "grid"
        argv = ["--n", "440", "--beta", "5", "--m", "55", "--trials", "20", "--seed", "0"]
        assert run_cli("grid", *argv, "--out", str(out)) == 0
        digest = lambda name: hashlib.sha256((out / name).read_bytes()).hexdigest()
        assert digest("grid_trials.csv") == (
            "6f933c62a8cd0e8fcea64b82fc06ee3051a58078be70057f7a902ce8e5167099"
        )
        assert digest("grid_hitting.csv") == (
            "9004e8b399ae5539e796b5a28e79b5b70499a93a50f300a7a557d35416377790"
        )
        manifest = json.loads((out / "grid_manifest.json").read_text())
        del manifest["versions"]
        assert manifest == {
            "artifacts": ["grid_trials.csv", "grid_hitting.csv"],
            "command": "grid",
            "config": {"beta": 5.0, "m": 55, "n": 440, "seed": 0, "trials": 20},
            "full_rank_trials": 20,
            "grids": {"2": [40.0, 88.0]},
            "rounded": {"2": False},
            "separation_threshold": 7870.95928079926,
        }


class TestNRange:
    # n=1 has no prime below n^4; n=1349547 is the first n whose n^4 is
    # past the exact range of the primality test
    @pytest.mark.parametrize("n", [1, 1_349_547])
    def test_out_of_range_n_exits_2(self, tmp_path, capsys, n):
        for argv in (
            ("chronogram", "--n", str(n), "--beta", "5"),
            ("grid", "--n", str(n), "--beta", "5", "--m", "55"),
        ):
            out = tmp_path / argv[0]
            with pytest.raises(SystemExit) as err:
                run_cli(*argv, "--out", str(out))
            assert err.value.code == 2
            assert "--n:" in capsys.readouterr().err
            assert not out.exists()


class TestTrialsCount:
    @pytest.mark.parametrize(
        "argv",
        [
            ("grid", "--n", "440", "--beta", "5", "--m", "55", "--trials", "0"),
            ("chronogram", "--n", "440", "--beta", "5", "--trials", "-1"),
            ("family", "--n", "16", "--trials", "0"),
        ],
        ids=["grid", "chronogram", "family"],
    )
    def test_trials_below_one_exits_2(self, tmp_path, capsys, argv):
        out = tmp_path / "out"
        with pytest.raises(SystemExit) as err:
            run_cli(*argv, "--out", str(out))
        assert err.value.code == 2
        assert "--trials: must be a positive count" in capsys.readouterr().err
        assert not out.exists()

    def test_trials_from_config_file_checked(self, tmp_path, capsys):
        config = tmp_path / "run.conf"
        config.write_text("trials = 0\n")
        out = tmp_path / "out"
        with pytest.raises(SystemExit) as err:
            run_cli("family", "--config", str(config), "--n", "16", "--out", str(out))
        assert err.value.code == 2
        assert "--trials: must be a positive count" in capsys.readouterr().err
        assert not out.exists()


ENCODE_25 = ("encode", "--kind", "artificial", "--n", "25", "--beta", "5", "--istar", "2")


class TestUsageErrors:
    """Bad values exit 2 with the subcommand's own usage line, before
    any output directory is made."""

    @pytest.mark.parametrize(
        "argv, message",
        [
            (("grid", "--n", "440", "--beta", "1", "--m", "55"), "--beta: must be a finite"),
            (("grid", "--n", "440", "--beta", "0.5", "--m", "55"), "--beta: must be a finite"),
            (("chronogram", "--n", "25", "--beta", "nan"), "--beta: must be a finite"),
            (("chronogram", "--n", "25", "--beta", "inf"), "--beta: must be a finite"),
            (("chronogram", "--n", "25", "--beta", "1"), "--beta: must be a finite"),
            (("chronogram", "--n", "25", "--beta", "13"), "--beta: beta=13.0 outside"),
            (("encode", "--kind", "orc", "--n", "440", "--beta", "1", "--istar", "1"),
             "--beta: must be a finite"),
            (("encode", "--kind", "orc", "--n", "440", "--beta", "221", "--istar", "1"),
             "--beta: beta=221.0 outside"),
            ((*ENCODE_25, "--tries", "0"), "--tries: must be a positive count"),
            ((*ENCODE_25, "--cell-budget", "-1"), "--cell-budget: must be a positive count"),
            (("grid", "--n", "440", "--beta", "5", "--m", "5"), "--m: epoch size 5 carries no grid"),
            (("encode", "--kind", "orc", "--n", "440", "--beta", "5", "--istar", "99"),
             "--istar must be in [1, 3]"),
            (("chronogram", "--n", "25", "--beta", "5", "--w", "32"), "unrecognized"),
            ((*ENCODE_25, "--w", "8"), "unrecognized"),
            ((*ENCODE_25, "--probe-threshold", "nan"), "--probe-threshold: must be a finite"),
            ((*ENCODE_25, "--probe-threshold", "-1"), "--probe-threshold: must be a finite"),
            ((*ENCODE_25, "--probe-threshold", "inf"), "--probe-threshold: must be a finite"),
            (("family", "--n", "16", "--c", "nan"), "--c: must be a finite number > 0"),
            (("family", "--n", "16", "--c", "-1"), "--c: must be a finite number > 0"),
            (("family", "--n", "16", "--c", "0"), "--c: must be a finite number > 0"),
            (("family", "--n", "2"), "--n: family needs n >= 4"),
            (("family", "--n", "3"), "--n: family needs n >= 4"),
            (("family", "--n", "1349547"), "--n: n=1349547 is too large"),
        ],
        ids=[
            "grid-beta-1", "grid-beta-half", "chronogram-beta-nan", "chronogram-beta-inf",
            "chronogram-beta-1", "chronogram-beta-above-n-half", "encode-beta-1",
            "encode-beta-above-n-half", "encode-tries-0", "encode-cell-budget-negative",
            "grid-epoch-too-small", "encode-istar-99",
            "chronogram-w", "encode-w", "encode-probe-threshold-nan",
            "encode-probe-threshold-negative", "encode-probe-threshold-inf", "family-c-nan",
            "family-c-negative", "family-c-0", "family-n-2", "family-n-3", "family-n-too-large",
        ],
    )
    def test_exits_2_with_its_usage_and_no_directory(self, tmp_path, capsys, argv, message):
        out = tmp_path / "out"
        with pytest.raises(SystemExit) as err:
            run_cli(*argv, "--out", str(out))
        assert err.value.code == 2
        stderr = capsys.readouterr().err
        assert stderr.startswith(f"usage: cplab {argv[0]} ")
        assert message in stderr
        assert not out.exists()

    def test_beta_from_config_file_checked(self, tmp_path, capsys):
        config = tmp_path / "run.conf"
        config.write_text("beta = 1\n")
        out = tmp_path / "out"
        with pytest.raises(SystemExit) as err:
            run_cli("chronogram", "--config", str(config), "--n", "25", "--out", str(out))
        assert err.value.code == 2
        assert "--beta: must be a finite number >= 2" in capsys.readouterr().err
        assert not out.exists()

    def test_tries_default_is_the_search_default(self):
        from cplab.cli import build_parser
        from cplab.encoding_game import DEFAULT_MAX_TRIES

        args = build_parser().parse_args(list(ENCODE_25))
        assert args.tries == DEFAULT_MAX_TRIES


class TestConfigFile:
    def test_flags_override_config(self, tmp_path):
        config = tmp_path / "run.conf"
        config.write_text("m = 13\nn = 104\n# comment line\n")
        out = tmp_path / "out"
        code = run_cli("lattice", "--config", str(config), "--out", str(out))
        assert code == 0
        code = run_cli(
            "lattice", "--config", str(config), "--m", "21", "--out", str(out)
        )
        manifest = json.loads((out / "lattice_manifest.json").read_text())
        assert manifest["config"]["m"] == 21  # flag wins over file

    def test_unknown_config_key_exits_2(self, tmp_path):
        config = tmp_path / "run.conf"
        config.write_text("bogus = 1\n")
        with pytest.raises(SystemExit) as err:
            run_cli("lattice", "--config", str(config), "--m", "13")
        assert err.value.code == 2

    @pytest.mark.parametrize(
        "command, line, flags",
        [
            ("chronogram", "structure = bogus", ["--n", "55", "--beta", "5"]),
            ("encode", "kind = typo", ["--n", "25", "--beta", "5", "--istar", "2"]),
        ],
    )
    def test_config_values_are_checked_like_flags(self, tmp_path, capsys, command, line, flags):
        config = tmp_path / "run.conf"
        config.write_text(line + "\n")
        out = tmp_path / "out"
        with pytest.raises(SystemExit) as err:
            run_cli(command, "--config", str(config), *flags, "--out", str(out))
        assert err.value.code == 2
        assert "invalid choice" in capsys.readouterr().err
        assert not out.exists()

    def test_config_key_abbreviating_a_flag_exits_2(self, tmp_path):
        config = tmp_path / "run.conf"
        config.write_text("struct = naive\n")
        with pytest.raises(SystemExit) as err:
            run_cli("chronogram", "--config", str(config), "--n", "25", "--beta", "5")
        assert err.value.code == 2

    def test_config_key_with_underscore_names_the_flag(self, tmp_path):
        config = tmp_path / "run.conf"
        config.write_text("cell_budget = 16\nprobe-threshold = 12\n")
        out = tmp_path / "enc"
        argv = ["--kind", "artificial", "--n", "25", "--beta", "5", "--istar", "2", "--seed", "1"]
        assert run_cli("encode", "--config", str(config), *argv, "--out", str(out)) == 0
        manifest = json.loads((out / "encode_manifest.json").read_text())
        assert manifest["config"]["cell_budget"] == 16
        assert manifest["config"]["probe_threshold"] == 12.0


class TestOptionsPerCommand:
    def test_option_the_command_does_not_read_exits_2(self, tmp_path):
        with pytest.raises(SystemExit) as err:
            run_cli("lattice", "--m", "13", "--seed", "1", "--out", str(tmp_path / "out"))
        assert err.value.code == 2
        assert not (tmp_path / "out").exists()


class TestAcceptanceCommand:
    def test_only_lattice(self, capsys):
        assert run_cli("acceptance", "--only", "lattice") == 0
        out = capsys.readouterr().out
        assert "criterion 1" in out
        assert "criterion 2" not in out

    def test_only_field(self):
        assert run_cli("acceptance", "--only", "field") == 0

    def test_unknown_only_exits_2(self):
        with pytest.raises(SystemExit) as err:
            run_cli("acceptance", "--only", "nonsense")
        assert err.value.code == 2

    def test_failed_criterion_exits_1(self, capsys, monkeypatch):
        from cplab.acceptance import AcceptanceSuite, CriterionResult

        monkeypatch.setattr(
            AcceptanceSuite, "fibonacci_area_bounds",
            lambda self: CriterionResult(1, "fibonacci-area-bounds", False, "forced"),
        )
        assert run_cli("acceptance", "--only", "lattice") == 1
        out = capsys.readouterr().out
        assert "FAIL criterion 1 (fibonacci-area-bounds): forced" in out
        assert "1 criterion(s) failed: fibonacci-area-bounds" in out
