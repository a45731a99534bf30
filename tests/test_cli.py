import pytest

from undercut.cli import build_parser, main
from undercut.trace import load_trace

# every externally promised flag must be documented in some subcommand's help
PROMISED_FLAGS = (
    "--trace",
    "--preset",
    "--powers-file",
    "--depth",
    "--honest",
    "--avoidance",
    "--repetitions",
    "--seed",
    "--interval",
    "--block-limit",
    "--negligible",
    "--grid",
    "--output",
    "--jobs",
)


def all_help_text():
    parser = build_parser()
    texts = []
    for action in parser._subparsers._group_actions:
        for sub in action.choices.values():
            texts.append(sub.format_help())
    return "\n".join(texts)


def test_help_documents_every_promised_flag():
    text = all_help_text()
    for flag in PROMISED_FLAGS:
        assert flag in text, flag


def test_check_reports_branch(capsys):
    code = main(["check", "--bu", "0.2", "--bh", "0.5", "--gamma", "0.3", "--depth", "1"])
    out = capsys.readouterr().out
    assert code == 0
    assert "undercut (branch 3)" in out
    assert "expected returns" in out


def test_check_depth_two(capsys):
    code = main(["check", "--bu", "0.3", "--bh", "0.2", "--gamma", "0.05", "--depth", "2"])
    out = capsys.readouterr().out
    assert code == 0
    assert "undercut (branch 3)" in out


def test_check_stay(capsys):
    code = main(["check", "--bu", "0.2", "--bh", "0.1", "--gamma", "0.6", "--depth", "1"])
    out = capsys.readouterr().out
    assert code == 0
    assert "decision: stay" in out


@pytest.mark.parametrize("depth", ["1", "2"])
def test_check_rejects_nonpositive_grid_before_printing(capsys, depth):
    code = main(["check", "--bu", "0.3", "--bh", "0.2", "--gamma", "0.05", "--depth", depth, "--grid", "0"])
    captured = capsys.readouterr()
    assert code == 1
    assert captured.out == ""
    assert "error: grid must be positive" in captured.err


@pytest.mark.parametrize(
    "flag, value, message",
    [
        ("--bh", "nan", "power fractions must sum to 1, got nan"),
        ("--gamma", "nan", "gamma must be non-negative, got nan"),
        ("--negligible", "nan", "negligible_fee_threshold must lie in [0, 1), got nan"),
        ("--negligible", "1.5", "negligible_fee_threshold must lie in [0, 1), got 1.5"),
        ("--negligible", "-1", "negligible_fee_threshold must lie in [0, 1), got -1.0"),
    ],
    ids=["bh-nan", "gamma-nan", "negligible-nan", "negligible-above-one", "negligible-negative"],
)
@pytest.mark.parametrize("depth", ["1", "2"])
def test_check_rejects_nan_and_out_of_range_input_before_printing(capsys, depth, flag, value, message):
    code = main(["check", "--bu", "0.3", "--bh", "0.2", "--gamma", "0.05", "--depth", depth, flag, value])
    captured = capsys.readouterr()
    assert code == 1
    assert captured.out == ""
    assert f"error: {message}" in captured.err


def test_run_missing_trace_names_path(capsys):
    code = main(["run", "--trace", "/nonexistent/trace.csv", "--preset", "bitcoin16"])
    err = capsys.readouterr().err
    assert code == 1
    assert "/nonexistent/trace.csv" in err


def test_usage_error_exits_two():
    with pytest.raises(SystemExit) as exc:
        main(["sweep"])  # missing required flags
    assert exc.value.code == 2


def test_synth_run_sweep_pipeline(tmp_path, capsys):
    trace_path = tmp_path / "t.csv"
    code = main(
        [
            "synth",
            "--output",
            str(trace_path),
            "--rate",
            "0.05",
            "--duration",
            "20000",
            "--seed",
            "3",
            "--fee-dist",
            "pareto",
            "--fee-args",
            "1.5,50000",
            "--size-args",
            "1500,2500",
        ]
    )
    assert code == 0
    records = load_trace(trace_path)
    assert records and all(t.size > 0 for t in records)

    fixed_path = tmp_path / "fixed.csv"
    fixed = ["--size-dist", "fixed", "--size-args", "900"]
    assert main(["synth", "--output", str(fixed_path), "--rate", "0.05", "--duration", "2000"] + fixed) == 0
    fixed_records = load_trace(fixed_path)
    assert fixed_records and {t.size for t in fixed_records} == {900}

    code = main(
        [
            "run",
            "--trace",
            str(trace_path),
            "--preset",
            "monero",
            "--honest",
            "0.3",
            "--depth",
            "1",
            "--seed",
            "5",
        ]
    )
    out = capsys.readouterr().out
    assert code == 0
    assert "m15" in out and "undercutter" in out
    line = next(line for line in out.splitlines() if line.startswith("blocks="))
    summary = dict(field.split("=") for field in line.split())
    assert set(summary) == {"blocks", "confirmed_fee", "attacks", "fork_wins", "fork_losses"}
    assert int(summary["fork_wins"]) + int(summary["fork_losses"]) <= int(summary["attacks"])

    out_a, out_b = tmp_path / "a.csv", tmp_path / "b.csv"
    argv = [
        "sweep",
        "--trace",
        str(trace_path),
        "--preset",
        "monero",
        "--depth",
        "1",
        "--honest",
        "0.2,0.4",
        "--repetitions",
        "2",
        "--seed",
        "7",
    ]
    assert main(argv + ["--output", str(out_a)]) == 0
    assert main(argv + ["--output", str(out_b), "--jobs", "2"]) == 0
    assert out_a.read_bytes() == out_b.read_bytes()  # determinism, any job count


def test_run_rejects_preset_and_powers_file_together(tmp_path):
    with pytest.raises(SystemExit) as exc:
        main(
            [
                "run",
                "--trace",
                "x.csv",
                "--preset",
                "monero",
                "--powers-file",
                "p.txt",
            ]
        )
    assert exc.value.code == 2


def test_run_with_powers_file_and_overrides(tmp_path, capsys):
    from undercut.trace import preset, write_powers

    dist, _ = preset("bitcoin16")
    powers_path = tmp_path / "powers.txt"
    write_powers(dist, powers_path)
    trace_path = tmp_path / "t.csv"
    main(["synth", "--output", str(trace_path), "--rate", "0.02", "--duration", "9000", "--seed", "1"])
    capsys.readouterr()
    code = main(
        [
            "run",
            "--trace",
            str(trace_path),
            "--powers-file",
            str(powers_path),
            "--interval",
            "300",
            "--block-limit",
            "500000",
            "--negligible",
            "0.02",
            "--avoidance",
            "strict=0.8",
        ]
    )
    assert code == 0
    assert "blocks=" in capsys.readouterr().out


def test_run_rejects_bad_strict_factor(tmp_path, capsys):
    trace_path = tmp_path / "t.csv"
    main(["synth", "--output", str(trace_path), "--rate", "0.02", "--duration", "600"])
    capsys.readouterr()
    code = main(["run", "--trace", str(trace_path), "--avoidance", "strict=nan"])
    assert code == 1
    assert "strict factor must lie in (0, 1], got nan" in capsys.readouterr().err


@pytest.mark.parametrize(
    "extra, message",
    [
        (["--depth", "1.9"], "'1.9'"),
        (["--depth", "1,2.5"], "'2.5'"),
        (["--jobs", "-4"], "jobs must be a positive integer, got -4"),
        (["--jobs", "0"], "jobs must be a positive integer, got 0"),
    ],
    ids=["depth-fraction", "depth-list-fraction", "jobs-negative", "jobs-zero"],
)
def test_sweep_rejects_bad_numbers(tmp_path, capsys, extra, message):
    trace_path = tmp_path / "t.csv"
    main(["synth", "--output", str(trace_path), "--rate", "0.02", "--duration", "600"])
    capsys.readouterr()
    out_path = tmp_path / "out.csv"
    argv = ["sweep", "--trace", str(trace_path), "--repetitions", "1", "--output", str(out_path)]
    code = main(argv + extra)
    captured = capsys.readouterr()
    assert code == 1
    assert message in captured.err and captured.out == ""
    assert not out_path.exists()


@pytest.mark.parametrize(
    "extra, message",
    [
        (["--depth", "1,1"], "depth 1 is repeated"),
        (["--honest", "0.2,0.2"], "honest fraction 0.2 is repeated"),
        (["--honest", "-0.2"], "honest fraction -0.2 must be non-negative"),
        (["--honest", ","], "honest fractions must not be empty"),
    ],
    ids=["repeated-depth", "repeated-honest", "negative-honest", "empty-honest"],
)
def test_sweep_rejects_bad_cells_before_running(tmp_path, capsys, extra, message):
    trace_path = tmp_path / "t.csv"
    main(["synth", "--output", str(trace_path), "--rate", "0.02", "--duration", "600"])
    capsys.readouterr()
    out_path = tmp_path / "out.csv"
    argv = ["sweep", "--trace", str(trace_path), "--repetitions", "1", "--output", str(out_path)]
    code = main(argv + extra)
    captured = capsys.readouterr()
    assert code == 1
    assert message in captured.err and captured.out == ""
    assert not out_path.exists()


@pytest.mark.parametrize(
    "flag, value", [("--duration", "inf"), ("--duration", "nan"), ("--rate", "inf"), ("--rate", "nan")]
)
def test_synth_rejects_non_finite_bounds(tmp_path, capsys, flag, value):
    out_path = tmp_path / "t.csv"
    bounds = {"--rate": "0.02", "--duration": "600", flag: value}
    code = main(["synth", "--output", str(out_path)] + [a for kv in bounds.items() for a in kv])
    captured = capsys.readouterr()
    assert code == 1
    assert f"{flag[2:]} must be non-negative and finite, got {value}" in captured.err and captured.out == ""
    assert not out_path.exists()


@pytest.mark.parametrize(
    "dist, values, message",
    [
        ("uniform", "0,1e30", "fee uniform hi must be at most 9223372036854775807, got 1e+30"),
        ("pareto", "1.5,1e308", "fee pareto draw overflows: shape=1.5, scale=1e+308"),
    ],
    ids=["uniform-past-int64", "pareto-overflow"],
)
def test_synth_rejects_huge_fee_arguments_by_name(tmp_path, capsys, dist, values, message):
    out_path = tmp_path / "t.csv"
    args = ["--rate", "0.1", "--duration", "6000", "--fee-dist", dist, "--fee-args", values]
    assert main(["synth", "--output", str(out_path)] + args) == 1
    captured = capsys.readouterr()
    assert captured.err == f"error: {message}\n" and captured.out == ""
    assert not out_path.exists()


def test_synth_names_a_bad_distribution_argument(tmp_path, capsys):
    out_path = tmp_path / "t.csv"
    args = ["--rate", "0.02", "--duration", "600", "--fee-dist", "pareto", "--fee-args", "1.5,inf"]
    assert main(["synth", "--output", str(out_path)] + args) == 1
    captured = capsys.readouterr()
    assert "error: fee pareto scale must be finite, got inf" in captured.err and captured.out == ""
    assert not out_path.exists()


@pytest.mark.parametrize("interval", ["nan", "inf"])
def test_run_rejects_non_finite_interval(tmp_path, capsys, interval):
    trace_path = tmp_path / "t.csv"
    main(["synth", "--output", str(trace_path), "--rate", "0.02", "--duration", "600"])
    capsys.readouterr()
    code = main(["run", "--trace", str(trace_path), "--interval", interval])
    captured = capsys.readouterr()
    assert code == 1
    assert f"block_interval must be positive and finite, got {interval}" in captured.err and captured.out == ""


def test_run_rejects_negative_honest_fraction(tmp_path, capsys):
    trace_path = tmp_path / "t.csv"
    main(["synth", "--output", str(trace_path), "--rate", "0.02", "--duration", "600"])
    capsys.readouterr()
    code = main(["run", "--trace", str(trace_path), "--honest", "-0.2"])
    captured = capsys.readouterr()
    assert code == 1
    assert "honest fraction must be non-negative, got -0.2" in captured.err and captured.out == ""


@pytest.mark.parametrize("command", ["run", "sweep"])
def test_negative_seed_is_rejected_by_name(tmp_path, capsys, command):
    trace_path = tmp_path / "t.csv"
    main(["synth", "--output", str(trace_path), "--rate", "0.02", "--duration", "600"])
    capsys.readouterr()
    out_path = tmp_path / "out.csv"
    argv = [command, "--trace", str(trace_path), "--seed", "-1"]
    if command == "sweep":
        argv += ["--repetitions", "2", "--jobs", "2", "--output", str(out_path)]
    code = main(argv)
    captured = capsys.readouterr()
    assert code == 1
    assert "error: seed must be a non-negative integer, got -1" in captured.err and captured.out == ""
    assert not out_path.exists()
