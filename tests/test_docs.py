"""Documentation consistency checks.

Docs drift silently; these tests pin the claims that are cheap to verify
mechanically: referenced files exist, documented constants match the code,
and the README's command lines are real.
"""

import os
import re
import shlex

import pytest

REPO = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def read(relpath):
    with open(os.path.join(REPO, relpath)) as handle:
        return handle.read()


def test_required_documents_exist():
    for relpath in (
        "README.md",
        "DESIGN.md",
        "EXPERIMENTS.md",
        "docs/API.md",
        "docs/TUTORIAL.md",
        "docs/CALIBRATION.md",
        "docs/VALIDATION.md",
        "docs/BENCHMARKS.md",
        "docs/MODELS.md",
    ):
        assert os.path.exists(os.path.join(REPO, relpath)), relpath


def test_design_md_references_existing_modules():
    text = read("DESIGN.md")
    for module in re.findall(r"`repro\.([a-z_.]+)`", text):
        path = os.path.join(REPO, "src", "repro", *module.split("."))
        assert (
            os.path.exists(path + ".py") or os.path.isdir(path)
        ), "DESIGN.md references missing module repro.{}".format(module)


def test_experiments_md_references_existing_benches():
    text = read("EXPERIMENTS.md")
    for bench in set(re.findall(r"bench_[a-z0-9_]+\.py", text)):
        assert os.path.exists(
            os.path.join(REPO, "benchmarks", bench)
        ), "EXPERIMENTS.md references missing {}".format(bench)


def test_readme_examples_exist():
    text = read("README.md")
    for example in set(re.findall(r"examples/[a-z_]+\.py", text)):
        assert os.path.exists(os.path.join(REPO, example)), example


def test_calibration_doc_constants_match_code():
    from repro.config import default_config

    config = default_config()
    text = read("docs/CALIBRATION.md")
    assert str(int(config.optimizer.cpu_timerons_per_second)) in text  # 600
    assert str(int(config.optimizer.io_timerons_per_second)) in text  # 240
    assert "{:.1e}".format(abs(config.planner.oltp_slope_prior)) in text.replace(
        "-", ""
    ) or "4.2e-6" in text
    assert str(int(config.overload.knee_cost // 1000)) in text  # 26


def test_design_md_confirms_paper_match():
    """DESIGN.md must state the paper-text check outcome (system prompt
    requirement: note a mismatch at the top, otherwise confirm)."""
    text = read("DESIGN.md")
    assert "Paper-text check" in text
    assert "matches the target paper" in text


def test_paper_goals_quoted_consistently():
    """The Section 4 goals appear identically in code and docs."""
    from repro.config import PAPER_CLASSES

    readme = read("README.md")
    assert PAPER_CLASSES[0][2] == 0.40
    assert PAPER_CLASSES[1][2] == 0.60
    assert PAPER_CLASSES[2][2] == 0.25
    assert "0.25" in read("EXPERIMENTS.md")
    assert "0.40 / 0.60" in read("EXPERIMENTS.md")


def _documented_command_lines():
    """Every ``repro``/``python -m repro`` line in a fenced code block of
    README.md and docs/*.md, continuations joined, as ``(file, argv)``."""
    relpaths = ["README.md"] + sorted(
        os.path.join("docs", name)
        for name in os.listdir(os.path.join(REPO, "docs"))
        if name.endswith(".md")
    )
    command = re.compile(r"^(?:\S+=\S+\s+)*(?:python3? -m repro|repro)\s+(.*)$")
    for relpath in relpaths:
        for block in re.findall(r"```[^\n]*\n(.*?)```", read(relpath), re.S):
            for line in re.sub(r"\\\n\s*", " ", block).splitlines():
                match = command.match(line.strip())
                if match:
                    yield relpath, shlex.split(match.group(1), comments=True)


def test_documented_command_lines_parse():
    """The docs' command lines are real: each parses against the CLI."""
    from repro.cli import build_parser

    lines = list(_documented_command_lines())
    assert len(lines) >= 25
    parser = build_parser()
    for relpath, argv in lines:
        try:
            parser.parse_args(argv)
        except SystemExit:
            pytest.fail("{}: 'repro {}' does not parse".format(
                relpath, " ".join(argv)
            ))
