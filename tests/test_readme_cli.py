"""Every ``varelax`` line of the README's CLI block runs as documented, on
the shipped problems at their own numerics, in a scratch directory."""

import re
import shlex
import shutil
from pathlib import Path

from varelax import cli

ROOT = Path(__file__).resolve().parents[1]
README = (ROOT / "README.md").read_text(encoding="utf-8")


def readme_commands():
    """The argv of each ``varelax`` line in the README's command block,
    without its trailing comment."""
    block = re.search(r"Commands:\n\n```sh\n(.*?)```", README, re.S).group(1)
    return [
        shlex.split(line.split("#")[0])[1:]
        for line in block.splitlines()
        if line.startswith("varelax ")
    ]


def test_readme_cli_block_runs_as_documented(tmp_path, monkeypatch, capsys):
    # the paragraph after the block documents the sweep's exit code and stderr
    sweep_code = int(re.search(r"The `sweep` line above still exits (\d)", README).group(1))
    count = re.search(r"all (\d+) values are `null`", README).group(1)
    units, levels, budget = re.search(r"\((\d+) > (\d+) at `l = ([\d.]+)`\)", README).groups()
    sweep_stderr = (
        f"sweep did not settle: {count} of {count} budgets admit no grid path; at "
        f"l={budget} the fewest budget units of any path are {units} > budget_levels {levels}"
    )
    shutil.copytree(ROOT / "problems", tmp_path / "problems")
    monkeypatch.chdir(tmp_path)
    commands = readme_commands()
    assert [argv[0] for argv in commands] == [
        "classify", "relax", "sweep", "solve", "verify", "decompose"
    ]
    for argv in commands:
        if "--traj" in argv:
            # the trajectory comes from ``relax`` on the same problem
            traj = argv[argv.index("--traj") + 1]
            assert cli.main(["relax", argv[1], "--out", traj]) == 0
        capsys.readouterr()
        code = cli.main(argv)
        err = capsys.readouterr().err
        if argv[0] == "sweep":
            assert (code, err) == (sweep_code, sweep_stderr + "\n")
        else:
            assert code == 0, (argv, err)
