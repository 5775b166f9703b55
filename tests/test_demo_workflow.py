import subprocess
import sys
from pathlib import Path

import pytest

SCRIPT = Path(__file__).resolve().parent.parent / "scripts" / "demo_workflow.py"


@pytest.mark.parametrize("loss", ["ctc", "ctc_crf"])
def test_demo_workflow_runs_to_the_few_shot_line(loss):
    run = subprocess.run(
        [sys.executable, str(SCRIPT), "--epochs", "2", "--loss", loss],
        capture_output=True, text=True, timeout=120,
    )
    assert run.returncode == 0, run.stderr
    assert any(line.startswith("few-shot (") for line in run.stdout.splitlines()), run.stdout
