"""The repository's tools, run as their users run them."""
import subprocess
import sys
from pathlib import Path

WRITE_OUTPUTS = Path(__file__).resolve().parent.parent / "tools" / "write_outputs.py"


def test_write_outputs_writes_the_sixty_files_a_bytes_check_compares(tmp_path):
    out = tmp_path / "out"
    run = subprocess.run([sys.executable, str(WRITE_OUTPUTS), str(out)],
                         capture_output=True, text=True, timeout=300)
    assert run.returncode == 0, run.stderr
    assert run.stdout.strip() == f"60 files in {out}"
    workloads = ("analysis", "blowup_norms", "dcm_fine", "glue_high_order")
    assert {path.name for path in out.iterdir()} == {"defaults"} | {
        f"{name}-seed{seed}" for seed in (0, 3, 7) for name in workloads}
    assert len(list((out / "defaults").iterdir())) == 18
    # a second run refuses to mix its files into the first run's
    again = subprocess.run([sys.executable, str(WRITE_OUTPUTS), str(out)],
                           capture_output=True, text=True, timeout=300)
    assert again.returncode == 2 and "not empty" in again.stderr
