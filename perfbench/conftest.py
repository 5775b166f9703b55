import sys
from pathlib import Path

# the harness's tests import phonoam from this checkout's sources
sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))
