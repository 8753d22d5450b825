import sys
from pathlib import Path

# the benchmark imports the program from this checkout's src/, like run.py does
sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))
