import sys
from pathlib import Path

# The checks import the program under test from the checkout's sources.
sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))
