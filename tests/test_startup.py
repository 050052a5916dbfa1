"""What importing the CLI costs: no module that only a network client needs."""

import json
import os
import subprocess
import sys
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src"

# Modules that cost milliseconds and megabytes to import and that the package
# does not need; importing `xml.sax.saxutils` loads all the others.
_HEAVY = ("xml.sax", "http.client", "email", "ssl", "urllib.request")

_PROBE = (
    "import json, sys\n"
    "before = set(sys.modules)\n"
    "import symbiosis_kit.cli\n"
    "print(json.dumps(sorted(set(sys.modules) - before)))\n"
)


def test_importing_the_cli_loads_no_network_modules():
    env = dict(os.environ, PYTHONPATH=str(SRC))
    out = subprocess.run(
        [sys.executable, "-c", _PROBE], env=env, capture_output=True, text=True, check=True
    ).stdout
    loaded = json.loads(out)
    assert "symbiosis_kit.cli" in loaded
    heavy = [name for name in loaded if any(name == h or name.startswith(h + ".") for h in _HEAVY)]
    assert heavy == []
