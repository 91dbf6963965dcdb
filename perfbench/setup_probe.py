"""One benchmark set-up in a fresh interpreter: import the package, then
generate a corpus.  Prints the elapsed seconds.

    python3 perfbench/setup_probe.py SYNTH_CONFIG_JSON OUT_DIR

The runner starts this several times per run and reports the median, so the
import is measured cold (no module already loaded) every time.
"""

from __future__ import annotations

import json
import sys
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))


def main(argv: list[str]) -> int:
    settings = {
        key: tuple(value) if isinstance(value, list) else value
        for key, value in json.loads(argv[0]).items()
    }
    start = time.perf_counter()
    from sca_reco.synth import SynthConfig, generate_corpus

    generate_corpus(SynthConfig(**settings), argv[1])
    print(repr(time.perf_counter() - start))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
