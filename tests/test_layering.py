"""The §8 designs sit outside the core and the live tier.

``repro.extensions`` depends on the core, never the reverse: importing
the package, or the two modules a live site process and a live client
run, loads no §8 module under its current or its historic path.
"""

import os
import pathlib
import subprocess
import sys

import repro

#: The §8 modules by leaf name: the same under ``repro.extensions``
#: and under the core and crypto packages that once held them.
SECTION_8_MODULES = {"wordsearch", "compressed_index", "compression", "swp"}


def test_core_and_live_tier_load_no_section8_module():
    src = str(pathlib.Path(repro.__file__).resolve().parents[1])
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        filter(None, [src, env.get("PYTHONPATH")]))
    loaded = subprocess.run(
        [sys.executable, "-c",
         "import sys, repro, repro.net.serve, repro.net.live; "
         "print('\\n'.join(sorted(sys.modules)))"],
        check=True, capture_output=True, text=True, env=env,
    ).stdout.split()
    assert "repro.net.live" in loaded
    assert [
        name for name in loaded
        if name.startswith("repro.extensions")
        or name.startswith("repro.")
        and name.rpartition(".")[2] in SECTION_8_MODULES
    ] == []
