"""The call census (``python -m tests.census``) on a toy package.

The hook must see calls in every process an entry point starts, list
what none of them called with its line count, and place a decorated
function at its first decorator, where its code object starts.
"""

import sys
import textwrap

from tests import census

TOY = textwrap.dedent('''\
    import subprocess
    import sys


    def in_parent():
        return 1


    def in_child():
        return 2


    def never():
        value = 1
        return value


    def _keep(function):
        return function


    class Thing:
        @_keep
        @staticmethod
        def decorated():
            return 3

        @_keep
        def decorated_unused(self):
            return 4


    def main():
        in_parent()
        Thing.decorated()
        subprocess.run([sys.executable, "-c",
                        "import toy.mod; toy.mod.in_child()"], check=True)
''')


def test_census_of_parent_and_child(tmp_path):
    package = tmp_path / "src" / "toy"
    package.mkdir(parents=True)
    (package / "__init__.py").write_text("")
    (package / "mod.py").write_text(TOY)
    out = tmp_path / "out"

    called = census.trace(
        [[sys.executable, "-c", "import toy.mod; toy.mod.main()"]],
        package, out, tmp_path)
    census.report(package, called, out)

    listed = (out / "never_called.txt").read_text().splitlines()
    assert listed == [
        "toy/mod.py:13 never 3",
        "toy/mod.py:28 Thing.decorated_unused 3",
        "total: 2 of 7 functions never called, 6 lines",
    ]
    assert (out / "called.txt").read_text().splitlines() == [
        "toy.mod:in_parent", "toy.mod:in_child", "toy.mod:_keep",
        "toy.mod:Thing.decorated", "toy.mod:main",
    ]
