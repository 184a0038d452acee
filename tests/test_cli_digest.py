"""Every CLI request of ``scripts/cli_digest.py``'s table, pinned.

The script sends a fixed table of requests through ``cli.main``: every
triangle kind at n <= 8, P/Q/R at n <= 20 with and without ``--q``,
every family at n <= 4 with and without an anchor, every map both ways
on the worked examples and on small objects, with and without
``--trace``, two small verify runs, and the help and usage errors of
``PARSE_CASES``.  It prints one SHA-256 per subcommand over (argv, exit
code, stdout, stderr) and one over all of them.  The lines below were
printed while the top-level parser still parsed every request before
handing it to the subcommand's parser.
"""
import importlib.util
import sys
from pathlib import Path

SCRIPT = Path(__file__).resolve().parents[1] / "scripts" / "cli_digest.py"

DIGESTS = [
    "bijection b6b0d6cfc235d341bf55210fa7e8e208edae756338552b7de08b87ba3d9b9266",
    "family 5a96749f75aff596e5ce87c75f93498ea2f5814edd0a3c15e79442f501f2c672",
    "poly 217facd2b073c5ff17f6d1c1bab78889be425d55d54a11adff5ad439196f0579",
    "triangle 4258a9a0a14d159f4237e1b525cbfde68ecd967f52b61dacbaf2ee165672f068",
    "usage edf6ab7fb6d652d667b6e7009a672c8392675aacde9e7d238167224f85e94807",
    "verify 79e3bb1bf5a200829287b5c74eb1d2fe279ee5b6f20ca2b65ee404678d3e86a6",
    "all 52acfa48b1f3c6f6b2a812e99cb700be02db9ea937f19459a54113379b6fc71f",
]


def test_cli_digests_are_pinned(monkeypatch, capsys):
    spec = importlib.util.spec_from_file_location("cli_digest", SCRIPT)
    script = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(script)
    monkeypatch.setattr(sys, "argv", ["cli_digest.py"])
    assert script.main() == 0
    assert capsys.readouterr().out.splitlines() == DIGESTS
