"""Every map's outputs, traces and error messages up to n = 5, pinned.

``scripts/map_digest.py --n 5`` runs each bijection of the CLI's table,
both ways and with ``trace=True``, on every signed window, tree or forest
with n <= 5, and prints one SHA-256 per map and direction (the input
with its image and trace, or with the error's type, message and step)
and one over all of them.  The lines below were printed by the engine
that still counted descending triples in its level scan and read signs
through a node map; a change to any image, trace, message or reported
step (such as the least bad level a scan reports) changes a line.
"""
import importlib.util
import sys
from pathlib import Path

SCRIPT = Path(__file__).resolve().parents[1] / "scripts" / "map_digest.py"

DIGESTS_N5 = [
    "gamma forward 6a9ded1b365dd8bf51076657163bec878f55fe98b7cf5d60a714a66f5e385452",
    "gamma inverse fecc333cf82dd3a08d58521ea639f227a74757d7797861d3a2384605477d0dda",
    "mu forward 77298817edb738ed490c16ef2dd576dab11051de414e19d58ec2944dd2a11be1",
    "mu inverse 76813ff38fe6bac3b5f31d8b46743504a9883e30390788e3cae5eaba9f7067cf",
    "phi1 forward d5dbd5e2c4edb4bc756d8c113755429eb7fc53a62a4ce495662da93d49d19a09",
    "phi1 inverse e7900bc1376a1ea7dbd3bdb414a56a565b94b83a0b56b70ae0e955c077a239be",
    "phi1-b forward 3307804d997976c5789cd7f09e97747a00e097a77ff24d24953bbdd01f055fd1",
    "phi1-b inverse 4632d857162b37ac6b790c78ffe831ba8ed8ecb28c16c27461a96a39c3ac6e16",
    "phi1-d forward 8040e5ac3a92ec142566b0fa7f86941d99f92fa77161f580b224461e8774b789",
    "phi1-d inverse f69b7b89be41f5f27ea6bed53f1a26117530e20b058e39d328beccf560f50e11",
    "phi2 forward 388f8a3232242f946d932972e0065fc2e47da15c59e9023823041f631f9226a6",
    "phi2 inverse 4bdb18fdf9be4f06fcc8efa17fc68cec127f83610acb9f06f15de5cf03af9959",
    "phi2-b forward efb4798e8cdd57455c4a53a89259b9b38f336f63549ede1f715dfa27011266bc",
    "phi2-b inverse 2912c7bcb1f1aa5ca6794982d4ddb10a94a9226dd365e328dbb076b6af619938",
    "phi2-d forward e33203658b31858e9af289adc45158a5011e4e630a3c0de8765bf0a550b2e7fe",
    "phi2-d inverse 34375af6f1502c7bdeac7fcfb1eb854e8571edeaa0090d7a637efe277744ec2f",
    "psi-cap forward c173edfcd7c890314aa40358ad5939dcf73219e11d805d77aaa7937fe278d78c",
    "psi-cap inverse dc33a516453dcaa3c06cce20c04270243f639938e22f6cd4569414a54ad6f63b",
    "psi-circ forward 096ec5f18084b10d8cf0366d057b9213b362cc0ef539f9a6138bafa18070cf71",
    "psi-circ inverse ba7d96755d7dfae093694f1e14fefabc339fd0d1cba8e2bd2b7680a656d99076",
    "psi-star forward c2bf14e44d848cdf4a5ce10234c16bffe31b8083796a961a5fa2dcf281b8dc8a",
    "psi-star inverse 25ce8b7adddc654ec0a9ef9ec87dfb6b84ed6de60157059bbf194525a07086a6",
    "zeta1 forward 2175180c17e3c811d0c0729897119a39cbbc20fdba5279f46c82acfe2e03d9aa",
    "zeta1 inverse 86727d675ecfd7fe743a3f01247deaa8e22c54b27cbc7b78c43f83113836dea3",
    "zeta2 forward e23e2e6bdf9f9fee8902ed0bce9b578b2d2aa8bbe42fc8831e43c8405b1de2c0",
    "zeta2 inverse bc67693267535ccbd25c909488018ae47b74529475e208ea0c29a7b2545de672",
    "all 0c6533f75477f3e22122d96bf2889493faa947fb03602caef7f308ac081536b6",
]


def test_map_digests_up_to_n5_are_pinned(monkeypatch, capsys):
    spec = importlib.util.spec_from_file_location("map_digest", SCRIPT)
    script = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(script)
    monkeypatch.setattr(sys, "argv", ["map_digest.py", "--n", "5"])
    assert script.main() == 0
    assert capsys.readouterr().out.splitlines() == DIGESTS_N5
