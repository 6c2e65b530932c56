"""Golden bytes: the shipped configs must keep their CSV and manifest body.

Each shipped config runs through ``ldpmean simulate`` at ``--seed 1
--replicates 20``.  The CSV is hashed whole; the manifest is hashed over
its non-comment lines only (each with its newline), because the comment
lines record the output path and the package version.
"""

import hashlib
from pathlib import Path

import pytest

import ldpmean
from ldpmean.cli import EXIT_OK, main

CONFIGS = Path(ldpmean.__file__).parent / "configs"

GOLDEN = {
    "fig1_left": ("b42d8babdd32d34e3f5ea4619cd53939ce1d88eca08c0da71aba9c9fda3e2ce3",
                  "caf9b339f33fb5f61e6c3429827d3318ec381db4b0e5eb93d63c7dcef875ac5c"),
    "fig1_right": ("9438aa2ede3f6c0dd8f25ef2433aba88aff13cd4e340e651df15026ae097ff91",
                   "420a2fffd2941d2bd50210cb5aa60b8bb8bf7779cde7f01b5dacf5635b6bca92"),
    "fig2": ("b04513072e72203e909590777cbba4d56d2434a38b471083e8e8a7e5530a7818",
             "fcdc6541e332598de222b45ca677dcd10ad1defc855f5d958fc5b234adb6c867"),
}


def sha256(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


@pytest.mark.parametrize("name", sorted(GOLDEN))
def test_shipped_config_bytes(name, tmp_path):
    out = tmp_path / f"{name}.csv"
    code = main(["simulate", str(CONFIGS / f"{name}.cfg"), "--seed", "1",
                 "--replicates", "20", "--output", str(out)])
    assert code == EXIT_OK
    manifest = Path(f"{out}.manifest").read_text()
    body = "".join(line + "\n" for line in manifest.splitlines()
                   if not line.startswith("#"))
    csv_hash, body_hash = GOLDEN[name]
    assert sha256(out.read_bytes()) == csv_hash
    assert sha256(body.encode()) == body_hash
