"""Golden bytes: the shipped configs must keep their CSV and manifest body.

Each shipped config runs through ``ldpmean simulate`` at ``--seed 1
--replicates 20``, and a small two-point sweep runs on a two-worker pool.
The CSV is hashed whole; the manifest is hashed over its non-comment
lines only (each with its newline), because the comment lines record the
output path and the package version.
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

# Two sweep points on a two-worker pool: the spans of both points are in
# flight together, and the bytes must match a serial run's.
POOL_CFG = """\
kind = two
epsilon = 1.0
theta_true = 0.0
n = 2000
n1 = 100
replicates = 200
sweep = theta0
sweep_values = 0.0,1.0
"""
POOL_GOLDEN = ("50076aeb71a878283427ffacedd2ddfa273f007a656e101b5ebfea7d59b57d47",
               "b547f08b3436384092d41ff22d727e99fd88ebbbf4404933d71a082a5afdaaa8")


def sha256(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def output_hashes(out: Path) -> tuple[str, str]:
    """sha256 of the CSV and of the manifest's non-comment lines."""
    manifest = Path(f"{out}.manifest").read_text()
    body = "".join(line + "\n" for line in manifest.splitlines()
                   if not line.startswith("#"))
    return sha256(out.read_bytes()), sha256(body.encode())


@pytest.mark.parametrize("name", sorted(GOLDEN))
def test_shipped_config_bytes(name, tmp_path):
    out = tmp_path / f"{name}.csv"
    code = main(["simulate", str(CONFIGS / f"{name}.cfg"), "--seed", "1",
                 "--replicates", "20", "--output", str(out)])
    assert code == EXIT_OK
    assert output_hashes(out) == GOLDEN[name]


def test_pool_sweep_bytes(tmp_path):
    cfg = tmp_path / "pool.cfg"
    cfg.write_text(POOL_CFG)
    out = tmp_path / "pool.csv"
    code = main(["simulate", str(cfg), "--seed", "1", "--workers", "2", "--output", str(out)])
    assert code == EXIT_OK
    assert output_hashes(out) == POOL_GOLDEN
