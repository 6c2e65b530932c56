"""Golden bytes: the shipped configs must keep their CSV and manifest body.

Each shipped config runs through ``ldpmean simulate`` at ``--seed 1
--replicates 20``, and a small two-point sweep runs on a two-worker pool.
The CSV is hashed whole; the manifest is hashed over its non-comment
lines only (each with its newline), because the comment lines record the
output path and the package version.

The commands that print keep their stdout bytes and exit codes too: the
``--help`` of the program and of each subcommand at 80 columns, and the JSON
of ``estimate``, ``fisher`` and the nine ``lp-verify`` chains of the
benchmark's ``lp_verify`` workload.
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


# sha256 of ``ldpmean [SUBCOMMAND] --help`` at COLUMNS=80, each exiting 0.
HELP_GOLDEN = {
    (): "60dfc84057595abec5aabf0b4f0afe1cc5bbd6b5fd141cb2125b0b4cf370725d",
    ("fisher",): "1f01df404d9956c63ffd3f5df59d395bb59cf5ec8b798328fde645e63efd2aa4",
    ("lp-verify",): "e59e7a1b8bb0022c6adada02b42ecbc933e2d1d7c3f90e4efa431badb95ca046",
    ("simulate",): "bd63d3af4ee1eb3e81b8140064b9116edbe3fd4ac014c79d3cd1ff8ec1baf5b1",
    ("estimate",): "db094f7905f82018c1ee16dc55f63d5c9d1dd06038ffb6c5408a8707fd2dd1ba",
}

# ``estimate --input`` reads these 600 values; "{data}" in an argv stands for their file.
DATA_LINES = "".join(f"{(i * 37 % 101 - 50) / 10}\n" for i in range(600))

# (argv, exit code, sha256 of stdout)
STDOUT_GOLDEN = [
    ("estimate --kind one --synthetic --n 1000 --epsilon 1 --seed 5", 0,
     "ea4308860397fe3de5804a527823cd33de4a6c98a4a12b0a3114e46522961e01"),
    ("estimate --kind two --synthetic --n 2000 --epsilon 1 --seed 5", 0,
     "a1ded902790e82615f66b7679921fc10d94016147511c030cb09408e7f429d4d"),
    ("estimate --kind three --synthetic --n 20000 --theta 3.5 --epsilon 1 --seed 5", 0,
     "27c37bdf1214de77ee61f218f34ed53f6529b2248373d84e6d7e7cddbe122607"),
    ("estimate --input {data} --epsilon 0.5 --theta0 1 --seed 5", 0,
     "4813a0fc2416a90f7c9cdf7bd9b10b6f3f8c8970ebc620625065919ec6b1a4b1"),
    ("estimate --synthetic --n 2000 --theta 1 --sigma 2 --epsilon 1 --seed 5", 0,
     "659fb5fc3c69f5f95856a2a5461b5c39f5b79d960c186396e55f526c77ad9cda"),
    ("fisher --epsilon 1 --sigma 2", 0,
     "9abbc4ff320800519bb9c3cdc8e743c0d9932f6fc341811440b865ec74ee83e1"),
    ("lp-verify --k 8 --epsilon 0.5", 0,
     "4fecc865ef5a355956222d216d294475b9f3513250464c187185c82592d054a4"),
    ("lp-verify --k 8 --epsilon 1.0", 0,
     "6e3e93e59a7f823e330026b51af46965d6169a22ca327d75e47d35cf5312241d"),
    ("lp-verify --k 8 --epsilon 3.0", 2,
     "6ea11f7a160b02fdec8b9b92a923c9907f6b0a9c440b5c20f731e60519092cdf"),
    ("lp-verify --k 10 --epsilon 0.5", 0,
     "8bfe9eca88336b08c08258ab8442ba08f056342aa87c5981a59da80f7fd6b7af"),
    ("lp-verify --k 10 --epsilon 1.0", 0,
     "057543e3b1c26be73c8123ec8d3716e0838ff071a500096b4704fde02d2cfa96"),
    ("lp-verify --k 10 --epsilon 3.0", 2,
     "0a80115e0caed58fee22f83a609335e8098c5ab34124b3a523b46e734711302f"),
    ("lp-verify --k 12 --epsilon 0.5", 0,
     "f0cee1635b7e74380c3ee346ec1a09a69fc2e5e107ba4f524872e0d3a586b50e"),
    ("lp-verify --k 12 --epsilon 1.0", 0,
     "208d27dba045226f44649c56cbbef8d1f6a431bcb7cb32ed7f54eb1db3332e93"),
    ("lp-verify --k 12 --epsilon 3.0", 2,
     "35681e7f02f2550e415fcb8b0f0b2142a5259f979a0c46573205964699d4b5e9"),
]


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


@pytest.mark.parametrize("sub", sorted(HELP_GOLDEN), ids=lambda sub: " ".join(sub) or "ldpmean")
def test_help_bytes(sub, capsys, monkeypatch):
    monkeypatch.setenv("COLUMNS", "80")  # argparse wraps its help to the terminal width
    code = main([*sub, "--help"])
    out = capsys.readouterr().out
    assert code == EXIT_OK
    assert sha256(out.encode()) == HELP_GOLDEN[sub], out


@pytest.mark.parametrize("line,code,digest", STDOUT_GOLDEN, ids=[c[0] for c in STDOUT_GOLDEN])
def test_stdout_bytes(line, code, digest, capsys, tmp_path):
    data = tmp_path / "data.txt"
    data.write_text(DATA_LINES)
    argv = [str(data) if arg == "{data}" else arg for arg in line.split()]
    assert main(argv) == code
    assert sha256(capsys.readouterr().out.encode()) == digest
