"""Golden reports: the stdout of cheap runs of the report subcommands, pinned.

Each digest is the sha256 of a subcommand's stdout with every code_version
value masked, so a change to the sources alone does not move it.  A change
to any report byte does, and then the new bytes have to be justified.  The
sieve rows pin the JSON lines of one run per prime family; those carry no
code_version.
"""

import hashlib
import re

import pytest

from selmerkit import cli

SAMPLE = "data/sample_curves.jsonl"
REGION = ["--curves", SAMPLE, "--prime-bound", "150", "--max-nu", "1"]
CODE_VERSION = re.compile(r'"code_version": "[0-9a-f]{12}"')

GOLDEN = {
    "delta": (
        ["delta", "--label", "11a1", "--p", "7", *REGION],
        "914f0704aaae80d5da718b9208a4d4d80d11d4c02d92c06aebe4dfd3259e19ca",
    ),
    "stats": (
        ["stats", "--label", "11a1", "--p", "7", *REGION],
        "ecc974daed8517919e4ee0a52a0778e5e2d51e182966842959897557d54e45fe",
    ),
    "predict": (
        ["predict", "--label", "37a1", "--p", "5", *REGION],
        "bc2d11720c36c2b93ef04fcc8cf983d97ebdb59209937b6f92634c923b0a7199",
    ),
    "predict-batch": (
        ["predict", "--label", "11a1", "--label", "14a1", "--label", "37a1", "--p", "7", *REGION],
        "3372eb4c5ecb6e66290f9a5858a91a063e2e623c7dda419ee8060fff280f9fcf",
    ),
    "gz": (
        ["gz", "--label", "37a1", "--DK", "-3", "--p", "5", *REGION],
        "233c983fa47b965c23b0af1581e103938203482463c73c9ed1d47cc3a87dedc9",
    ),
    "sieve-cyc": (  # 3 primes
        ["sieve", "--family", "cyc", "--label", "37a1", "--p", "5",
         "--curves", SAMPLE, "--prime-bound", "300"],
        "d94ca600c6411f6c6ca923a5fa1f56c2bd21d6ed64166e0e0eed915acc099ff0",
    ),
    "sieve-adm": (  # 12 primes
        ["sieve", "--family", "adm", "--label", "11a1", "--p", "5", "--DK", "-3",
         "--curves", SAMPLE, "--prime-bound", "200"],
        "f931ed464dc509c88cb602cb8b0767eaa6de55085afe758ce064e87a2ae04dce",
    ),
    "sieve-ac": (  # 1 prime
        ["sieve", "--family", "ac", "--label", "37a1", "--p", "5", "--DK", "-4",
         "--curves", SAMPLE, "--prime-bound", "300"],
        "aff1a167df64b209bb8f0607864c38f01ae7c75fa62f6a8f77396ecf3adb6203",
    ),
    "bipartite-sim": (  # the README command; its profile comes from lambda_profile
        ["bipartite-sim", "--p", "5", "--k", "4", "--shape", "2,1", "--delta", "1",
         "--steps", "15", "--seed", "3"],
        "672aecdaf5b9e46175425145540c4e04878687bd5be6bd1438762c3605246f9d",
    ),
    "gz-389a1": (  # the twist's level is M = 6224 = 2^4 * 389, with 10 divisor rows
        ["gz", "--curves", "data/large_conductor.jsonl", "--label", "389a1", "--DK", "-4",
         "--p", "5", "--prime-bound", "300", "--max-nu", "2"],
        "839a56674edfb96d3983c7a9a616d94aad3a752b0b2432793ed0deccf933f490",
    ),
    "waldspurger": (
        ["waldspurger", "--label", "11a1", "--DK", "-3", "--p", "7", *REGION],
        "be9deed041811c634697a647a03c6bae03a19b0dc476ddd20f41fd59dd321f97",
    ),
}


@pytest.mark.parametrize("name", sorted(GOLDEN))
def test_report_bytes_are_pinned(capsys, name):
    argv, digest = GOLDEN[name]
    assert cli.main(argv) == 0
    out = CODE_VERSION.sub('"code_version": "-"', capsys.readouterr().out)
    assert hashlib.sha256(out.encode()).hexdigest() == digest
