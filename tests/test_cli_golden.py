"""Golden CLI runs: exit status and output digest of fixed-seed calls.

Each case runs ``flmlab.cli.main`` in-process with a fixed argument list and
records its exit status and the SHA-256 of its standard output followed by
every file it wrote (``{out}`` in an argument stands for a fresh output path).
Standard error is not part of the digest.  The digests pin the documented
byte-identity of the CLI's JSON and CSV output for a fixed seed; a change that
alters any byte of any case is a behaviour change, not a refactor.
"""

from __future__ import annotations

import contextlib
import hashlib
import io

import pytest

from flmlab.cli import main

# (argv, exit status, SHA-256 of stdout + written files)
GOLDEN = [
    # bounds: every family, JSON and CSV, --from/--to, --init forms, errors
    ("bounds --benchmark onemax --n 100 --from 50 --to 100", 0, "f26c011adc3e5810a36be4b99d7afcbd1c8340e9f501979419561ccb77a5e861"),
    ("bounds --benchmark onemax --n 60 --format csv", 0, "184dd888b6ebdd1c99f7d7a6ef2d6590ac7c70678faeee35181dc1ea461d10d5"),
    ("bounds --benchmark onemax --n 40 --from 10 --p 2/n --format csv --out {out}", 1, "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"),
    ("bounds --benchmark leadingones --n 30", 0, "2b4e994fc2cb65ad653a950e97a2c0d47f6cfc9ab0e4057eb0a87af2653fb376"),
    ("bounds --benchmark leadingones --n 30 --p 0.05 --format csv", 0, "35e38c9f57c353709aef28658ef1ea99cba6b49b8b5099791267c904341c2fa0"),
    ("bounds --benchmark jump --n 10 --k 3", 0, "f051808f84bb7b82fa4008b20b09ee52001bb9ae14ea89abc168f118bf88c716"),
    ("bounds --benchmark jump --n 10 --k 3 --init arbitrary", 0, "92a7709d642828040477f33a28e4a8f78faf10ebfe73f603061353fbd59da2d5"),
    ("bounds --benchmark jump --n 12 --k 2 --init level:4 --format csv", 1, "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"),
    ("bounds --benchmark jump --n 10", 1, "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"),
    ("bounds --benchmark jump --n 10 --k 1", 1, "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"),
    ("bounds --benchmark longpath --n 12 --k 4", 0, "51275db38f18f3e94435dac9de7df819ad5aaf25371988e3c7ae3136f8b806be"),
    ("bounds --benchmark longpath --n 12 --k 3 --p 2/n --format csv", 0, "3f9618348d8c4c6168a8101f30d2b8d3c748cc9bbc4305ab23f683608048245a"),
    ("bounds --benchmark longpath --n 12", 1, "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"),
    ("bounds --benchmark onemax", 2, "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"),
    # oracle: level chains, full-state, every chain start, CSV; the v values of the
    # full-state cases are also pinned to a stated tolerance in test_full_state_tolerance.py
    ("oracle --benchmark onemax --n 10", 0, "b4b2825b3b38b40f3705b5089ce9a22775a4922867eb4a14d94391db2f9c2f0c"),
    ("oracle --benchmark onemax --n 10 --p 2/n --format csv", 0, "0d8715f2677bf9a781c2b480f044487228c3bc72ca2ad8a068d5a78c13c91165"),
    ("oracle --benchmark onemax --n 10 --init level:3", 0, "37b8ea68adac622819c91b05ff9a94a37a6b813662b594057737f60186cf3ab3"),
    ("oracle --benchmark onemax --n 8 --full-state", 0, "7bc922e18a2b421e64b13e8d6915f9d6f005f922324237c2039e0e512b05f96d"),
    ("oracle --benchmark onemax --n 8 --full-state --init level:2 --format csv", 0, "e2b78f149304d27698ac3b8a728b15e7dba65188b8864b281b3e7011a3c1fd55"),
    ("oracle --benchmark onemax --n 8 --init point:00110011", 1, "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"),
    ("oracle --benchmark onemax --n 8 --init bogus", 1, "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"),
    ("oracle --benchmark leadingones --n 6", 0, "ba760057ea30a6c6e0a1eb47505a0f69fca9a773890d79822065e63f9b0d9169"),
    ("oracle --benchmark leadingones --n 6 --p 1/3 --init level:2 --format csv --out {out}", 0, "ae6eabf1e038e3b929fe2aeb7b3c5552be78a2382c90ff9c051f0c3f7d0955ce"),
    ("oracle --benchmark leadingones --n 20", 1, "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"),
    ("oracle --benchmark jump --n 10 --k 3", 0, "f53da838e2e49eddb0b297980471a0181f1d2283c4cbcfff6ec16522d9c7b193"),
    ("oracle --benchmark jump --n 10 --k 3 --init level:4 --format csv", 0, "9bc866c704adf9325e867c0c1a4bbd936abdbded0cd942a9e0ec2eba4d075dd6"),
    ("oracle --benchmark jump --n 8 --k 3 --full-state", 0, "112136644995f5fc13ebd3ca8b2fbdc889474ae44724328eb9341a4aaea74c9f"),
    ("oracle --benchmark longpath --n 8 --k 2", 0, "ce680447a92e72c2907ab49cce60a73a3f4acc168f1bcf1694a530512b3aa82e"),
    ("oracle --benchmark longpath --n 8 --k 2 --init level:3 --format csv", 0, "03d92bad134821d4ded31e87249d8acfdd77ced2289f2fa333e225fd1bc0bc4d"),
    ("oracle --benchmark longpath --n 6 --k 2 --full-state", 0, "c0466ad73fdb13f983d7f1ba6f0257a06bff89a3a146a11ab1954ce757ad67c6"),
    # simulate: every family and init form, JSON, CSV on stdout and to files
    ("simulate --benchmark onemax --n 8 --replicates 30 --seed 1", 0, "f52843809ea05fb93fcf4942d31a7f120f9c3285cf9810fd75845ce739514a5c"),
    ("simulate --benchmark onemax --n 8 --replicates 30 --seed 2 --init point:00110011 --format csv", 0, "5a7c7ef24f0f8c39a6db4447495332ff7d2528d1d2dc1eb8c2bb9b17e9cf04b0"),
    ("simulate --benchmark onemax --n 8 --replicates 20 --seed 2 --init point:0011", 1, "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"),
    ("simulate --benchmark leadingones --n 6 --replicates 40 --seed 3 --init level:2", 0, "1f9f240be7861e286ff9fdcdc2f5cb088897f063da96e5faf57f80abb8617a21"),
    ("simulate --benchmark leadingones --n 6 --replicates 40 --seed 3 --threads 2 --format csv --out {out}", 0, "884c4d8a9471ea4b9e855bd4eb930e77a95f5d1e0929eff640b284b4a899814d"),
    ("simulate --benchmark jump --n 6 --k 2 --replicates 40 --seed 4 --format csv", 0, "ef76edfd725fba1ead3823a7d0ae88e2c6681d34b27d6bc9e4d9bb6be173589f"),
    ("simulate --benchmark longpath --n 6 --k 2 --replicates 30 --seed 5 --init level:0", 0, "3ba10caf2019d8af223ce35e4cd24983a954226a5890755d4c8b35cc391b9b6e"),
    # word and table edges: jump on two words, jump with k = n (every run times
    # out), a one-word long k-path whose points set bit 63
    ("simulate --benchmark jump --n 70 --k 1 --replicates 30 --seed 11", 0, "b277c20b8b3156d23de9c95f8f625fae98335f9de5f2e2b67a59efb04588d3b1"),
    ("simulate --benchmark jump --n 12 --k 12 --max-iterations 200 --replicates 20 --seed 12", 0, "f7183c6cfdb07352a78b5ccb026eac8c82b3c7c05d9a0c2d023352e7a14189f5"),
    ("simulate --benchmark longpath --n 64 --k 8 --init level:2000 --replicates 20 --seed 13", 0, "d29a8bd82520bcf61a1f41cc7a4c9c658eaa424d9920714d3ddd62ce4fa95725"),
    ("simulate --benchmark onemax --n 8 --replicates 5 --seed 6 --init sideways", 1, "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"),
    ("simulate --benchmark onemax --n 8 --replicates 5 --max-iterations 0", 1, "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"),
    ("simulate --benchmark onemax --n 0 --replicates 5", 1, "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"),
    # compare: every family, JSON and CSV, chain starts, rates without jump bounds
    ("compare --benchmark leadingones --n 6 --replicates 300 --seed 7", 0, "70c0e4b119a90cd3edf208357e01a17c00a6af25830fa726321bd065952fce3b"),
    ("compare --benchmark leadingones --n 6 --replicates 300 --seed 7 --init level:1 --format csv", 0, "301bbf1a2ff08df1672242196c957824aa899a12de05430c2a42d998fb0c64d9"),
    ("compare --benchmark leadingones --n 6 --replicates 100 --seed 7 --init point:000000 --format csv", 1, "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"),
    ("compare --benchmark leadingones --n 6 --replicates 5 --max-iterations 0", 1, "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"),
    ("compare --benchmark onemax --n 6 --replicates 200 --seed 8", 0, "79b394d015b1d472aefd4ba9107c1df1c1629be480e632f9e68e0a5bda911d06"),
    ("compare --benchmark onemax --n 6 --replicates 200 --seed 8 --init level:2 --format csv", 0, "b0884c1dcb421fa1247d98aa003b79e032b860df561e3a08dd77276ad928e63f"),
    ("compare --benchmark onemax --n 6 --replicates 20 --seed 8 --init point:000000", 1, "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"),
    ("compare --benchmark jump --n 6 --k 2 --replicates 300 --seed 9 --format csv", 0, "a2ced769add53ac48bc4efec66eb64deea22efd556d5471c9d3e583f367d9f50"),
    ("compare --benchmark jump --n 6 --k 2 --replicates 300 --seed 9 --init level:3", 0, "54e4d29d119c8585101b7446dc2569343f2555eba484851724ce34591e03aecb"),
    ("compare --benchmark jump --n 6 --k 2 --replicates 200 --seed 9 --p 2/n --format csv", 0, "fcf39c6a8c18ca88e36cee598ec181aa5ceabe628cecd217260ea66945a4c89c"),
    # exit 3: from --init random the exact value is the chain's from path position 0,
    # while the replicates start uniformly (a known defect; 57.42 from a uniform start)
    ("compare --benchmark longpath --n 6 --k 2 --replicates 200 --seed 10", 3, "a432b95ce66809884f1730e3366618b0b5de5f16e01d5f4f5acb73010d2e7b59"),
    ("compare --benchmark longpath --n 6 --k 2 --replicates 200 --seed 10 --init level:0 --format csv", 0, "61e78365044bce306a90a1b151afe8afcb46c95c3fe107002fc85d317f29da52"),
    # path-check
    ("path-check --n 6 --k 2", 0, "4fae58647b7c4b523fe4cae097d8a503c2cd6aa556b48b9d9721847b702e66c5"),
    ("path-check --n 6 --k 3 --out {out}", 0, "310e8a3a8d827f5ff7b8026bb0be947bfa7e3810d06cf5bc3613c99f40d1cbe8"),
]


def run_case(argv: str, tmp_path) -> tuple[int, str]:
    """Exit status and digest of stdout plus the written files, in name order."""
    out_dir = tmp_path / "out"
    out_dir.mkdir()
    args = [arg.replace("{out}", str(out_dir / "result.csv")) for arg in argv.split()]
    stdout, stderr = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
        code = main(args)
    digest = hashlib.sha256(stdout.getvalue().encode())
    for path in sorted(out_dir.iterdir()):
        digest.update(b"\0" + path.name.encode() + b"\0" + path.read_bytes())
    return code, digest.hexdigest()


@pytest.mark.parametrize("argv,code,sha256", GOLDEN, ids=[case[0] for case in GOLDEN])
def test_cli_golden(argv, code, sha256, tmp_path):
    assert run_case(argv, tmp_path) == (code, sha256)
