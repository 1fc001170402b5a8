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
    ("bounds --benchmark onemax --n 100 --from 50 --to 100", 0, "563a9575cba6239f95ad6b78badf99b035f9f326cbaee489c5bdf584eb958ed7"),
    ("bounds --benchmark onemax --n 60 --format csv", 0, "9bdc14b4bf208cccf421cd1fd34f50e0bd3876b1719f178b77be062195e0eff5"),
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
    ("oracle --benchmark onemax --n 10", 0, "ed7f364ce50c93f2f43801e6c678efb85c6feef9f6a2e81f1b80e46f0fcb42ad"),
    ("oracle --benchmark onemax --n 10 --p 2/n --format csv", 0, "34e4647c520adb2de8f1c733c6dee59d3db41b7127a3addf2f0bfa8a4806a0ed"),
    ("oracle --benchmark onemax --n 10 --init level:3", 0, "7833f96d171ac572e8343e4621229afe80017b9f7192e5e2d398746ac9344ead"),
    ("oracle --benchmark onemax --n 8 --full-state", 0, "90e9441c5a2d037a4c43e26633ac34ddc666ccbd9fe38d570ef15dc7c003fe44"),
    ("oracle --benchmark onemax --n 8 --full-state --init level:2 --format csv", 0, "b3d91b33e493ab504bf12d5da670c630f9960445ab4431bfb37d8b3b543ce8f3"),
    ("oracle --benchmark onemax --n 8 --init point:00110011", 1, "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"),
    ("oracle --benchmark onemax --n 8 --init bogus", 1, "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"),
    ("oracle --benchmark leadingones --n 6", 0, "52b83a55bb9517861b32de04f09bbea97b93d86d338f5b7a5d32a4a53cd6d3a4"),
    ("oracle --benchmark leadingones --n 6 --p 1/3 --init level:2 --format csv --out {out}", 0, "6ea89a71a65cc213013e1184c6e67a0078a8f32e9e95b54c40e7a356aaf39281"),
    ("oracle --benchmark leadingones --n 20", 1, "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"),
    ("oracle --benchmark jump --n 10 --k 3", 0, "286714451fa98d7009fbf3bacb24fbeac8323c29a0df32529cb5f99085786bba"),
    ("oracle --benchmark jump --n 10 --k 3 --init level:4 --format csv", 0, "a1a13bd091c1fc3a64272aed8562edac441e22b750cf057693dfab1dc8dd62ca"),
    ("oracle --benchmark jump --n 8 --k 3 --full-state", 0, "a237d8d598cdcb0978cc41548a07e99ac6c45aee6db94cc4994b309ba3f2085c"),
    ("oracle --benchmark longpath --n 8 --k 2", 0, "ce680447a92e72c2907ab49cce60a73a3f4acc168f1bcf1694a530512b3aa82e"),
    ("oracle --benchmark longpath --n 8 --k 2 --init level:3 --format csv", 0, "03d92bad134821d4ded31e87249d8acfdd77ced2289f2fa333e225fd1bc0bc4d"),
    ("oracle --benchmark longpath --n 6 --k 2 --full-state", 0, "f848def9ce505f9504798c3f5b0d2a06818260d2dd7d2dd69f402e4fd88662a9"),
    # simulate: every family and init form, JSON, CSV on stdout and to files
    ("simulate --benchmark onemax --n 8 --replicates 30 --seed 1", 0, "4284ad1d00e41a3d2104e4ad0cb8116a5bb88649952e65e3553f0fcc4dc5215f"),
    ("simulate --benchmark onemax --n 8 --replicates 30 --seed 2 --init point:00110011 --format csv", 0, "da291c28b3e34c20829be0ad4035788b18ae72f439f7369629868b2a11a14a64"),
    ("simulate --benchmark onemax --n 8 --replicates 20 --seed 2 --init point:0011", 1, "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"),
    ("simulate --benchmark leadingones --n 6 --replicates 40 --seed 3 --init level:2", 0, "f7d05e405db32c2d6636acff6c7c0141f5f7f6c9d93049821cde8c974511889b"),
    ("simulate --benchmark leadingones --n 6 --replicates 40 --seed 3 --threads 2 --format csv --out {out}", 0, "b2a86d4d8600e143f620cb7f63a74c835ff41beb35c0a0a3750d6db699fc3f53"),
    ("simulate --benchmark jump --n 6 --k 2 --replicates 40 --seed 4 --format csv", 0, "d16a85c4be07243f62bda88a5c50156c23e744479c3c854ecba0484d1e2da022"),
    ("simulate --benchmark longpath --n 6 --k 2 --replicates 30 --seed 5 --init level:0", 0, "8631cdd7e2dbc0dc2acd3a5d20eccc6ab92419040a8d1fc2590961e941906f99"),
    ("simulate --benchmark onemax --n 8 --replicates 5 --seed 6 --init sideways", 1, "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"),
    ("simulate --benchmark onemax --n 8 --replicates 5 --max-iterations 0", 1, "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"),
    ("simulate --benchmark onemax --n 0 --replicates 5", 1, "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"),
    # compare: every family, JSON and CSV, chain starts, rates without jump bounds
    ("compare --benchmark leadingones --n 6 --replicates 300 --seed 7", 0, "de760d5f146fc0b386a12d4f15aa9ab5fe0875a72a59847cf0aff752e6c26ac1"),
    ("compare --benchmark leadingones --n 6 --replicates 300 --seed 7 --init level:1 --format csv", 0, "c510d48a8afc17454daa4e1a1fbcc8a2a54683832a784f029d8b77f35cf92db8"),
    ("compare --benchmark leadingones --n 6 --replicates 100 --seed 7 --init point:000000 --format csv", 1, "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"),
    ("compare --benchmark leadingones --n 6 --replicates 5 --max-iterations 0", 1, "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"),
    ("compare --benchmark onemax --n 6 --replicates 200 --seed 8", 0, "091182a6e01113fb75f35ca14afa3a37df4e2421cc33e2ea236cc93ddc90a6fa"),
    ("compare --benchmark onemax --n 6 --replicates 200 --seed 8 --init level:2 --format csv", 0, "6ca5b550c350799cdb9c5bcc014544cc7c100675302555a318e1b418f68a7185"),
    ("compare --benchmark onemax --n 6 --replicates 20 --seed 8 --init point:000000", 1, "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"),
    ("compare --benchmark jump --n 6 --k 2 --replicates 300 --seed 9 --format csv", 0, "4acc4f7b642f94a9b6d6589b5dc9dabac35df899e389743b6a36fc9ab2943356"),
    ("compare --benchmark jump --n 6 --k 2 --replicates 300 --seed 9 --init level:3", 0, "54e4d29d119c8585101b7446dc2569343f2555eba484851724ce34591e03aecb"),
    ("compare --benchmark jump --n 6 --k 2 --replicates 200 --seed 9 --p 2/n --format csv", 0, "8b115dfa872feecbb8f18b13ee57df6cf80a6b987d4815001ac94ff0887f440e"),
    ("compare --benchmark longpath --n 6 --k 2 --replicates 200 --seed 10", 0, "fbe4675d2dfc8808b7eb3afece47825f30faac299db1a7a1c70bd77608502886"),
    ("compare --benchmark longpath --n 6 --k 2 --replicates 200 --seed 10 --init level:0 --format csv", 0, "a06cc3925bfadb9485f7fc7e70c9c9c8c4eeb229831e7b9cee4bf0e793c30e08"),
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
