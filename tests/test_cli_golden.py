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
    ("bounds --benchmark jump --n 12 --k 2 --init level:4 --format csv", 0, "fa5df1995704fac5f3bbef902d42412d4bea98ed390ffda37679a8432254934b"),
    ("bounds --benchmark jump --n 10", 1, "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"),
    ("bounds --benchmark jump --n 10 --k 1", 1, "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"),
    ("bounds --benchmark longpath --n 12 --k 4", 0, "51275db38f18f3e94435dac9de7df819ad5aaf25371988e3c7ae3136f8b806be"),
    ("bounds --benchmark longpath --n 12 --k 3 --p 2/n --format csv", 0, "3f9618348d8c4c6168a8101f30d2b8d3c748cc9bbc4305ab23f683608048245a"),
    ("bounds --benchmark longpath --n 12", 1, "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"),
    ("bounds --benchmark onemax", 2, "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"),
    # oracle: level chains, full-state, every chain start, CSV; the v values of the
    # full-state cases are also pinned to a stated tolerance in test_full_state_tolerance.py
    ("oracle --benchmark onemax --n 10", 0, "53feb41521bfe3ebdbab7a0403163d867cddab8e6c84ecca6e0ec798e2898926"),
    ("oracle --benchmark onemax --n 10 --p 2/n --format csv", 0, "34e4647c520adb2de8f1c733c6dee59d3db41b7127a3addf2f0bfa8a4806a0ed"),
    ("oracle --benchmark onemax --n 10 --init level:3", 0, "2f56a32ef4c19738e4b84f67faece002e3c4a695d3f25214cabc6cf48d47e041"),
    ("oracle --benchmark onemax --n 8 --full-state", 0, "639aa08efee602ef4be46994174def08e8dd5a642bbaa1e0d6f011e03727af64"),
    ("oracle --benchmark onemax --n 8 --full-state --init level:2 --format csv", 0, "557edef96dad92a24ae6d20ec5f557930065f12dcc3f2a6a501aeca37f050ec4"),
    ("oracle --benchmark onemax --n 8 --init point:00110011", 1, "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"),
    ("oracle --benchmark onemax --n 8 --init bogus", 1, "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"),
    ("oracle --benchmark leadingones --n 6", 0, "720c970ded0943a01896eb1190a91dc5832b8de3ae1f63d02c5f8ff1106e7bb7"),
    ("oracle --benchmark leadingones --n 6 --p 1/3 --init level:2 --format csv --out {out}", 0, "a390e2dd4b2fae8d706c99fb6f992be2ff73dd952db004899d6d773b16af574b"),
    ("oracle --benchmark leadingones --n 20", 1, "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"),
    ("oracle --benchmark jump --n 10 --k 3", 0, "05f45e44914e1c8cf7015f233f7330219f0603beee563681e246719ea96c697a"),
    ("oracle --benchmark jump --n 10 --k 3 --init level:4 --format csv", 0, "a1a13bd091c1fc3a64272aed8562edac441e22b750cf057693dfab1dc8dd62ca"),
    ("oracle --benchmark jump --n 8 --k 3 --full-state", 0, "15e7f870ef9f2c709f19b887a409128f80730e7b0a5015938fcc3ea37320cf75"),
    ("oracle --benchmark longpath --n 8 --k 2", 0, "da789aebc25833eb00378808563269af8a8c7d0a6127c42a61f78edd8c76b012"),
    ("oracle --benchmark longpath --n 8 --k 2 --init level:3 --format csv", 0, "5c9b63417c7c2bb6b63d02207b9faaf300006f870e73c03b90a0037de232cc90"),
    ("oracle --benchmark longpath --n 6 --k 2 --full-state", 0, "95c46a51eaecd0b64601ae8398b14f77d3f47d98c0b3d1829983e494551351cf"),
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
    ("compare --benchmark onemax --n 6 --replicates 200 --seed 8", 0, "a96f1bd4fa337d62bdd07d475462a96eaf39763298507ddd5083879cd8d52167"),
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
