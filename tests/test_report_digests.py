"""Pinned sha256 digests of CLI reports.

A refactor must keep every report byte-identical.  Each case runs one CLI
command in-process and compares the sha256 of its stdout, plus its exit
code, against the value pinned below.  The set covers `solvable-find` and
`nilpotent-check` on every corpus file except d-s3, `characters` with and
without `--text` on every corpus file, and `coideal` and `reciprocity` for
every label but the first of s3, s3-dual and d-z2.

A change that is meant to alter a report regenerates the table with

    PYTHONPATH=src python tests/test_report_digests.py

and says in its description which reports changed and why.
"""

import hashlib

import pytest
from click.testing import CliRunner

from hopflab.cli import main
from hopflab.corpus import corpus_file, corpus_names, load

COIDEAL_FILES = ("s3", "s3-dual", "d-z2")


def _commands():
    commands = []
    for name in corpus_names():
        if name != "d-s3":
            for command in ("solvable-find", "nilpotent-check"):
                commands.append((command, name))
        commands.append(("characters", name))
        commands.append(("characters", name, "--text"))
    for name in COIDEAL_FILES:
        hopf, _ = load(name, verify=False)
        for i in range(1, hopf.dim):
            for command in ("coideal", "reciprocity"):
                commands.append((command, name, "--gens", hopf.label(i)))
    return commands


def _digest(args):
    command, name, *rest = args
    result = CliRunner().invoke(main, [command, str(corpus_file(name)), *rest])
    return hashlib.sha256(result.stdout_bytes).hexdigest(), result.exit_code


PINNED = {
    'solvable-find z2': ('cfa508e3d882e6a7502169017061884a367947d4b6cffa9cc4d24b6a0d247ff5', 0),
    'nilpotent-check z2': ('6e6455e05d2cf3bea53faf1b770d8868d1b692447d3bf227622fdabcf280a7ee', 0),
    'characters z2': ('23ba22b0d0b9badaa9cb94fe669d886cb728d06e307035effefcc3a91de82bde', 0),
    'characters z2 --text': ('2cb39893455e18b5d9945d49abb6418d3d207eef06eba6aece005a27517c4247', 0),
    'solvable-find z3': ('c6517b23bb8e8efc4d40c9da8328d90ed73a87c4b1ac2fc5813a3c6b04e1d7eb', 0),
    'nilpotent-check z3': ('ab29094506252d51f11fb6f273d06baae2154ebac2ae311f4f1256ae5135865b', 0),
    'characters z3': ('c6ddf4200e76920aff7f54c207fb673f5bfb9c75c5d0df6ed579cf7b89a205b4', 0),
    'characters z3 --text': ('f42745128242860270ebc6ac19e94e13e6a248e311ccc1ddb6a46bc212dcc6ef', 0),
    'solvable-find z6': ('3b2c93bbfb8daa99c18893c4d01e2ec69b6e6095bea442b1a66001a11f789dda', 0),
    'nilpotent-check z6': ('1a9bddf4ff0e30a6c245ddf3dd1302d371ecd951f5cdea7a7e809990bd20fa54', 0),
    'characters z6': ('84ea73d2af443874d22f2a41340a384cd90cc12ea0409fc3391ca0e067514623', 0),
    'characters z6 --text': ('4cc967ecc2688018d4a372cac51e2ea2607f199246ce71149eee5397a3fa015a', 0),
    'solvable-find s3': ('47cff9b88f14d00a90a82de8062ee339fd95e586c87b8bd4cb2a871c66861dd6', 0),
    'nilpotent-check s3': ('ad91d7abc8c0b70c57282beec9891e1464d691db7fd0abdb4e79c3e0a28a7c5b', 1),
    'characters s3': ('cdd6632e75368a850775bde9018ad66447a0d6489c08d6f9d457f81b5ad18bd6', 0),
    'characters s3 --text': ('ef30b34dc67c9203c863af2878aa02c84ea766a51cfbb89f16124a2223fa6733', 0),
    'solvable-find s3-dual': ('1761b79a2f4e75e52f9746830eb7b7bb3e13c9064658433633f682216af170da', 0),
    'nilpotent-check s3-dual': ('78c0c5bf733a014bed7f4fba1a5edc8d7ca1374bf22c0176311edf2f62dc5e9e', 0),
    'characters s3-dual': ('9cde6d6c3e410404984b311f8845d81ff72cba32aa278ec92aeb3bc1a8e0d3e4', 0),
    'characters s3-dual --text': ('5464c93f3e6682080055834a63bc10f7c7913523510f384346773f3d9cba68a3', 0),
    'solvable-find d4': ('e6abd666011a7686a3cb7b203c47c79baf0b4a4df845f88283918378b70dbca7', 0),
    'nilpotent-check d4': ('99de8f8a7ca3f40ccd9e50721803c7b394bda80c5f2e3cb3b7775be3c78c0617', 0),
    'characters d4': ('110a4c80ed301a64e44ac0c9cf2c7cdc267d8a5a0d2bc933de2af6dd9bbbd685', 0),
    'characters d4 --text': ('ccb0562513b42204afb8fa23aa7f7701b6bc1f6d84be6969e886750a6a638fad', 0),
    'solvable-find q8': ('e1bd586d8a2912a4b87b9425ed969aac00e64713890027bf8f954362e8b87267', 0),
    'nilpotent-check q8': ('43f205ff039e037b9e61cbb8149f1be0d438be84941ba0cdf3099ac3ec24e500', 0),
    'characters q8': ('8f68822e6f1c6048ada87c20615e5cb09e091da43ba499ffd1de39a5903ba860', 0),
    'characters q8 --text': ('82e9023b3fea1578804d423ae7000eaac2218cda317bc37505aa4084fa45fdd4', 0),
    'solvable-find d-z2': ('1353a74951696021703b320ef9765f9428892fee92c0fd90ad604e0cd7868674', 0),
    'nilpotent-check d-z2': ('69c7f645c806f93bde6a7cecd652be3bbd62f2c6dcb8a784869c806c5a4b8d9d', 0),
    'characters d-z2': ('68810433b12977c7f85403dfdaa71d7d7a2bfe1a1cd56741bc2ac824c7e8c0bb', 0),
    'characters d-z2 --text': ('bede68a30fbf38ed25fd33a73ab08595bde25e30c79458d7d89811dd37b761a8', 0),
    'characters d-s3': ('9037dd43a9941509b79d5c9bfd08945be50324f72bf2335460576c18c8cf7b51', 0),
    'characters d-s3 --text': ('071d5316f1eafe4e596d22e71dda76ec5cb137c75793097f643e56bd60cfe4c6', 0),
    'coideal s3 --gens (23)': ('39f5281e18a8618c3c375eb8ebcd03670af1a0159b4c3c39dc94c2b8789b1fc6', 0),
    'reciprocity s3 --gens (23)': ('a5a7fff1d100a9f2e91067a788e2de8c1934283e5b4b4f3a44f4e38ad3a90f52', 0),
    'coideal s3 --gens (12)': ('617eed8d641cb655a4fc06667296c9d06e4ce8bbe9a1aae5d1b1080ed038849b', 0),
    'reciprocity s3 --gens (12)': ('a5a7fff1d100a9f2e91067a788e2de8c1934283e5b4b4f3a44f4e38ad3a90f52', 0),
    'coideal s3 --gens (13)': ('cba70fcf2c5bf00e694cd6911fc2a76bd2c19af5f4bd25cf942e9d22a1288527', 0),
    'reciprocity s3 --gens (13)': ('a5a7fff1d100a9f2e91067a788e2de8c1934283e5b4b4f3a44f4e38ad3a90f52', 0),
    'coideal s3 --gens (123)': ('a562284a496eb8f5c946555131235ec3bb9e78e90224d00f2c044f69b3bdc089', 0),
    'reciprocity s3 --gens (123)': ('1c50c8d121f50d8b86451432e778c705573bbf26d3a053343ac335c79d455f47', 0),
    'coideal s3 --gens (132)': ('e41da93c97f2421382a1edff89c36ed4a2960937c551df8f8ef3bf8bc0789839', 0),
    'reciprocity s3 --gens (132)': ('1c50c8d121f50d8b86451432e778c705573bbf26d3a053343ac335c79d455f47', 0),
    'coideal s3-dual --gens (23)*': ('f9b9f2976391cce139893bb9cb2224971ccfe478ec7459d1d0f38630102ac683', 0),
    'reciprocity s3-dual --gens (23)*': ('cf684f8d1958354a2312e578c50b546766b4935b9d57df181cd0094c5e749db3', 0),
    'coideal s3-dual --gens (12)*': ('a7f1ba47e9098a1b41a0fd75b57786a78f182b2f3d363f670360e2c1d44eef9e', 0),
    'reciprocity s3-dual --gens (12)*': ('cf684f8d1958354a2312e578c50b546766b4935b9d57df181cd0094c5e749db3', 0),
    'coideal s3-dual --gens (13)*': ('f36c1b46f7e515e5d5be6c79349f8cddd2f640d6ed8de44e269eab99734b09ea', 0),
    'reciprocity s3-dual --gens (13)*': ('cf684f8d1958354a2312e578c50b546766b4935b9d57df181cd0094c5e749db3', 0),
    'coideal s3-dual --gens (123)*': ('59d3015dda96c7302037b8383395c517084542171cf9b959353026d6ced83c5d', 0),
    'reciprocity s3-dual --gens (123)*': ('cf684f8d1958354a2312e578c50b546766b4935b9d57df181cd0094c5e749db3', 0),
    'coideal s3-dual --gens (132)*': ('3851da7a0f6c6fa91471b505b47e7b57653e7c07d623ae78f8aeb2a649b62650', 0),
    'reciprocity s3-dual --gens (132)*': ('cf684f8d1958354a2312e578c50b546766b4935b9d57df181cd0094c5e749db3', 0),
    'coideal d-z2 --gens e*|g': ('9fda66c1b85b1ccd4c9a9c9594e1209a41bcfd32b3325e273ec379002dd5c417', 0),
    'reciprocity d-z2 --gens e*|g': ('8d97598edefb27017d62f80d4afd858adfdccc8403e6757896cf9a9f8c9e1083', 0),
    'coideal d-z2 --gens g*|e': ('e72399df056791c935142c8fa70c1bd56f48aa5efe0e218cd9741cfc449d249c', 0),
    'reciprocity d-z2 --gens g*|e': ('0107e85b14365844b2d01160b9bf83a58181a3694240986513da253e6ba31882', 0),
    'coideal d-z2 --gens g*|g': ('b5ac364871b26749aaa93a33e5cdcacdcff67903ba51a0e5740fc8d57927496a', 0),
    'reciprocity d-z2 --gens g*|g': ('8d97598edefb27017d62f80d4afd858adfdccc8403e6757896cf9a9f8c9e1083', 0),
}


@pytest.mark.parametrize("args", _commands(), ids=" ".join)
def test_report_matches_pinned_digest(args):
    assert _digest(args) == PINNED[" ".join(args)]


if __name__ == "__main__":
    for args in _commands():
        digest, code = _digest(args)
        print(f"    {' '.join(args)!r}: ({digest!r}, {code}),")
