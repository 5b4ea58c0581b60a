"""Pinned sha256 digests of CLI reports.

A refactor must keep every report byte-identical.  Each case runs one CLI
command in-process and compares the sha256 of its stdout, plus its exit
code, against the value pinned below.  The set covers `solvable-find` with
and without `--text` on every corpus file, `nilpotent-check` on every
corpus file except d-s3, `verify`, `characters` and `integrals`
with and without `--text` on every corpus file, `coideal` and `reciprocity` for
every label but the first of s3, s3-dual, d-z2, d4, q8 and z6, and `coideal`,
`reciprocity` and `induce --index 0` with `--gens H` on every corpus file.

`solvable-find` is also pinned on D(kD4) (dim 64) and D(kD6) (dim 144),
built from the permutation groups D4 and D6 with the library's builders,
so that the search's step conditions, normality tests, closures, quotient
checks and lifts are pinned on algebras larger than the corpus's;
`nilpotent-check` is pinned on D(kD4), whose ascending central series
[8, 64] goes through a quotient and a lift.  `characters`, with and
without `--text`, is pinned on D(kD4) and on kS4 at conductor 1 (dim 24),
built as the benchmark builds it, so that the center split, its line
certificates and the orthonormality check are pinned beyond the corpus.

`double` is pinned on every corpus file, its output written under a fixed
file name.  Its report carries the sha256 of the double's data file, so
these pins hold the Drinfeld double's tensors byte for byte.

`verify` is also pinned, with and without `--text`, on tampered copies of
corpus files (one entry of one tensor replaced, some by irrational or
fractional values), so that every tensor check fails in some report and
its witness is pinned too.  Three of them break d-s3 at a basis index
outside its generating set S (`AlgebraPresentation.generating_set`, 19 of
its 36 indices): Delta(e_11) (`comult[69]`), eps(e_35) (`counit[35]`) and
the R-matrix term e_29 (x) e_30 (`r_matrix[29]`).  A check that read
only S would not visit the broken index, so these pin that each witness
is still the one the full loop names.

A change that is meant to alter a report regenerates the table with

    PYTHONPATH=src python tests/test_report_digests.py

and says in its description which reports changed and why.
"""

import hashlib
import json
import os
import tempfile

import pytest
from click.testing import CliRunner

from hopflab.builders import drinfeld_double, group_algebra, permutation_group_table
from hopflab.cli import main
from hopflab.corpus import corpus_file, corpus_names, load
from hopflab.serialize import save_hopf

COIDEAL_FILES = ("s3", "s3-dual", "d-z2", "d4", "q8", "z6")

# (corpus file, section, entry index, new value): the entry's scalar is
# replaced.  Between them the copies fail every check of `verify`.
TAMPERED = (
    ("s3", "mult", 9, "2"),
    ("z3", "mult", 5, "z"),
    ("d-s3", "mult", 100, "1/2"),
    ("d-z2", "mult", 5, "-1"),
    ("d-s3", "comult", 150, "z^2"),
    ("d4", "comult", 5, "1/2"),
    ("s3-dual", "comult", 20, "z"),
    ("s3-dual", "counit", 2, "1"),
    ("z6", "counit", 4, "z"),
    ("d-z2", "antipode", 1, "2"),
    ("q8", "antipode", 5, "z"),
    ("d-s3", "r_matrix", 20, "z"),
    ("q8", "unit", 0, "1/2"),
    ("d-s3", "comult", 69, "z"),
    ("d-s3", "counit", 35, "1"),
    ("d-s3", "r_matrix", 29, "-1"),
)


def _commands():
    commands = []
    for name in corpus_names():
        commands.append(("solvable-find", name))
        commands.append(("solvable-find", name, "--text"))
        commands.append(("nilpotent-check", name))
        for command in ("verify", "characters", "integrals"):
            commands.append((command, name))
            commands.append((command, name, "--text"))
        commands.append(("coideal", name, "--gens", "H"))
        commands.append(("reciprocity", name, "--gens", "H"))
        commands.append(("induce", name, "--gens", "H", "--index", "0"))
    for name in COIDEAL_FILES:
        hopf, _ = load(name, verify=False)
        for i in range(1, hopf.dim):
            for command in ("coideal", "reciprocity"):
                commands.append((command, name, "--gens", hopf.label(i)))
    return commands


def _digest(args, path=None):
    command, name, *rest = args
    result = CliRunner().invoke(main, [command, str(path or corpus_file(name)), *rest])
    return hashlib.sha256(result.stdout_bytes).hexdigest(), result.exit_code


def _tampered_cases():
    """(case, text flag, key in PINNED) for each tampered copy, with and
    without --text."""
    cases = []
    for case in TAMPERED:
        name, section, index, value = case
        for text in ((), ("--text",)):
            cases.append((case, text, " ".join(("verify", f"{name} {section}[{index}]={value}", *text))))
    return cases


def _tampered_digest(directory, case, text):
    """Digest of `verify` on the corpus file `case` names with one entry
    replaced; the file name and bytes, which the report's input block
    records, are fixed."""
    name, section, index, value = case
    data = json.loads(corpus_file(name).read_text())
    entries = data[section]
    if isinstance(entries[index], list):
        entries[index][-1] = value
    else:
        entries[index] = value
    path = os.path.join(directory, f"{name}-{section}-{index}.hopf.json")
    with open(path, "w") as fh:
        json.dump(data, fh)
    return _digest(("verify", name, *text), path)


# (name, generators of the permutation group, degree, conductor): D4 by a
# rotation and a reflection of the square, D6 of the hexagon
DOUBLES = (("kD4", [(1, 2, 3, 0), (0, 3, 2, 1)], 4, 4),
           ("kD6", [(1, 2, 3, 4, 5, 0), (0, 5, 4, 3, 2, 1)], 6, 3))


def _double_digest(directory, double, command="solvable-find", *rest):
    """Digest of `command` on the Drinfeld double of the group algebra
    DOUBLES names, saved under a fixed file name."""
    name, generators, degree, conductor = next(d for d in DOUBLES if d[0] == double)
    table, labels = permutation_group_table(generators, degree)
    hopf = drinfeld_double(group_algebra(table, conductor=conductor, labels=labels, name=name))
    path = os.path.join(directory, f"double-{name[1:].lower()}.hopf.json")
    save_hopf(hopf, path)
    return _digest((command, f"D({name})", *rest), path)


def _double_report_digest(directory, name):
    """Digest of `double` on the corpus file `name`, its output written
    under a fixed file name."""
    out = os.path.join(directory, f"{name}-double.hopf.json")
    return _digest(("double", name, "--out", out))


def _ks4_digest(directory, *rest):
    """Digest of `characters` on kS4 at conductor 1, S4 generated by a
    transposition and a 4-cycle, saved under a fixed file name."""
    table, labels = permutation_group_table([(1, 0, 2, 3), (1, 2, 3, 0)], 4)
    path = os.path.join(directory, "s4.hopf.json")
    save_hopf(group_algebra(table, conductor=1, labels=labels, name="kS4"), path)
    return _digest(("characters", "kS4", *rest), path)


PINNED = {
    'solvable-find D(kD4)': ('0227b28d58b4d51a04ebb9f359ab79e888ead450eebaa8cc51475d63281d3a09', 0),
    'solvable-find D(kD6)': ('d379d257d8a6b8cd2abd2cbb3ab42010b381985918fc5ef89e2df0406d0b8b8a', 0),
    'nilpotent-check D(kD4)': ('9580d9cc46859dcb9ef126c82adb29a27fa1b71caa30f706794e61321fd6c3ec', 0),
    'characters D(kD4)': ('6da54b9d25a82817856d5b679d599aeb1cf96b65dcb786d08aaff53fa12dda84', 0),
    'characters D(kD4) --text': ('75f15e4fffd284415332db3558ad88101250f137ed302a01113ba7a82b9e1b95', 0),
    'characters kS4': ('5641149b9a666a543b5ec9d50472044c3e4687cff49c20add154ee5e843dfaa1', 0),
    'characters kS4 --text': ('8441bbc71a98f42d85249dcff542c29233fd47bc8e47f128bd6bbac9b480663d', 0),
    'double z2': ('0dd7d269c8ee51ba6bf79bf51d3b2f282f3a6d4953e30e5a60c6fa9e364d7839', 0),
    'double z3': ('51898c076f1e2e9d547ec80a3ec04a9481a501554384cb21f747669ebd684ad0', 0),
    'double z6': ('84cc2861f7d823794eca013ced9d970a961515744cf0041112eeec50c8c4d43e', 0),
    'double s3': ('de787bfe30ba9475ca399cdcef547b2b3a43247afa664ad401071331326a38fd', 0),
    'double s3-dual': ('c7f17c300b78d2d7495a27e4806691b9e247959a65083b145498e51e36e4b536', 0),
    'double d4': ('ccaa217329c686bab2950d40c0ec88706a05259740a4d6b741073c82bdc1431e', 0),
    'double q8': ('6c383d2b26127a55d14770b6829cccf2f08550c8f59b3ff49df3173b0a4894d9', 0),
    'double d-z2': ('4505245336cd704c3c0d6edad362b94370217e573d9be7fa364b700a013bb70c', 0),
    'double d-s3': ('bfec21b98b0208ffc430ddafcf752721b0d0226be7e169ceec1f783302dd1147', 0),
    'solvable-find z2': ('cfa508e3d882e6a7502169017061884a367947d4b6cffa9cc4d24b6a0d247ff5', 0),
    'solvable-find z2 --text': ('954eaaa9f474510bf973122719c57e288de9fd42957a43283fb25b258b276c2e', 0),
    'nilpotent-check z2': ('6e6455e05d2cf3bea53faf1b770d8868d1b692447d3bf227622fdabcf280a7ee', 0),
    'verify z2': ('5f35ed720170590efb4206c72e616f547c0db36ad4bbac3256cd118702c8b545', 0),
    'verify z2 --text': ('86912e551769f87f037f6410c422523a33e59b34cf401799e267b0dd00bebb22', 0),
    'characters z2': ('23ba22b0d0b9badaa9cb94fe669d886cb728d06e307035effefcc3a91de82bde', 0),
    'characters z2 --text': ('2cb39893455e18b5d9945d49abb6418d3d207eef06eba6aece005a27517c4247', 0),
    'solvable-find z3': ('c6517b23bb8e8efc4d40c9da8328d90ed73a87c4b1ac2fc5813a3c6b04e1d7eb', 0),
    'solvable-find z3 --text': ('4c14be4c104c30490734b320ab78a58ede0630408ede3b6f78bb6dd26b4a4293', 0),
    'nilpotent-check z3': ('ab29094506252d51f11fb6f273d06baae2154ebac2ae311f4f1256ae5135865b', 0),
    'verify z3': ('b1003c78796955ebde489887b35a64237511a7c79b5b2c7e8ba02f6cbbc3ade5', 0),
    'verify z3 --text': ('86912e551769f87f037f6410c422523a33e59b34cf401799e267b0dd00bebb22', 0),
    'characters z3': ('c6ddf4200e76920aff7f54c207fb673f5bfb9c75c5d0df6ed579cf7b89a205b4', 0),
    'characters z3 --text': ('f42745128242860270ebc6ac19e94e13e6a248e311ccc1ddb6a46bc212dcc6ef', 0),
    'solvable-find z6': ('3b2c93bbfb8daa99c18893c4d01e2ec69b6e6095bea442b1a66001a11f789dda', 0),
    'solvable-find z6 --text': ('56267d86f7d8c5ac3824f190632821675ba8c1290c73881c4c8b7cf468de41f6', 0),
    'nilpotent-check z6': ('1a9bddf4ff0e30a6c245ddf3dd1302d371ecd951f5cdea7a7e809990bd20fa54', 0),
    'verify z6': ('e22882d9bd26dbe2612b8bbf7bbafbc803f41c57cc7cfea673c465bdc6cdcec5', 0),
    'verify z6 --text': ('86912e551769f87f037f6410c422523a33e59b34cf401799e267b0dd00bebb22', 0),
    'characters z6': ('84ea73d2af443874d22f2a41340a384cd90cc12ea0409fc3391ca0e067514623', 0),
    'characters z6 --text': ('4cc967ecc2688018d4a372cac51e2ea2607f199246ce71149eee5397a3fa015a', 0),
    'solvable-find s3': ('47cff9b88f14d00a90a82de8062ee339fd95e586c87b8bd4cb2a871c66861dd6', 0),
    'solvable-find s3 --text': ('b83851d326567764ce4624817b59ec68a4c21e9f8480c2c2436ae4030e0de24b', 0),
    'nilpotent-check s3': ('ad91d7abc8c0b70c57282beec9891e1464d691db7fd0abdb4e79c3e0a28a7c5b', 1),
    'verify s3': ('f844a04a9ec3601f74112d2cd3e6029f72fcdcb61d5bc45283811af77c6c2a92', 0),
    'verify s3 --text': ('86912e551769f87f037f6410c422523a33e59b34cf401799e267b0dd00bebb22', 0),
    'characters s3': ('cdd6632e75368a850775bde9018ad66447a0d6489c08d6f9d457f81b5ad18bd6', 0),
    'characters s3 --text': ('ef30b34dc67c9203c863af2878aa02c84ea766a51cfbb89f16124a2223fa6733', 0),
    'solvable-find s3-dual': ('1761b79a2f4e75e52f9746830eb7b7bb3e13c9064658433633f682216af170da', 0),
    'solvable-find s3-dual --text': ('56267d86f7d8c5ac3824f190632821675ba8c1290c73881c4c8b7cf468de41f6', 0),
    'nilpotent-check s3-dual': ('78c0c5bf733a014bed7f4fba1a5edc8d7ca1374bf22c0176311edf2f62dc5e9e', 0),
    'verify s3-dual': ('6aa18d515f4ee431cfc94bb844bf9af6d71d0454797468a4099479e6f30c2d10', 0),
    'verify s3-dual --text': ('76a827338a8f93f92766eea8eb48ee13427b0a06e728232f893a0d79cafd18fe', 0),
    'characters s3-dual': ('9cde6d6c3e410404984b311f8845d81ff72cba32aa278ec92aeb3bc1a8e0d3e4', 0),
    'characters s3-dual --text': ('5464c93f3e6682080055834a63bc10f7c7913523510f384346773f3d9cba68a3', 0),
    'solvable-find d4': ('e6abd666011a7686a3cb7b203c47c79baf0b4a4df845f88283918378b70dbca7', 0),
    'solvable-find d4 --text': ('1bfea6f581d83ce7adacae6f12bb8e97fce9a5484e84da30465f6bca7da4deb6', 0),
    'nilpotent-check d4': ('99de8f8a7ca3f40ccd9e50721803c7b394bda80c5f2e3cb3b7775be3c78c0617', 0),
    'verify d4': ('786efcd43fdea03c4baad377338d295b6d47d2e494c64ba90faa004fcb9446e8', 0),
    'verify d4 --text': ('86912e551769f87f037f6410c422523a33e59b34cf401799e267b0dd00bebb22', 0),
    'characters d4': ('110a4c80ed301a64e44ac0c9cf2c7cdc267d8a5a0d2bc933de2af6dd9bbbd685', 0),
    'characters d4 --text': ('ccb0562513b42204afb8fa23aa7f7701b6bc1f6d84be6969e886750a6a638fad', 0),
    'solvable-find q8': ('e1bd586d8a2912a4b87b9425ed969aac00e64713890027bf8f954362e8b87267', 0),
    'solvable-find q8 --text': ('1bfea6f581d83ce7adacae6f12bb8e97fce9a5484e84da30465f6bca7da4deb6', 0),
    'nilpotent-check q8': ('43f205ff039e037b9e61cbb8149f1be0d438be84941ba0cdf3099ac3ec24e500', 0),
    'verify q8': ('a0712ce04f2137119094253c7931e89ab46f6673f9ff5ef4c99c70941d1e844c', 0),
    'verify q8 --text': ('86912e551769f87f037f6410c422523a33e59b34cf401799e267b0dd00bebb22', 0),
    'characters q8': ('8f68822e6f1c6048ada87c20615e5cb09e091da43ba499ffd1de39a5903ba860', 0),
    'characters q8 --text': ('82e9023b3fea1578804d423ae7000eaac2218cda317bc37505aa4084fa45fdd4', 0),
    'solvable-find d-z2': ('1353a74951696021703b320ef9765f9428892fee92c0fd90ad604e0cd7868674', 0),
    'solvable-find d-z2 --text': ('0802cfa500d1f41483941799ce4da63eb84d1d47fa0253ca478d1db32a51199b', 0),
    'nilpotent-check d-z2': ('69c7f645c806f93bde6a7cecd652be3bbd62f2c6dcb8a784869c806c5a4b8d9d', 0),
    'verify d-z2': ('47791aedafb479e5aaf6f0789bf62ad9a712cccd7bab0bcf1f76c61fe1b0c737', 0),
    'verify d-z2 --text': ('86912e551769f87f037f6410c422523a33e59b34cf401799e267b0dd00bebb22', 0),
    'characters d-z2': ('68810433b12977c7f85403dfdaa71d7d7a2bfe1a1cd56741bc2ac824c7e8c0bb', 0),
    'characters d-z2 --text': ('bede68a30fbf38ed25fd33a73ab08595bde25e30c79458d7d89811dd37b761a8', 0),
    'solvable-find d-s3': ('85c87a86e30abbe67b961237e1525b8c58e3919df356104199219ec660401f64', 0),
    'solvable-find d-s3 --text': ('a53de701b9723aac5b59c8e3ab03e041bd2e45bdb43eb09c9707047dc46e5067', 0),
    'nilpotent-check d-s3': ('d14b6aad5e5713d70907e83229c81ad9ba7eeb648c09ef26bd73f1ba0db38ed7', 1),
    'verify d-s3': ('9417fabfcc582506bb52d87f681fba9f023ac10617f5a6110d58584f9301f840', 0),
    'verify d-s3 --text': ('86912e551769f87f037f6410c422523a33e59b34cf401799e267b0dd00bebb22', 0),
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
    'verify s3 mult[9]=2': ('d271702bca0937b8552f46db41fb3106c947de594549d3bf7086414c976644c9', 1),
    'verify s3 mult[9]=2 --text': ('ee2cffb73c36ff2e93b76ef94da18de21fcb78172edb34cf695fd530fb03a038', 1),
    'verify z3 mult[5]=z': ('60132c06611f8f99ff16985389f2163d352a289f73057620531f807760c3e799', 1),
    'verify z3 mult[5]=z --text': ('31f6140ba6f525950d54e459d7a14a5941bc839df951d535069fbd725a6b62e1', 1),
    'verify d-s3 mult[100]=1/2': ('718bdf00a9ab5f4fa93853e3d4148da3ad79f419fe9b874e6bdefed2b851f76f', 1),
    'verify d-s3 mult[100]=1/2 --text': ('9e55ee1acfc709fafd3679817074dcea85dd503f6133780753db86be51b65e3a', 1),
    'verify d-z2 mult[5]=-1': ('119b1bf7d260c0ab8735fb06b84784f4a71545f1ffb02cfd0d24e5d4808b47e3', 1),
    'verify d-z2 mult[5]=-1 --text': ('f8b68d8f93b9cf9aeecdcfbe48ca8e7e52ca1525e81b43ebbb18c40910b97985', 1),
    'verify d-s3 comult[150]=z^2': ('f0791f8a30c736346061e58bf8cd4c3171f9812500c1b08debde11b79d621f55', 1),
    'verify d-s3 comult[150]=z^2 --text': ('ce7b0a831794b3e84a2bfdf89f1e598df22cb1641e06477d4e0bff40cfac174c', 1),
    'verify d4 comult[5]=1/2': ('94801a749320e95030a8b31d43fc8f22b59de558647fd7ce66657688313d33b2', 1),
    'verify d4 comult[5]=1/2 --text': ('51e6a7738ec887fc20bd806b9ced7d1f0b822d659933c167be6242b30974b67e', 1),
    'verify s3-dual comult[20]=z': ('2a7344061af2a86b278f7e2392138869f2b6721b85b01bafecdfa4c6105ad305', 1),
    'verify s3-dual comult[20]=z --text': ('25734b82a9eda7e5e9e2babe115f991c9dbc57cda07740f246b958ebfd68da70', 1),
    'verify s3-dual counit[2]=1': ('16b41f444ed885b4297fc25ad8944592c81f533f921421d5c7246c04ab5fb5e8', 1),
    'verify s3-dual counit[2]=1 --text': ('f2f6539f80f6d0c05d286796a24ce8152b3bcb18c46aa84e53ce762b86c1c98d', 1),
    'verify z6 counit[4]=z': ('9bf5e6ba24a87b40672d64389d9f6ec07d1db161b92e498a1d58087ac4229ab9', 1),
    'verify z6 counit[4]=z --text': ('03c08f3a1a0257ebae5f880f1b9130bb53281ebc18c163ae8b67b9f722789846', 1),
    'verify d-z2 antipode[1]=2': ('982af31e46c5447c067f258257ea2f65cebf948416061b13b36911bc9f014230', 1),
    'verify d-z2 antipode[1]=2 --text': ('d2f74f09f6443a1f762f8df7e18f736bfb1a787647f0ffec7e2ac66bce7f8928', 1),
    'verify q8 antipode[5]=z': ('f8b0d3b923b33e43afbbc2e8d573b5d3889418ce32fb5dc984bfc82b0863a7fa', 1),
    'verify q8 antipode[5]=z --text': ('0c5939587751cd836d3b85fccaad03a81c222a0cabbecaeeee4a9fca97c802c6', 1),
    'verify d-s3 r_matrix[20]=z': ('1695448df786c929ba5bf2ad1acc61528ad111cf7520894a621703c7e5f7d2f3', 1),
    'verify d-s3 r_matrix[20]=z --text': ('ccf30cf4c53832db8bc426e4f2d9d5c070c6e7e1ecef5395c2598b77d824c59f', 1),
    'verify q8 unit[0]=1/2': ('bff70e211b9afd517f3069dbc2e8ff07e9d8a6f703aa24b85404c83e50a84726', 1),
    'verify q8 unit[0]=1/2 --text': ('582c6409712397b6ad820925f991890bc48222ffeb45d2915543b8184af7dbf5', 1),
    'verify d-s3 comult[69]=z': ('f1a06436918d7cb1d9e55f8535a609132a8c91cd8aa089ac66f493333b4de492', 1),
    'verify d-s3 comult[69]=z --text': ('fe7a0eaf7b4dea8af1d00b47775b8f74b8689200dff660940a94aada8bb2a025', 1),
    'verify d-s3 counit[35]=1': ('ff91f5ecf6f3b23e7da6cf4d9ca8cbd3d60ca218ee4a74bf30a6237844e1d40d', 1),
    'verify d-s3 counit[35]=1 --text': ('a84d3e86fcf9f40013bed5390bc8679b270d8ea1ca894da3fb9fd3c447a2ca1c', 1),
    'verify d-s3 r_matrix[29]=-1': ('496720a23d7f328dcf1639067afb02b37cc3750a94ac2eada1bc3e3c0b0e375f', 1),
    'verify d-s3 r_matrix[29]=-1 --text': ('83919daf915495fc1261d3c006ea32b901276d575fab261aefbb904a3121c4c5', 1),
    'integrals z2': ('2d8dfd8a4a0b158ea22339a4dbccca7b5621f8164924dca985113e8262b39b4f', 0),
    'integrals z2 --text': ('bae459687854cc30e0745fc098cd02225170c49bf1c8f0af83e83a3e26613cf2', 0),
    'integrals z3': ('41428019e81fc353f76afff09828664172ae7887551bf5a46f7e1c1c573bad79', 0),
    'integrals z3 --text': ('9b466c590027d9d91b89e9e3076913438a042f73858b32409cd2946e0e0bea1d', 0),
    'integrals z6': ('5dd175a901b26b70034131272e46fe9887095f7e63210815ac39258ede90ecad', 0),
    'integrals z6 --text': ('561c8406f18e8790134f85c3a991e1357ebc490dcedc4e6e0b644ffc47bb0f3d', 0),
    'integrals s3': ('c0d709aabf62b50a4931d689b512e0d2b59c00d9aface579d6673100aac3ae79', 0),
    'integrals s3 --text': ('6e1ad1dec8e50f713daee3bb0d34b6be0d10547dae1bddcf574af0ebba31e466', 0),
    'integrals s3-dual': ('e0dc2a84cf8d1945cd4d8e4ca31fa72c3c49fd6978c16a75d309d032cd9d1abe', 0),
    'integrals s3-dual --text': ('28f873edc76efd655b68f02980b890098813c3ab522dc47d0b13da2d915d0bd1', 0),
    'integrals d4': ('9aa61da1f767dc395dec2f70fc63e369fe8e101351a0f94d25f61afcb4789c06', 0),
    'integrals d4 --text': ('0a3936e5978f97dc62694e52fb517d5f9332f4d47730e0a9332eb9aa495246ae', 0),
    'integrals q8': ('c4b9f0e601f4c3824fb7dbebf25600b6676c944b4be7ebce3fafaedb1bcd4c7c', 0),
    'integrals q8 --text': ('fae3d206c1a87559a4030e75f2d92b38dd69a51473fe4f6182f7c14687fc0411', 0),
    'integrals d-z2': ('ed87ae43665094bb23eaf685cc440b4b32d1e3623d3204b8d40fbf193471fa10', 0),
    'integrals d-z2 --text': ('cf45841a93698510760ad360513ca895c33da19d9dc2946c776f9c50af9ed185', 0),
    'integrals d-s3': ('e0f62989940235f0646b9b82dde4f1802990d641cf82f816f2dc5e35ad24a2ae', 0),
    'integrals d-s3 --text': ('536e6628d910e52b10d812af961ab4b815c3fec017e677975210e4ad3df6d984', 0),
    'coideal z2 --gens H': ('61327b40a917aefb255dafbe0f4d764d817d23a6abb7cd6f25795e6acaa08b23', 0),
    'reciprocity z2 --gens H': ('89ce6627299e2077c14dc8a42c2be504098f631646288e9b5199fda8e4472b99', 0),
    'induce z2 --gens H --index 0': ('e75bb15697278b4ada6c4375a2a45004386708e4a27b81feb94b18b7ff492a28', 0),
    'coideal z3 --gens H': ('e4438d8f096d592dab65fbf7a53ba3c5e5078d3c4321296f862858e3d7f9a6a3', 0),
    'reciprocity z3 --gens H': ('72736574ea69f7b0768778181512972e04b51bfd2da8f95c228f1e6958ceece1', 0),
    'induce z3 --gens H --index 0': ('58cf769cc0eab142ac2ae7b6a7394f915f48c8694f1b65aa0bbd3a59d1be7cdc', 0),
    'coideal z6 --gens H': ('a462ab119c5ddc5fd90147dc13ae34b7d3c46924cb175bc3b8a5e8de3d50988e', 0),
    'reciprocity z6 --gens H': ('02ac67de140a0bd14c35ca8e538df6c2650b837dcff9e460e9b9ba47913f1d1c', 0),
    'induce z6 --gens H --index 0': ('b913fbcc98803a6899654df17e2dec3e50ddb7ecc64216dbbd79d598a6844974', 0),
    'coideal s3 --gens H': ('f15fe686e7cb02411ea10f8d2ed8711af16028aa00167cd442ae1ee70aaa8ec4', 0),
    'reciprocity s3 --gens H': ('30c365f5190ee45f0392ff78d5d96f1900ede751463e89585df8662e0f018e43', 0),
    'induce s3 --gens H --index 0': ('abcedbabb2177e9d3f243a25bae96347c55ca1ff4f2a6a45b0cf6b3450551dcb', 0),
    'coideal s3-dual --gens H': ('3f32485e49da13b5af3d1104e9fe18553b2a4237ebe00a78dc03e25e414516c9', 0),
    'reciprocity s3-dual --gens H': ('cf684f8d1958354a2312e578c50b546766b4935b9d57df181cd0094c5e749db3', 0),
    'induce s3-dual --gens H --index 0': ('3bcc95b1ed2b095304c8f367ba2ba7e4d98c11fe573cedca9709ac7bd0fb6b83', 0),
    'coideal d4 --gens H': ('c54b198736113c28e383fd0ecf99ab75133f26e5fcf52949fbbc873ac28db344', 0),
    'reciprocity d4 --gens H': ('77f8e69f1b3c89a2b323b5914aa02d45b2fea1561c3c2e1a28f72a22f5cd6466', 0),
    'induce d4 --gens H --index 0': ('40cda2bf07d2ec0d33e2061c63f7a02c306487383f6187546fae8568551f1f30', 0),
    'coideal q8 --gens H': ('00a298a76ece374c995c099aefe424747b4879f65809d3d6ce6d60bdcf5e042c', 0),
    'reciprocity q8 --gens H': ('8d9246debfc7b2717c88103eed88df562c9bbb7a1ea09c409f24146b3026319d', 0),
    'induce q8 --gens H --index 0': ('735f03671cd75b283fe12f5fdaabdc086f7c7f2a771ef248bdc67ddd9cbf372b', 0),
    'coideal d-z2 --gens H': ('fc05181954ede417866e319b599ba5cae8f0a7e458366c6e344d3179811960a0', 0),
    'reciprocity d-z2 --gens H': ('8d97598edefb27017d62f80d4afd858adfdccc8403e6757896cf9a9f8c9e1083', 0),
    'induce d-z2 --gens H --index 0': ('d674322f24d288e026c8d05236178a97631e29d75c1c73f8c3f9e66e39b29fe5', 0),
    'coideal d-s3 --gens H': ('8361592564fa466d3ce62f1e5f2854da9afde0c317a38b12af42a239a1fae9d7', 0),
    'reciprocity d-s3 --gens H': ('824e01551e23ce0b54489eaef471248643528947c756e27a79b1cd40a7e75039', 0),
    'induce d-s3 --gens H --index 0': ('f77d5fd1ca5355405dd9f7a6e8046cbf5877a6c7ad6b90bda270ef2b079aad11', 0),
    'coideal d4 --gens (24)': ('408af45b50f5f3294aae40efe0256de2ae640def3f65eca684cd23548a94b26e', 0),
    'reciprocity d4 --gens (24)': ('96a20a794cddc8558931ed468cebb92133dfaf3a548ac091dfb3ec672afa707e', 0),
    'coideal d4 --gens (13)': ('3c18cbb1c61bc8bba7006397b604bc35ecc0b1f1743b3643b9adfa032e23c1df', 0),
    'reciprocity d4 --gens (13)': ('96a20a794cddc8558931ed468cebb92133dfaf3a548ac091dfb3ec672afa707e', 0),
    'coideal d4 --gens (12)(34)': ('533c70d9ae420ab6cf70c9319ea64d123b731728cd70a2827899c81a359cc5d0', 0),
    'reciprocity d4 --gens (12)(34)': ('d4f18d4f30060adcc510b6d7258b22a630d0353d5a3cedeffc9a4ea7abe86218', 0),
    'coideal d4 --gens (1234)': ('e874a7a0e83f16e7b86cbc93218c14697113d07651b5b7d55daf937de49a53e0', 0),
    'reciprocity d4 --gens (1234)': ('2141e260c6c1e26c6b6d409dfc9ed0f8ab67198824c2c7440d9260d64a2032df', 0),
    'coideal d4 --gens (13)(24)': ('e9fe056251a94e470d8bd5dbe05d88652ee69e6e73d853f1a43c28d141b1aa9a', 0),
    'reciprocity d4 --gens (13)(24)': ('40b36ebc47a8df024e0a3a215e55f943cb491cc6bcdcc0f9df58fef986eeaccc', 0),
    'coideal d4 --gens (1432)': ('4bce16e752169340239b786b11840528207b36ef3fcd1b3565cc1b58a91b465f', 0),
    'reciprocity d4 --gens (1432)': ('2141e260c6c1e26c6b6d409dfc9ed0f8ab67198824c2c7440d9260d64a2032df', 0),
    'coideal d4 --gens (14)(23)': ('d44ebf081b6da801813c8cfece9ac6e73d568731b677b0af5ffa47f8016c968a', 0),
    'reciprocity d4 --gens (14)(23)': ('d4f18d4f30060adcc510b6d7258b22a630d0353d5a3cedeffc9a4ea7abe86218', 0),
    'coideal q8 --gens -1': ('a693eaccb102c124e7ec4b5ab73253a18869f507d7f622cb541f08bbf625cdcb', 0),
    'reciprocity q8 --gens -1': ('55860389689b3cda2b72cd66b1bcc614f69f9fff9ad3e147853f39ec5b7d7041', 0),
    'coideal q8 --gens i': ('63ac39030da9a0589a7e389e22beb7eb3edb424168128da2eceb22654c671aa1', 0),
    'reciprocity q8 --gens i': ('842163f9070ece69decd22fb7d9c2fcf1a7a73fcbc381132a8cc45cd5a5ab910', 0),
    'coideal q8 --gens -i': ('d6c7a077021533c32f326474ded17f1295b00c18dd80b5b2385047ec3bed3c57', 0),
    'reciprocity q8 --gens -i': ('842163f9070ece69decd22fb7d9c2fcf1a7a73fcbc381132a8cc45cd5a5ab910', 0),
    'coideal q8 --gens j': ('9505d355bafae72641c9dc55b4bf1f3f888c6feb608a6cccafebb2b67934e907', 0),
    'reciprocity q8 --gens j': ('c64394ccd817b355ba7977ef77efd37c033f9b3b7ab066cb95143b012ada54dc', 0),
    'coideal q8 --gens -j': ('98d9cfed4fe82f79afe5736da10d689cb1fa3423b6b08c347a32712153fa6ae0', 0),
    'reciprocity q8 --gens -j': ('c64394ccd817b355ba7977ef77efd37c033f9b3b7ab066cb95143b012ada54dc', 0),
    'coideal q8 --gens k': ('2b136800965538865b209758a3bedae2e519e60b3657bbcef2548a331ce3fac1', 0),
    'reciprocity q8 --gens k': ('83ea5a650db15733b92e147264acaf069c0025f22fe24eb8359130e74f8415d2', 0),
    'coideal q8 --gens -k': ('7b2dac7d6bfd4215c1b8c2a9f3d8cccda158ae65dcff07eb896950e92af0b3e9', 0),
    'reciprocity q8 --gens -k': ('83ea5a650db15733b92e147264acaf069c0025f22fe24eb8359130e74f8415d2', 0),
    'coideal z6 --gens g': ('bb687b64732b83c17a3122b8599dcab27e884bd57bc5acae0beeb850e2beea16', 0),
    'reciprocity z6 --gens g': ('02ac67de140a0bd14c35ca8e538df6c2650b837dcff9e460e9b9ba47913f1d1c', 0),
    'coideal z6 --gens g^2': ('052571ca52d5a6a5b6607a0b7f7ce9df8de3106492978d6726fb22dee726f164', 0),
    'reciprocity z6 --gens g^2': ('f6e288a0c80555ef5cb46e3dc25717e8f126aab7e7626951220014ff5293abb4', 0),
    'coideal z6 --gens g^3': ('612f5cadd184ff66dda895dab7de051d2bc41298126659be0d45c9a5c27eadcb', 0),
    'reciprocity z6 --gens g^3': ('6ae268a0276935b4f3ffe88d54be8e478ec7e9c10e2ea97fd96da75058fad756', 0),
    'coideal z6 --gens g^4': ('f713ce1ad4f0f06d163ae96432eea8eaa1632ff3d8f337eb2334b1f6b3245b51', 0),
    'reciprocity z6 --gens g^4': ('f6e288a0c80555ef5cb46e3dc25717e8f126aab7e7626951220014ff5293abb4', 0),
    'coideal z6 --gens g^5': ('be21237dd701ae2855ab100bf77f08278d39fbd2d40a8bd55836e646f1faef6b', 0),
    'reciprocity z6 --gens g^5': ('02ac67de140a0bd14c35ca8e538df6c2650b837dcff9e460e9b9ba47913f1d1c', 0),
}


@pytest.mark.parametrize("args", _commands(), ids=" ".join)
def test_report_matches_pinned_digest(args):
    assert _digest(args) == PINNED[" ".join(args)]


@pytest.mark.parametrize("case, text, key", [pytest.param(*c, id=c[-1]) for c in _tampered_cases()])
def test_tampered_verify_report_matches_pinned_digest(case, text, key, tmp_path):
    assert _tampered_digest(tmp_path, case, text) == PINNED[key]


def test_double_d4_search_report_matches_pinned_digest(tmp_path):
    assert _double_digest(tmp_path, "kD4") == PINNED["solvable-find D(kD4)"]


def test_double_d6_search_report_matches_pinned_digest(tmp_path):
    assert _double_digest(tmp_path, "kD6") == PINNED["solvable-find D(kD6)"]


def test_double_d4_nilpotent_report_matches_pinned_digest(tmp_path):
    assert _double_digest(tmp_path, "kD4", "nilpotent-check") == PINNED["nilpotent-check D(kD4)"]


@pytest.mark.parametrize("text", [(), ("--text",)], ids=["json", "text"])
def test_double_d4_characters_report_matches_pinned_digest(tmp_path, text):
    key = " ".join(("characters", "D(kD4)", *text))
    assert _double_digest(tmp_path, "kD4", "characters", *text) == PINNED[key]


@pytest.mark.parametrize("name", corpus_names())
def test_double_report_matches_pinned_digest(name, tmp_path):
    assert _double_report_digest(tmp_path, name) == PINNED[f"double {name}"]


@pytest.mark.parametrize("text", [(), ("--text",)], ids=["json", "text"])
def test_ks4_characters_report_matches_pinned_digest(tmp_path, text):
    assert _ks4_digest(tmp_path, *text) == PINNED[" ".join(("characters", "kS4", *text))]


if __name__ == "__main__":
    for args in _commands():
        digest, code = _digest(args)
        print(f"    {' '.join(args)!r}: ({digest!r}, {code}),")
    with tempfile.TemporaryDirectory() as directory:
        for case, text, key in _tampered_cases():
            digest, code = _tampered_digest(directory, case, text)
            print(f"    {key!r}: ({digest!r}, {code}),")
        for name, *_ in DOUBLES:
            digest, code = _double_digest(directory, name)
            print(f"    'solvable-find D({name})': ({digest!r}, {code}),")
        digest, code = _double_digest(directory, "kD4", "nilpotent-check")
        print(f"    'nilpotent-check D(kD4)': ({digest!r}, {code}),")
        for text in ((), ("--text",)):
            digest, code = _double_digest(directory, "kD4", "characters", *text)
            print(f"    {' '.join(('characters', 'D(kD4)', *text))!r}: ({digest!r}, {code}),")
            digest, code = _ks4_digest(directory, *text)
            print(f"    {' '.join(('characters', 'kS4', *text))!r}: ({digest!r}, {code}),")
        for name in corpus_names():
            digest, code = _double_report_digest(directory, name)
            print(f"    'double {name}': ({digest!r}, {code}),")
