"""Pinned sha256 digests of the Hopf quotients and Hopf subalgebras that
the library builds on the corpus.

Each digest is the sha256 of `dumps_canonical(hopf_to_dict(...))` for one
structure: `quotient(H, N).quotient` for every normal member N of each
corpus algebra's `coideal_lattice`, `hopf_subalgebra_data(N)` for every
Hopf member, and the same two for each corpus algebra's
`commutator_subalgebra` (labelled "commutator").  A change to how these
structures are built must keep every one byte-identical.

A change that is meant to alter a structure regenerates the table with

    PYTHONPATH=src python tests/test_structure_digests.py

and says in its description which structures changed and why.
"""

import pytest

from hopflab.coideal import commutator_subalgebra, hopf_subalgebra_data, quotient
from hopflab.corpus import coideal_lattice, corpus_names, load
from hopflab.serialize import content_hash, dumps_canonical, hopf_to_dict


def _digests(name):
    """{(label, kind): sha256} for the quotients and Hopf subalgebras of
    the corpus algebra `name`."""
    hopf = load(name)[0]
    members = coideal_lattice(name, hopf) if name != "d-s3" else []
    members.append(("commutator", commutator_subalgebra(hopf)))
    out = {}
    for label, ctx in members:
        if ctx.normal:
            out[(label, "quotient")] = content_hash(dumps_canonical(hopf_to_dict(quotient(hopf, ctx).quotient)))
        if ctx.hopf_subalgebra:
            out[(label, "hopf_subalgebra")] = content_hash(dumps_canonical(hopf_to_dict(hopf_subalgebra_data(ctx))))
    return out


PINNED = {
    'z2': {
        ('{e}', 'quotient'): '740fa690651ba93a5ba50895c6b972d189c5007cd1db38a17eeca563c5af49d5',
        ('{e}', 'hopf_subalgebra'): '2a1e410c73253f0bf220948be42fa9a3efab6ed500a0c56be7291f8dacc0fa4e',
        ('{e,g}', 'quotient'): '5139b0bb171f2fad2ad33a253aede2ff7fbec27dd03e0ba8a306db6e8687cf16',
        ('{e,g}', 'hopf_subalgebra'): '102be62d94a6ed849ca891c1cbf48ee3b99fd12091aacfb6d55ba88f54ea103e',
        ('commutator', 'quotient'): '740fa690651ba93a5ba50895c6b972d189c5007cd1db38a17eeca563c5af49d5',
        ('commutator', 'hopf_subalgebra'): '2a1e410c73253f0bf220948be42fa9a3efab6ed500a0c56be7291f8dacc0fa4e',
    },
    'z3': {
        ('{e}', 'quotient'): 'cf4626a273c29a174a7cc796bea03df32c7dba45388d5c39192d7af59bde8ad4',
        ('{e}', 'hopf_subalgebra'): '499846438d717e8248753206200f69a4a887280b613623840cc9880e45d404cf',
        ('{e,g,g^2}', 'quotient'): '5e1082679762b9fd6b1ada6a870176a7e632dd479f146ec3c3accbe8fec0eae4',
        ('{e,g,g^2}', 'hopf_subalgebra'): '641d7e15fece4f2498aa5ea73753c2a1e734e407791f456f47930f09a02bf45c',
        ('commutator', 'quotient'): 'cf4626a273c29a174a7cc796bea03df32c7dba45388d5c39192d7af59bde8ad4',
        ('commutator', 'hopf_subalgebra'): '499846438d717e8248753206200f69a4a887280b613623840cc9880e45d404cf',
    },
    'z6': {
        ('{e}', 'quotient'): '956c41ca5a6e40ddd81bc87967f673d2ca25f0aa7dc6294cfef02a45a18d29e5',
        ('{e}', 'hopf_subalgebra'): '499846438d717e8248753206200f69a4a887280b613623840cc9880e45d404cf',
        ('{e,g^3}', 'quotient'): '27798495ca93e96bf97c5378071a2fa109f0f504ea45d69e0ba2ab1d07488989',
        ('{e,g^3}', 'hopf_subalgebra'): 'db94e44034008a8c4f7fda0323ba32caff29278534473e38b8d5656fe6c76530',
        ('{e,g^2,g^4}', 'quotient'): '78a1efedfb41fa28373f1353e7c1ab098615e5fb26e0333911dbe0fc032e67f5',
        ('{e,g^2,g^4}', 'hopf_subalgebra'): '641d7e15fece4f2498aa5ea73753c2a1e734e407791f456f47930f09a02bf45c',
        ('{e,g,g^2,g^3,g^4,g^5}', 'quotient'): '31068e502a507d49c12c9bc6f31492c160daefd3cb299d92381f8908302351e6',
        ('{e,g,g^2,g^3,g^4,g^5}', 'hopf_subalgebra'): '83a9ab7ca01d696d948d5bbd70ce0d9f93fd2d5c5090473ba37a02df67dc3a59',
        ('commutator', 'quotient'): '956c41ca5a6e40ddd81bc87967f673d2ca25f0aa7dc6294cfef02a45a18d29e5',
        ('commutator', 'hopf_subalgebra'): '499846438d717e8248753206200f69a4a887280b613623840cc9880e45d404cf',
    },
    's3': {
        ('{e}', 'quotient'): '52ade04344f5a54d20ee4e2ff03c4c9e700dc8ed9d8815a222a61b17a975dd3f',
        ('{e}', 'hopf_subalgebra'): '499846438d717e8248753206200f69a4a887280b613623840cc9880e45d404cf',
        ('{e,(23)}', 'hopf_subalgebra'): 'db94e44034008a8c4f7fda0323ba32caff29278534473e38b8d5656fe6c76530',
        ('{e,(12)}', 'hopf_subalgebra'): 'db94e44034008a8c4f7fda0323ba32caff29278534473e38b8d5656fe6c76530',
        ('{e,(13)}', 'hopf_subalgebra'): 'db94e44034008a8c4f7fda0323ba32caff29278534473e38b8d5656fe6c76530',
        ('{e,(123),(132)}', 'quotient'): 'a3d79a7353aa0c3365f45830ef80b27c11be3c3286f2a40e010286039f99a44d',
        ('{e,(123),(132)}', 'hopf_subalgebra'): '641d7e15fece4f2498aa5ea73753c2a1e734e407791f456f47930f09a02bf45c',
        ('{e,(23),(12),(13),(123),(132)}', 'quotient'): 'b054c08a494fe252c6e4fc36110472fa8cbdbb5737fbaa2684db5adcf44a8cd9',
        ('{e,(23),(12),(13),(123),(132)}', 'hopf_subalgebra'): '69ad66941ed1879a657d012082d859d97229ade9671c90876cd309370781c551',
        ('commutator', 'quotient'): 'a3d79a7353aa0c3365f45830ef80b27c11be3c3286f2a40e010286039f99a44d',
        ('commutator', 'hopf_subalgebra'): '641d7e15fece4f2498aa5ea73753c2a1e734e407791f456f47930f09a02bf45c',
    },
    's3-dual': {
        ('inv{e}', 'quotient'): '7a349c8c2ab1a800acd8ce2bf3a7bd2b4718e739f6951e6ab80b52581abfadf2',
        ('inv{e}', 'hopf_subalgebra'): '5da2eb82894df6968f4423158b9a3f660a5686f96487a380d549be0a253c6c0b',
        ('inv{e,(23)}', 'quotient'): '791a32779c366dbf08f8ae96d4a84634f78ce55a8335da2be19c0de91d497939',
        ('inv{e,(12)}', 'quotient'): '791a32779c366dbf08f8ae96d4a84634f78ce55a8335da2be19c0de91d497939',
        ('inv{e,(13)}', 'quotient'): '791a32779c366dbf08f8ae96d4a84634f78ce55a8335da2be19c0de91d497939',
        ('inv{e,(123),(132)}', 'quotient'): 'a2a6701c8e826dd49e73513a718fedd36497717cc6c14b33b4c603a3c3adc8eb',
        ('inv{e,(123),(132)}', 'hopf_subalgebra'): '575b45169408903de3186388196849f1ccd854c14ab8e5db18083bc1c8df5c41',
        ('inv{e,(23),(12),(13),(123),(132)}', 'quotient'): 'b9e7ca80f6220aa2e897d160054afa3b2e02ea00108a9130dbf1ed0627973843',
        ('inv{e,(23),(12),(13),(123),(132)}', 'hopf_subalgebra'): '499846438d717e8248753206200f69a4a887280b613623840cc9880e45d404cf',
        ('commutator', 'quotient'): 'b9e7ca80f6220aa2e897d160054afa3b2e02ea00108a9130dbf1ed0627973843',
        ('commutator', 'hopf_subalgebra'): '499846438d717e8248753206200f69a4a887280b613623840cc9880e45d404cf',
    },
    'd4': {
        ('{e}', 'quotient'): 'a21d4880e5a909feef39fce8a319fb1bc72a5a622debe8cb8438e82d1047e00a',
        ('{e}', 'hopf_subalgebra'): 'b1776a60d7b6f8dc50c739374e6f5baa3370ef48a9801b044a9c4a7aa455aa85',
        ('{e,(24)}', 'hopf_subalgebra'): '99d355f35a1dbac7bdb2ca02745ac97c9728200404fc34e7169625ee86660f6c',
        ('{e,(13)}', 'hopf_subalgebra'): '99d355f35a1dbac7bdb2ca02745ac97c9728200404fc34e7169625ee86660f6c',
        ('{e,(12)(34)}', 'hopf_subalgebra'): '99d355f35a1dbac7bdb2ca02745ac97c9728200404fc34e7169625ee86660f6c',
        ('{e,(13)(24)}', 'quotient'): 'e14861f14491bd36f9bd694c3b5f6be3e5666cf8295760c2636a781106234450',
        ('{e,(13)(24)}', 'hopf_subalgebra'): '99d355f35a1dbac7bdb2ca02745ac97c9728200404fc34e7169625ee86660f6c',
        ('{e,(14)(23)}', 'hopf_subalgebra'): '99d355f35a1dbac7bdb2ca02745ac97c9728200404fc34e7169625ee86660f6c',
        ('{e,(24),(13),(13)(24)}', 'quotient'): 'ad9f37f58285a4333d6eb3b449439c2caa54aedaa2eb720a5a8bbbd253915946',
        ('{e,(24),(13),(13)(24)}', 'hopf_subalgebra'): 'f0f5117ca587c17774107295370395dcc684eb4513d60647b80485e73cc20c80',
        ('{e,(12)(34),(13)(24),(14)(23)}', 'quotient'): 'ad9f37f58285a4333d6eb3b449439c2caa54aedaa2eb720a5a8bbbd253915946',
        ('{e,(12)(34),(13)(24),(14)(23)}', 'hopf_subalgebra'): 'f0f5117ca587c17774107295370395dcc684eb4513d60647b80485e73cc20c80',
        ('{e,(1234),(13)(24),(1432)}', 'quotient'): 'ad9f37f58285a4333d6eb3b449439c2caa54aedaa2eb720a5a8bbbd253915946',
        ('{e,(1234),(13)(24),(1432)}', 'hopf_subalgebra'): 'b646a269feaafc4c1b42cc11f331dc020d596e04144552d0a2df8d73f333c75e',
        ('{e,(24),(13),(12)(34),(1234),(13)(24),(1432),(14)(23)}', 'quotient'): '94e515c6fc8858d9988652e13dee0a9bafd9707c04e54a13a75a33ecc34f4707',
        ('{e,(24),(13),(12)(34),(1234),(13)(24),(1432),(14)(23)}', 'hopf_subalgebra'): '310d1414e3ec2640e45d3333fdfa6fd8755316e10b785b75dba6a1e10dfe5c16',
        ('commutator', 'quotient'): 'e14861f14491bd36f9bd694c3b5f6be3e5666cf8295760c2636a781106234450',
        ('commutator', 'hopf_subalgebra'): '99d355f35a1dbac7bdb2ca02745ac97c9728200404fc34e7169625ee86660f6c',
    },
    'q8': {
        ('{1}', 'quotient'): '0ad623604ca12d6f1117c749d9106bbcef24dd859af8f4e9733d3a5b7b3df688',
        ('{1}', 'hopf_subalgebra'): 'b1776a60d7b6f8dc50c739374e6f5baa3370ef48a9801b044a9c4a7aa455aa85',
        ('{1,-1}', 'quotient'): '4418fdf2ac124b6c75caeba0ab503bd3b8a2017f4f30f310212bf947c89b35c0',
        ('{1,-1}', 'hopf_subalgebra'): '99d355f35a1dbac7bdb2ca02745ac97c9728200404fc34e7169625ee86660f6c',
        ('{1,-1,i,-i}', 'quotient'): '571e04f5c98a5dad09fc9eeca59fceb4dda0a7a96fb73f2bf716b7a101e801a0',
        ('{1,-1,i,-i}', 'hopf_subalgebra'): '2a9ceda832781a15de7b56a80d956407ec006aafe769fe378a78ecc85b522613',
        ('{1,-1,j,-j}', 'quotient'): '571e04f5c98a5dad09fc9eeca59fceb4dda0a7a96fb73f2bf716b7a101e801a0',
        ('{1,-1,j,-j}', 'hopf_subalgebra'): '2a9ceda832781a15de7b56a80d956407ec006aafe769fe378a78ecc85b522613',
        ('{1,-1,k,-k}', 'quotient'): '571e04f5c98a5dad09fc9eeca59fceb4dda0a7a96fb73f2bf716b7a101e801a0',
        ('{1,-1,k,-k}', 'hopf_subalgebra'): '2a9ceda832781a15de7b56a80d956407ec006aafe769fe378a78ecc85b522613',
        ('{1,-1,i,-i,j,-j,k,-k}', 'quotient'): 'a6af9c9d6b4d683e8146ac5491d0abaead44c0534df999f1c5c90bab7ae807f4',
        ('{1,-1,i,-i,j,-j,k,-k}', 'hopf_subalgebra'): 'd112466564f6bc3e491bce9430cff83eff1e04e555b516810c9a0aad181146cc',
        ('commutator', 'quotient'): '4418fdf2ac124b6c75caeba0ab503bd3b8a2017f4f30f310212bf947c89b35c0',
        ('commutator', 'hopf_subalgebra'): '99d355f35a1dbac7bdb2ca02745ac97c9728200404fc34e7169625ee86660f6c',
    },
    'd-z2': {
        ('grouplikes(3,)', 'quotient'): '24f5e98cf05315ac17c633c4f743730baa78740dad58c8856314ed48d83cec46',
        ('grouplikes(3,)', 'hopf_subalgebra'): '2a1e410c73253f0bf220948be42fa9a3efab6ed500a0c56be7291f8dacc0fa4e',
        ('grouplikes(0, 3)', 'quotient'): '9b6c4d88d6fd7be4f3b40b98bf71b763bf7a7d857cbacab8602589d83905c147',
        ('grouplikes(0, 3)', 'hopf_subalgebra'): '102be62d94a6ed849ca891c1cbf48ee3b99fd12091aacfb6d55ba88f54ea103e',
        ('grouplikes(1, 3)', 'quotient'): '9b6c4d88d6fd7be4f3b40b98bf71b763bf7a7d857cbacab8602589d83905c147',
        ('grouplikes(1, 3)', 'hopf_subalgebra'): '102be62d94a6ed849ca891c1cbf48ee3b99fd12091aacfb6d55ba88f54ea103e',
        ('grouplikes(2, 3)', 'quotient'): '3b0bd580e03fdc697e6ea8077f43946a7c58495e7208353b124b5f2f6bc7a8df',
        ('grouplikes(2, 3)', 'hopf_subalgebra'): '95061d5b0a035ffc97b6e2bf51636ff343f6c34156e5c05a329fe99a7a989595',
        ('grouplikes(0, 1, 2, 3)', 'quotient'): 'edbc7cf5b8971be570aaa135d134af34f439c1306b77409f7fe0d9a64a4e4046',
        ('grouplikes(0, 1, 2, 3)', 'hopf_subalgebra'): '9d1dc788a1e0e24a40aeb56e17e8190a77cd0cf67c3615e05977bd8065a7b423',
        ('commutator', 'quotient'): '24f5e98cf05315ac17c633c4f743730baa78740dad58c8856314ed48d83cec46',
        ('commutator', 'hopf_subalgebra'): '2a1e410c73253f0bf220948be42fa9a3efab6ed500a0c56be7291f8dacc0fa4e',
    },
    'd-s3': {
        ('commutator', 'quotient'): 'b117d74c98e9b888786fbc9fa8119d87d04001f8203f4c7dbca04a67befc65b8',
        ('commutator', 'hopf_subalgebra'): '7847b2ac501a7092a3f26fb0f88d1687c885b5ef94ab084c3f72854aa2ab762f',
    },
}


@pytest.mark.parametrize("name", corpus_names())
def test_structures_match_pinned_digests(name):
    assert _digests(name) == PINNED[name]


def test_ninety_structures_are_pinned():
    assert sum(len(pins) for pins in PINNED.values()) == 90


if __name__ == "__main__":
    for name in corpus_names():
        print(f"    {name!r}: {{")
        for key, digest in _digests(name).items():
            print(f"        {key!r}: {digest!r},")
        print("    },")
