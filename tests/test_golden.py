"""Golden bytes: the exit code and output of a fixed set of CLI calls.

Each case pins the exit code and the sha256 of stdout followed by stderr,
so any change to the bytes the CLI writes, however small, fails here.  A
deliberate change of output must re-record them and say why.
"""

import hashlib

import pytest

from lincong.cli import main

REF = "2x - 6y ≡ 2 (mod 12)"
CUBE = "x + y + z ≡ 0 (mod 1000)"
UNSOLVABLE = "2x ≡ 1 (mod 4)"
# a 300-digit modulus 12 * 10**298 with gcd(a_i, m) of 8, 3 * 10**298, m and 5
BIG = ["--coeffs=8,%d,0,-5" % (3 * 10**298), "--rhs=4", "--mod=%d" % (12 * 10**298)]
# 12 coefficients 30 * 7**(100 + i) mod R of 299 digits, modulus 30 * R of
# 300 digits: d and each gcd(a_i, m) are 210, p1 and s have about 3,300 digits
R = 10**298 + 3
D300N12 = ["--coeffs=" + ",".join(str(30 * pow(7, 100 + i, R)) for i in range(12)),
           "--rhs=420", "--mod=%d" % (30 * R)]
# the same modulus and two of those coefficients, written as an expression
# after ten coefficients 0: p2 = m**10 * 210**2 of 3,000 digits, s = m / 210
D300N12_ZEROS = (" + ".join([f"0x{i}" for i in range(1, 11)]
                            + [f"{30 * pow(7, 100 + i, R)}x{i}" for i in (11, 12)])
                 + f" ≡ 420 (mod {30 * R})")

CASES = {
    "solve-text": ["solve", REF],
    "solve-json": ["solve", REF, "--format", "json"],
    "solve-text-truncated": ["solve", REF, "--limit", "1"],
    "solve-json-truncated": ["solve", REF, "--format", "json", "--limit", "1"],
    "enumerate-text": ["enumerate", REF],
    "enumerate-json": ["enumerate", REF, "--format", "json"],
    "enumerate-text-truncated": ["enumerate", CUBE, "--limit", "60"],
    "enumerate-json-truncated": ["enumerate", CUBE, "--format", "json", "--limit", "60"],
    "solve-unsolvable-text": ["solve", UNSOLVABLE],
    "solve-unsolvable-json": ["solve", UNSOLVABLE, "--format", "json"],
    "enumerate-unsolvable": ["enumerate", UNSOLVABLE],
    "solve-zero-coefficient": ["solve", "--coeffs=0,3", "--rhs=3", "--mod=9"],
    "enumerate-zero-coefficient-json":
        ["enumerate", "--coeffs=4,0", "--rhs=8", "--mod=12", "--format", "json"],
    "solve-arity-1": ["solve", "3x ≡ 6 (mod 15)"],
    "enumerate-arity-1": ["enumerate", "3x ≡ 6 (mod 15)"],
    "solve-arity-5": ["solve", "2a + 4b + 6c + 3d + 5e ≡ 1 (mod 12)", "--limit", "40"],
    "solve-300-digits-json": ["solve", "--format", "json", "--limit", "3", *BIG],
    "enumerate-300-digits": ["enumerate", "--limit", "5", *BIG],
    "solve-d300n12-text": ["solve", "--limit", "0", *D300N12],
    "solve-d300n12-json": ["solve", "--format", "json", "--limit", "0", *D300N12],
    "solve-d300n12-zeros-text": ["solve", D300N12_ZEROS, "--limit", "0"],
    "solve-d300n12-zeros-json": ["solve", D300N12_ZEROS, "--format", "json", "--limit", "0"],
    # s = p1 = m of 1,101 digits, p2 = 1
    "solve-p2-is-1": ["solve", "--limit", "0", "--coeffs=1,3", "--rhs=0",
                      "--mod=%d" % (10**1100 + 7)],
    # s = 2**3700, p2 = 2**1300: p2 has more than a quarter of s's bits
    "solve-long-p2-json": ["solve", "--format", "json", "--limit", "0",
                           "--coeffs=%d,1" % 2**1300, "--rhs=0", "--mod=%d" % 2**5000],
    "check-dependent": ["check", REF, "7,4", "1,0"],
    "check-independent-warning": ["check", REF, "1,0", "2,3"],
    "verify": ["verify", REF],
    "verify-unsolvable": ["verify", UNSOLVABLE],
    "verify-seed": ["verify", "--seed", "7"],
    "usage-error": ["enumerate", REF, "--limit", "-1"],
}

GOLDEN = {
    "solve-text": (0, "c35ca093668c76abb733842ef896d80463b326e6984d222c9dfaece9d82659fd"),
    "solve-json": (0, "28f3990fd4959e4f6a34a0f3d08eda2c87a597939a900af3ae44cdea1c24b138"),
    "solve-text-truncated": (0, "f5e18f73a5f132bb18eb4f1e8f99c927e39b9f27d4162194093f7cc6edfd3322"),
    "solve-json-truncated": (0, "b6f449c1a555ed45a6b71dc6931c005459dada1cff3afbeeb4015895559de587"),
    "enumerate-text": (0, "b7d2589012ed4f2cd30a98899bbf44c8c396297ace96cf2a5e8ba8d9dbc7bd08"),
    "enumerate-json": (0, "96274e48e18dc68d8a184a07cbc0a7d5ff9470d8ecbfea2717fa352d4a12fac0"),
    "enumerate-text-truncated": (0, "561fcc655388833792ba056b5aaa7dda441557139771b9716f54b38abfb079f7"),
    "enumerate-json-truncated": (0, "c5a432459fb5e3430b5423fc9304f0558bd1f3824bca6dd7aabfb7896b625501"),
    "solve-unsolvable-text": (3, "e8ab9307b5e2de3dca39c9facc6f37a9f05b50bb7365e82d7ea3f46837dc66c2"),
    "solve-unsolvable-json": (3, "03dd55fd5b692bec6390af9d55b4c0fb493c31727ba3c50fa84932d4385977a2"),
    "enumerate-unsolvable": (3, "8b9cd3da71910b97fa5ac0953eceb366338c7c7dbf99cad2113b96be4a20cfae"),
    "solve-zero-coefficient": (0, "9d6ca4d78b0e0feb600fee0b65ddc9c99671b5a84adba908d802f8945e58d846"),
    "enumerate-zero-coefficient-json": (0, "4143edb98e12a6fc67707385e150560b61adebf9060fe3dd09dfd061660d169e"),
    "solve-arity-1": (0, "0683fa2b521e0a2a488db6697a7abed97d32e38df1b2398b36eafb1671865522"),
    "enumerate-arity-1": (0, "4ab4301d94988fa6a2c3e4e1fabb6d9f4c6a94fe79a66a831bd351e0e8e2ffe1"),
    "solve-arity-5": (0, "e3818df73d114a19f8b8cbe090e25c4979b44617eb31242a879639fee473813f"),
    "solve-300-digits-json": (0, "fd491740b49f27423ec765a64bad1a9a12f413c7a7a4b3a0ca54735a6e87924e"),
    "enumerate-300-digits": (0, "8f870dea6be7e17f41e6637569019d89771708c7d12d86389fa23707c33442d4"),
    "solve-d300n12-text": (0, "ba26ae7b9aa297c214fa047925049a63711ec9e9b5901c7b6a9e25fcdaedd5a0"),
    "solve-d300n12-json": (0, "c6ed65a53f495b914f75869899f0a81804a92f0bd6bc68602f01eab2eadc5c9b"),
    "solve-d300n12-zeros-text": (0, "683f3640db72bd45ecabf0cb729b1d15f8434abb3b2d4b6b491b1ec36389bbe7"),
    "solve-d300n12-zeros-json": (0, "0c7c057e63afb54d356381b84025b7651c60340846619e010a85a3c01bcacde3"),
    "solve-p2-is-1": (0, "564a01baccc0cd50ba34ac45db8478838593761dc02ab4f3076b632d2e481c90"),
    "solve-long-p2-json": (0, "8768fa33d708a3722801f8eaac9ade534cf34a18801dbddfac2f7780009945a0"),
    "check-dependent": (0, "265785ef26e60f36c8b1463aaba6f690ea8d695798a1c90d58363dd6743dc84d"),
    "check-independent-warning": (0, "b6b4802070b2aeafe3b212ad03b096a009c1b6a0451ce0bcf55a5f44d4d0cfab"),
    "verify": (0, "d529b4ecc803a7636954458e556728917fdf141d3cf60117e7a9bf0e04594b9a"),
    "verify-unsolvable": (0, "599abfc5dc1fb02e7e2e4eb2b06fde2211c6256699786e9c5fdb7225fa05338a"),
    "verify-seed": (0, "834813309c3cbab01ad110ef01afc418e09045af71c63d3fb617f5a62a550678"),
    "usage-error": (2, "bb65a65719a47ecf9f0a31b88822e13b5a6d8d3ca4fb7ce9d7c2ae19a45a7096"),
}


@pytest.mark.parametrize("name", list(CASES))
def test_cli_output_bytes_are_pinned(capsys, name):
    code = main(CASES[name])
    captured = capsys.readouterr()
    digest = hashlib.sha256((captured.out + captured.err).encode("utf-8")).hexdigest()
    assert (code, digest) == GOLDEN[name]
