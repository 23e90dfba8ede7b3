"""Stdout of a fixed command set, pinned byte for byte by sha256 digests.

Every command runs in-process on a small deterministic three-stratum file
written by the test.  A refactor that keeps the outputs passes unchanged; a
change that alters an output byte must update the digest here and say why.
Overflowing sensitivity parameters are kept out of the set on purpose; huge
but finite ones are in it, for the float notation they produce.
"""

import hashlib
import sys
from pathlib import Path

import pytest

from medsens.cli import main

sys.path.insert(0, str(Path(__file__).resolve().parents[1]))
from perfbench.workloads import check_oracle  # noqa: E402


def write_golden_csv(path):
    """Three strata, three mediator levels, every cell filled, no randomness."""
    lines = ["a,m,y,c,count"]
    for c in range(3):
        for a in range(2):
            for m in range(3):
                for y in range(2):
                    lines.append(f"{a},{m},{y},{c},{5 + (7 * c + 11 * a + 13 * m + 17 * y) % 23}")
    path.write_text("\n".join(lines) + "\n")
    return str(path)


F = "{csv}"
GRID = ("--rr-au-grid", "1,1.5,3", "--rr-uy-grid", "1,2,4,9")

#: name -> (argv, exit code, sha256 of stdout)
GOLDEN = {
    "estimate": (
        ("estimate", "--csv", F),
        0, "5eef16e285bb5c36b082a831519ec0e3a0ddb81fac9cbffb674a94933eec8f42",
    ),
    "estimate-csv": (
        ("estimate", "--csv", F, "--format", "csv"),
        0, "3199b43e6333426c0042fe94ca99aa7c7c2efb43238b04953cf25c964d6d4362",
    ),
    "estimate-rr": (
        ("estimate", "--csv", F, "--scale", "rr"),
        0, "cc401fc2a14224422f6e90a802cab33f5108c6a7750d149af7332e493c53986a",
    ),
    "estimate-rd": (
        ("estimate", "--csv", F, "--scale", "rd"),
        0, "a7d0b2f489e6d027d7357e89f87d3c6d8951999184b7d5ced4ade7ffc4bae61c",
    ),
    "estimate-csv-rr": (
        ("estimate", "--csv", F, "--format", "csv", "--scale", "rr"),
        0, "2d9fc47dbece075cd69a3cf4f0dfb30d76b3c837477be99495c95bb20918d17c",
    ),
    "estimate-csv-rd": (
        ("estimate", "--csv", F, "--format", "csv", "--scale", "rd"),
        0, "dad5ef65e347568017465747d576883b46dd9bdb874b3a1a49c62539d456f88f",
    ),
    "bound-csv-2-2": (
        ("bound", "--csv", F, "--rr-au", "2", "--rr-uy", "2"),
        0, "7d09c35b409a0b6b7b84f83bd1960d42d3cb2035519d32a6df2ee257623cc884",
    ),
    "bound-csv-2-2-rr": (
        ("bound", "--csv", F, "--rr-au", "2", "--rr-uy", "2", "--scale", "rr"),
        0, "b8a53d969bb858e563034b1adf48539f1a46abc5c1b21884d3d4c4ae0652680b",
    ),
    "bound-csv-2-2-rd": (
        ("bound", "--csv", F, "--rr-au", "2", "--rr-uy", "2", "--scale", "rd"),
        0, "bff601779e5169ec7e1c13197d923dc958b9396a2e7bbd4ce44f7a7a4e43c8f7",
    ),
    "bound-csv-inf-2": (
        ("bound", "--csv", F, "--rr-au", "inf", "--rr-uy", "2"),
        0, "5c3c8ac190c9707dbd149a7eceb1bf88c06312296d0275515756520bf0798329",
    ),
    "bound-csv-inf-2-rr": (
        ("bound", "--csv", F, "--rr-au", "inf", "--rr-uy", "2", "--scale", "rr"),
        0, "8b4953aa204b46569a8ce72e8f5de88f4316d3ef0a295c769848c55a17bfa0a7",
    ),
    "bound-csv-inf-2-rd": (
        ("bound", "--csv", F, "--rr-au", "inf", "--rr-uy", "2", "--scale", "rd"),
        0, "4b2df65370a88e57320be5f86196435a2e943b9b2ddae6d15531d5e9c8647556",
    ),
    "bound-estimates": (
        ("bound", "--rr-au", "1.8", "--rr-uy", "2.5", "--nde-rr", "1.72", "--nde-rr-ci",
         "1.34", "2.21", "--nie-rr", "1.3", "--nie-rr-ci", "1.1", "1.6"),
        0, "20bb0717df48a485f55f78bf455fbc47a27c10047293217f836a69e39c6e3ca3",
    ),
    "cornfield-csv": (
        ("cornfield", "--csv", F),
        0, "a634d4d64a2fe3419ff508a2f005a6ffe97d3d85feace837731a24afb55ae59a",
    ),
    "cornfield-csv-target": (
        ("cornfield", "--csv", F, "--target", "0.05"),
        0, "dafda5dd706d4ca802278f24b77ef9a5b3d9a26f665dfe952ddd48fd744a469a",
    ),
    "cornfield-csv-fixed": (
        ("cornfield", "--csv", F, "--fixed-param", "1.5"),
        0, "8a80cbb4102ca16f75f6addd1c62865f6b986727e9a2fcab7df1d31adcfb8d5b",
    ),
    "cornfield-rr": (
        ("cornfield", "--nde-rr", "1.72"),
        0, "687bdff47c4e665a2e6cc3b7903ed315e09799a6859da0aac5fa0589d79fd787",
    ),
    "cornfield-rr-fixed": (
        ("cornfield", "--nde-rr", "1.34", "--fixed-param", "1.4", "--target", "1.1"),
        0, "da53e538a7a769a7e8461af2f946dbf7a2c6305d5955f0d900be7af0eacd7708",
    ),
    "sweep-csv": (
        ("sweep", "--csv", F, *GRID),
        0, "cb423e8973625e28afc25b51761db10d511110c36d784e5cf9eae0c43b4a6aae",
    ),
    "sweep-csv-json": (
        ("sweep", "--csv", F, *GRID, "--format", "json"),
        0, "3c352de29cda7e7827adbdec6cbe5905ce82533fb8dc509b150c92ae0f936f66",
    ),
    "sweep-estimates": (
        ("sweep", "--nde-rr", "1.72", "--nie-rr", "1.3", *GRID),
        0, "0f55da139e01f287714517610ca19d353896eba0506582354be2f1f983889c10",
    ),
    "sweep-estimates-json": (
        ("sweep", "--nde-rr", "1.72", *GRID, "--format", "json"),
        0, "a364be1ff73264c799f9b6e64ea3da7dbc4a9697c02f425aacaced96fcde99ed",
    ),
    "sweep-csv-json-relabel": (
        ("sweep", "--csv", F, *GRID, "--format", "json", "--relabel-exposure"),
        0, "f64563597974231b3c9dd5bcdde765b598fdcb58fedb7af12a1b10f73341d071",
    ),
    "estimate-csv-relabel": (
        ("estimate", "--csv", F, "--format", "csv", "--relabel-exposure"),
        0, "e71a2311ff2de43c79e54a6e404a0ad200d3ef7c4d9ca2bfd045c1d9a3af2513",
    ),
    # cells on both sides of 1e-4 and 1e16, where repr switches notation, and subnormals
    "sweep-csv-notation": (
        ("sweep", "--csv", F, "--rr-au-grid", "1,1e4,1e8,1e17", "--rr-uy-grid", "1,1e4,1e16"),
        0, "1827d466253ddd7b73378135bb3a2fbb8e9d4c2d9d47614513284188610fef59",
    ),
    "sweep-estimates-notation": (
        ("sweep", "--nde-rr", "0.001", "--nie-rr", "1e15", "--rr-au-grid", "1,100,1e6",
         "--rr-uy-grid", "1,100,1e6"),
        0, "b4c5a04733c9f53ac5714664c10cc6b5f6ee48023fea39e82ab880e43013dd02",
    ),
    "sweep-estimates-subnormal": (
        ("sweep", "--nde-rr", "1e-300", "--nie-rr", "1e290", "--rr-au-grid",
         "1,1e10,1e16,1e300", "--rr-uy-grid", "1,1e10,1e17"),
        0, "98909cd978a2d451b4b9af64cad48cc647c1835d5c4505e3fb89243a4185aaba",
    ),
    "parametric": (
        ("parametric",),
        0, "0d3066874365e312d4b05c63f84043c220b2beae22b24b6e5a70aaac02042e5e",
    ),
    "parametric-json": (
        ("parametric", "--format", "json"),
        0, "115c2c5472358889cb15c42836240b7bdd5cc115a3947aae1897703657a3002e",
    ),
    "parametric-beta-c": (
        ("parametric", "--beta-c", "0.3"),
        0, "1be91eefc10c720a7de318a17b7a6ea3300b7adb726e33c7c39c03bbf26d9645",
    ),
    "oracle": (
        ("oracle", "--iterations", "50", "--seed", "3"),
        0, "d1e70ea05e8a32dba706192487365d9655cc3f7abbc8b8d602ebb32d8f159241",
    ),
    # 300 models span two check batches
    "oracle-dependent": (
        ("oracle", "--iterations", "300", "--seed", "3", "--dependent-exposure"),
        0, "c1dea2d41d9bf016f7bc3a14a832a332eb315787a9c459cdca539d680fec696c",
    ),
    "oracle-mean": (
        ("oracle", "--iterations", "50", "--seed", "3", "--outcome", "mean"),
        0, "efa576b75022683f88e10a1cc78373febb4f51c53b4f92885619f1bf3dff5dc7",
    ),
    "oracle-extreme-3-4": (
        ("oracle", "--iterations", "50", "--seed", "3", "--extreme", "--u-card", "3",
         "--m-card", "4"),
        0, "62dfbd7a26cd254d4f2b1698d6c1507be64ffff530a63a021720f9acfa780b7c",
    ),
    # u or m axes of 8 or more entries, which numpy sums pairwise when contiguous
    "oracle-extreme-dependent-6-8": (
        ("oracle", "--iterations", "300", "--seed", "3", "--u-card", "6", "--m-card", "8",
         "--extreme", "--dependent-exposure"),
        0, "2e4d3426230a7c6282778b762abd2b09ba30317a52d2a748df2b4176e19da688",
    ),
    "oracle-9-9": (
        ("oracle", "--iterations", "300", "--seed", "3", "--u-card", "9", "--m-card", "9"),
        0, "1f13e8ff6535e2fb3c4b1a0e0eca7f51f3fe5063199a81c198c820d4e7ec3111",
    ),
    "bootstrap": (
        ("bootstrap", "--csv", F, "--replicates", "200", "--seed", "1"),
        0, "b071d464aa83e4229c7119ae4e8e39845eaf2dda6940d6c8d6a0e3f8fdbd29b0",
    ),
    "bootstrap-bounds": (
        ("bootstrap", "--csv", F, "--replicates", "200", "--seed", "2", "--rr-au", "2",
         "--rr-uy", "3"),
        0, "c99a1aeee8ad1e5266ebf642cd4318ab214154d2ea3582d551e77f9607288fe6",
    ),
}


@pytest.mark.parametrize("name", sorted(GOLDEN))
def test_stdout_digest(name, capsys, tmp_path):
    argv, code, digest = GOLDEN[name]
    csv = write_golden_csv(tmp_path / "golden.csv")
    assert main([arg.format(csv=csv) for arg in argv]) == code
    out = capsys.readouterr().out
    assert hashlib.sha256(out.encode("utf-8")).hexdigest() == digest


@pytest.mark.parametrize("name", sorted(name for name in GOLDEN if name.startswith("oracle")))
def test_oracle_report_passes_the_benchmark_check(name, capsys):
    """The benchmark reads these reports too: a change to them must not fail only there."""
    argv, code, _ = GOLDEN[name]
    assert main(list(argv)) == code
    iterations = int(argv[argv.index("--iterations") + 1])
    assert check_oracle(iterations)(capsys.readouterr().out.encode("utf-8")) == []
