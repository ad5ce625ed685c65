import dataclasses
import hashlib
import re
import shlex
from importlib import resources
from pathlib import Path

import pytest

from setorbits import catalog
from setorbits.cli import build_parser, run
from setorbits.prune import degree_bound


@pytest.fixture
def capout(capsys):
    def get(argv, expect=0):
        code = run(argv)
        captured = capsys.readouterr()
        assert code == expect, (code, captured.out, captured.err)
        return captured
    return get


# ---------------------------------------------------------------------------
# orbits

def test_orbits_catalog_id(capout):
    out = capout(["orbits", "--group", "12P2"]).out
    assert out.strip() == "s=14"


def test_orbits_inline_per_size(capout):
    out = capout(["orbits", "--group", 'gens:(1,2,3,4)', "--per-size"]).out
    assert out.strip() == "1 1 2 1 1 | s=6"


def test_orbits_dump(capout):
    out = capout(["orbits", "--group", 'gens:(1,2,3,4)', "--dump"]).out
    lines = out.strip().splitlines()
    assert lines[0] == "s=6"
    assert "{1,3} {2,4}" in lines


def test_orbits_dump_beyond_enumeration_fails_before_output(capout):
    cap = capout(["orbits", "--group", "gens:(1,23)", "--dump"], expect=1)
    assert cap.out == ""
    assert cap.err == ("error: degree 23 too large for subset enumeration "
                       "(max 22)\n")


def test_orbits_unknown_id_is_usage_error(capout):
    cap = capout(["orbits", "--group", "99ZZ"], expect=2)
    assert "unknown catalog id" in cap.err


@pytest.mark.parametrize("spec,message", [
    ("gens:(1,2)(a)", "non-integer point in cycle 'a'"),
    ("gens:(1, 2)(x,y)", "non-integer point in cycle 'x,y'"),
    ("gens:(1,2.5)", "non-integer point in cycle '1,2.5'"),
    ("gens:(1,2)x", "expected '(' at position 5 in '(1,2)x'"),
    ("gens:(0)", "point 0 out of range 1..1")])
def test_orbits_malformed_point_is_the_parse_error(capout, spec, message):
    # the degree is the largest number written; parse_permutation reports
    # what is wrong with each point
    cap = capout(["orbits", "--group", spec], expect=2)
    assert (cap.out, cap.err) == ("", f"error: {message}\n")


@pytest.mark.parametrize("spec,s", [
    ("gens:()", 2), ("gens:(2,3)", 6)])
def test_orbits_inline_degree_is_the_largest_point(capout, spec, s):
    assert capout(["orbits", "--group", spec]).out == f"s={s}\n"


@pytest.mark.parametrize("spec", ["gens:", "gens:;", "gens: ; ", "gens:;;"])
def test_orbits_spec_without_a_generator_is_a_usage_error(capout, spec):
    # "()" is a word, the identity; separators alone name no group
    cap = capout(["orbits", "--group", spec], expect=2)
    assert (cap.out, cap.err) == (
        "", "error: empty generator list after gens:\n")


def test_unknown_flag_is_usage_error(capout):
    cap = capout(["orbits", "--group", "12P2", "--frobnicate"], expect=2)
    assert "frobnicate" in cap.err


def test_missing_subcommand_is_usage_error():
    assert run([]) == 2


S8_WR_S2 = "gens:(1,2);(1,2,3,4,5,6,7,8);" + "".join(
    f"({i},{i + 8})" for i in range(1, 9))


def test_orbits_beyond_burnside_limit(capout):
    # order 2 * 8!^2 > 10^7: counted by subset enumeration instead
    out = capout(["orbits", "--group", S8_WR_S2]).out
    assert out.strip() == "s=45"


def test_orbits_beyond_both_routes_fails(capout):
    # S12 wr S2: order above 10^7 on 24 > 22 points
    spec = ("gens:(1,2);(1,2,3,4,5,6,7,8,9,10,11,12);"
            + "".join(f"({i},{i + 12})" for i in range(1, 13)))
    cap = capout(["orbits", "--group", spec], expect=1)
    assert "no exact route" in cap.err


def test_readme_command_lines_parse(capout):
    """Every ``setorbits ...`` line of README's Command line block parses,
    and each ``orbits`` line whose comment states ``s=N`` prints it."""
    readme = (Path(__file__).resolve().parent.parent / "README.md").read_text(
        encoding="utf-8")
    block = readme.split("## Command line", 1)[1].split("```")[1]
    lines = [line for line in block.splitlines()
             if line.startswith("setorbits ")]
    assert len(lines) >= 7
    parser = build_parser()
    checked = 0
    for line in lines:
        argv = shlex.split(line, comments=True)[1:]
        parser.parse_args(argv)
        stated = re.search(r"#.*\b(s=\d+)", line)
        if argv[0] == "orbits" and stated:
            assert stated.group(1) in capout(argv).out, line
            checked += 1
    assert checked == 3


# ---------------------------------------------------------------------------
# prune

def test_prune_output_format(capout):
    out = capout(["prune", "--r", "2", "--max-degree", "24"]).out
    lines = dict(line.split("\t", 1) for line in out.strip().splitlines())
    assert lines["24"] == "step2\tmiller=1x19+5,p=17"
    assert lines["18"] == "step1\tp=11"
    assert lines["12"] == "survived\t-"
    assert lines["7"] == "parity\t-"


#: sha256 of the ``setorbits prune --r R --max-degree 81`` output,
#: R = 1..16: every verdict of the window's degrees up to 81
PRUNE_TABLE_SHA256 = {
    1: "e24bd0e400aae3c8d2a9a3ec32706af10162312376c2caf6f795df72d77d97ad",
    2: "70bb1e2e2f8d37be5f66f826d760820a95890d7e4912a5db3c47f36e88229781",
    3: "8a8b190ad05ad425febe6e0cfd66630c6056de4fdb757a4b9f74da1f10c146b2",
    4: "ff0df566fdc374b3117f2a1fe0b267ca01ac2a7028d92d3ba4171611c6f66692",
    5: "8502221be9c79ac56bf35444351763fed2e550c5a18903f50a5461b4a9233f93",
    6: "425fa7719a2f94a5b4c7e5fc11b997b7a177dccb1a911b0fba1354923349a4b0",
    7: "a24520169e82ea6dc94765f3a143552f3be35a75a627f160332a520bae4ab84b",
    8: "102c7d17061d3e877494159363b74d24031495eed9f07e8f5b9cbd316003a2c5",
    9: "00328d4f44657b91f302102389e921dc5b3a69191e894f29194ca34c219f2d88",
    10: "1bdbf3867d51763c06d7e85f653416c9e7ba5d3d85ecc6d6b1e5413f7a954a24",
    11: "6bf60155ee9bfc9e369c83826547e6f8ea5225949bfda31452dd168aeb6e3b92",
    12: "20fe37b31b193bd6e1b841e0d961ce79ada67af03e9c15e33f6677065a883b67",
    13: "b967ee5d34957a011ed066fa25fef6b5996a6095844fd20614df7531edb652fe",
    14: "959ec65bbff7396a9c5fa8077f09f2ee1f806b875b92c2fbb99c567f4e08e02a",
    15: "0c0823a3ed9d057b0495920ad3b94a4433b65bd5297a5b3c062e9a64982a39d5",
    16: "efaea4e15419f889da072110404fa8407457107b5e85f186357fb387e965aecf",
}


@pytest.mark.parametrize("r", sorted(PRUNE_TABLE_SHA256))
def test_prune_table_is_frozen(r, capout):
    out = capout(["prune", "--r", str(r), "--max-degree", "81"]).out
    assert hashlib.sha256(out.encode()).hexdigest() == PRUNE_TABLE_SHA256[r]


#: sha256 of the ``setorbits prune --r R`` output, which ends at
#: ``degree_bound(R)``, R = 1..16
PRUNE_DEFAULT_SHA256 = {
    1: "2bbbe93b5225723b1d705e7a7e1fd9c11e5f4f6546f5c52944e5e587b132f8b6",
    2: "3a083d3c56001b9e7a2021048df430b204372b15797501de891cc0515b9e39c5",
    3: "a30831e0a0ca676095b574d15b685e0de7756939333a43471e44a11560597f09",
    4: "520a3941ea6366b0369f66da23247684a724acc95d12533fa1817ddbc832da36",
    5: "4a8ecb0ecdfe09066cac1f58f5ee273aeb6ea016d74a30bf5f9d8f9efa8d36c6",
    6: "9a1102977a4968ff6edded6927bacee784005c62ce8cfec3c8c94042ccf6bdf9",
    7: "6a7b855202a457ede1f01b18a764a5dc73585c7278032dd1e09087f1140d0ab8",
    8: "00e7ebcefbca94e94a4a52e8f9c22e55f530006220cdd9b1b31b7b7a88424ced",
    9: "557fecae4e5f5fb575c1d321b1b3b313afcee25d24c2b94b99e5707e8b7afa94",
    10: "806482c3e89425473e9b90a3d5471c45d0fb0fb52432ead1ee3fc3ae556c9809",
    11: "7380822256897861ee1d403363539ccf8d6aa6ce5647ba7df97d3388797c6943",
    12: "de1d7330ac0b732e707ed08bbe28ba030e337575e1171209c26dc9f0d3754ad1",
    13: "4263ad3cd9aa2e8d01094338d3b86dec1b9d7752d07c0dd4195c26791863afe8",
    14: "5d86cae632822f9e43485d7246610e417cbb126c9724bdbf887c532961e8f1b8",
    15: "b89b6b7abb51d44e385230996410446972d8a7424d7cbabbe04bd0fd4437ea64",
    16: "d81e5e8a3820210f9bc8b8ca34dff7771998757ca27ccb130df710deacb616a7",
}


@pytest.mark.parametrize("r", sorted(PRUNE_DEFAULT_SHA256))
def test_prune_default_table_is_frozen_prefix_of_81(r, capout):
    out = capout(["prune", "--r", str(r)]).out
    assert hashlib.sha256(out.encode()).hexdigest() == PRUNE_DEFAULT_SHA256[r]
    assert out.splitlines()[-1].startswith(f"{degree_bound(r)}\t")
    full = capout(["prune", "--r", str(r), "--max-degree", "81"]).out
    assert full.startswith(out)


def test_prune_max_degree_runs_past_the_bound(capout):
    out = capout(["prune", "--r", "15", "--max-degree", "200"]).out
    lines = [line.split("\t") for line in out.strip().splitlines()]
    assert [int(n) for n, _, _ in lines] == list(range(3, 201))
    assert all(stage in ("parity", "step1") for n, stage, _ in lines
               if int(n) > degree_bound(15))


#: exit code, and sha256 of stdout and of stderr, of
#: ``setorbits classify --r R --format F --golden rR.tsv`` on the shipped
#: golden table, R = 1..11
CLASSIFY_SHA256 = {
    (1, "tsv"): (0,
        "19c1c4fbc7d73dcd9cae3d29ab6ddd8962d70cee3f10828a4bc0096326967b37",
        "e0a369c1548c6ef0967dbfed18db5960bf7069095214c6806d0409d7626d421b"),
    (1, "pretty"): (0,
        "5204486079ae6d533be909e848d43c7d5d2ae159f2dd21d9ca5cc97f3e1182ec",
        "e0a369c1548c6ef0967dbfed18db5960bf7069095214c6806d0409d7626d421b"),
    (2, "tsv"): (0,
        "55d4c666b50e1d07e6dac35aa110f2c0fd774556085460afcb315a782c235afd",
        "e0a369c1548c6ef0967dbfed18db5960bf7069095214c6806d0409d7626d421b"),
    (2, "pretty"): (0,
        "147737a6a4d4a4aa0daf3785260e10b9976a7cc66b2fa7f7046598e9037541f7",
        "e0a369c1548c6ef0967dbfed18db5960bf7069095214c6806d0409d7626d421b"),
    (3, "tsv"): (0,
        "bd0f396cd0f22d0046a413bf7235b4ef8446cf49190bd11204e961abd86c94ee",
        "e0a369c1548c6ef0967dbfed18db5960bf7069095214c6806d0409d7626d421b"),
    (3, "pretty"): (0,
        "27c159ed8a85cced98045cc5a8c794b44b44aeb5807d2c69d1d1fc9d7b117ab8",
        "e0a369c1548c6ef0967dbfed18db5960bf7069095214c6806d0409d7626d421b"),
    (4, "tsv"): (0,
        "4e3fce42d033bb98e7fe3f15650f2bf0752dee64a2f8486c9819b0724a774c62",
        "f07eb8717aa7e3844599feb940099b026f6555d8d8b03a013846a2bb4302944f"),
    (4, "pretty"): (0,
        "0432e47add2c0318b40a49c0520c5e491769268d087ddfa91bf8a9dcf9c5b90e",
        "f07eb8717aa7e3844599feb940099b026f6555d8d8b03a013846a2bb4302944f"),
    (5, "tsv"): (0,
        "7608065e9b3bd2f3936ddd367bc6f608c3a0c35c7646550d4c66f513cf4c3f28",
        "f07eb8717aa7e3844599feb940099b026f6555d8d8b03a013846a2bb4302944f"),
    (5, "pretty"): (0,
        "4d12d54d695f36ad9dc208c534abaf4e75fcca565361186229ce47e103980029",
        "f07eb8717aa7e3844599feb940099b026f6555d8d8b03a013846a2bb4302944f"),
    (6, "tsv"): (0,
        "4adc6ce7173f94a87d64099a82b917381288edb4a55add597b9c610fde28b699",
        "e0a369c1548c6ef0967dbfed18db5960bf7069095214c6806d0409d7626d421b"),
    (6, "pretty"): (0,
        "b8adc4370dab787032f9efe7181bfc3deda764fdc64ac94e44400b85ea8ac3b9",
        "e0a369c1548c6ef0967dbfed18db5960bf7069095214c6806d0409d7626d421b"),
    (7, "tsv"): (0,
        "7c0804432a70052dce77002790171a0b88533772341c9ac29b3148209f53ad4a",
        "50e8975840dcff0473bcfbf91a4571c532d07e8889e4ae622b09211988989fdf"),
    (7, "pretty"): (0,
        "75609879f3231a20836f507c8df32ff1fb795ba1bc93ebc02a9764e9e57d7ee6",
        "50e8975840dcff0473bcfbf91a4571c532d07e8889e4ae622b09211988989fdf"),
    (8, "tsv"): (1,
        "f6645210c96cdb797da3830176e5132dac6a2c8cbc68806312f69d3e90fe447d",
        "3f14975c444eb0fc0d65ad32729a6cb221327b6c22ff707f96e282affba8ed4c"),
    (8, "pretty"): (1,
        "c6e27222e010aec40190c218fbd8a188fbbeab1d14a4bb684f25377e02bc7ef3",
        "3f14975c444eb0fc0d65ad32729a6cb221327b6c22ff707f96e282affba8ed4c"),
    (9, "tsv"): (1,
        "4b9cc9cf4f800c7d7989c96efd129d79a7031a7d507dc6e6c4994c8b93b4fc56",
        "37df88beb5a1f13d25bd1aae828aaeb0c657e95b6e8eb26d4977a14e53497ff2"),
    (9, "pretty"): (1,
        "49a17d8a2eb31d268a3a06dcfaf2d197fe8b573080c148a6d6858a73235a0f10",
        "37df88beb5a1f13d25bd1aae828aaeb0c657e95b6e8eb26d4977a14e53497ff2"),
    (10, "tsv"): (1,
        "7b60d20d1f37709e3d2b495246193af29922e24866a9c16c6f54da659cc03306",
        "86c870610c9a4b02da3f3dbba713ec3a8e3ccd8f95973c39aeb905343379c97d"),
    (10, "pretty"): (1,
        "5719e1b8f000aca85717de5005cd46e44a76bcb0cdef74eec094ee17f810cf23",
        "86c870610c9a4b02da3f3dbba713ec3a8e3ccd8f95973c39aeb905343379c97d"),
    (11, "tsv"): (1,
        "639d0a6b3d310e07e0dc77097defbba509656773807041d4b1660be386ec46aa",
        "b7879039ef7e71fbbe8b269f7ad6e3b0b671cdfd31825597c5efdc276e0d1048"),
    (11, "pretty"): (1,
        "28f6131ab273ffb1cce423bf22da32d518c6a34a878cc2a210a98a5c1f0124b7",
        "b7879039ef7e71fbbe8b269f7ad6e3b0b671cdfd31825597c5efdc276e0d1048"),
}


@pytest.mark.parametrize("r,fmt", sorted(CLASSIFY_SHA256))
def test_classify_output_is_frozen(r, fmt, tmp_path, capout):
    golden = resources.files("setorbits").joinpath(f"data/tables/r{r}.tsv")
    path = tmp_path / f"r{r}.tsv"
    path.write_bytes(golden.read_bytes())
    code, out_sha, err_sha = CLASSIFY_SHA256[r, fmt]
    cap = capout(["classify", "--r", str(r), "--format", fmt,
                  "--golden", str(path)], expect=code)
    assert hashlib.sha256(cap.out.encode()).hexdigest() == out_sha
    assert hashlib.sha256(cap.err.encode()).hexdigest() == err_sha


def test_prune_full_range_has_81_degrees(capout):
    out = capout(["prune", "--r", "2", "--max-degree", "81"]).out
    assert len(out.strip().splitlines()) == 80  # degrees 2..81


@pytest.mark.parametrize("argv", [["classify", "--r", "0"],
                                  ["classify", "--r", "12"],
                                  ["prune", "--r", "0"]])
def test_r_out_of_range_is_usage_error(argv, capout):
    """classify takes 1..MAX_R; prune takes every r >= 1."""
    cap = capout(argv, expect=2)
    message = ("must be at least 1" if argv[0] == "prune"
               else "invalid choice")
    assert message in cap.err and not cap.out


@pytest.mark.parametrize("r, max_degree", [("2", "-3"), ("3", "2")])
def test_prune_max_degree_below_window_is_usage_error(r, max_degree, capout):
    cap = capout(["prune", "--r", r, "--max-degree", max_degree], expect=2)
    assert "argument --max-degree" in cap.err and not cap.out


# ---------------------------------------------------------------------------
# subgroups

def test_subgroups_listing(capout):
    out = capout(["subgroups", "--degree", "4"]).out
    lines = [l.split("\t") for l in out.strip().splitlines()]
    assert len(lines) == 11
    assert [l[1] for l in lines] == sorted((l[1] for l in lines), key=int)
    total = sum(int(l[2]) for l in lines)
    assert total == 30
    trans = [l for l in lines if l[3] == "yes"]
    assert len(trans) == 5


def test_subgroups_transitive_only(capout):
    out = capout(["subgroups", "--degree", "4", "--transitive"]).out
    assert len(out.strip().splitlines()) == 5


@pytest.mark.parametrize("degree", ["0", "-3", "x"])
def test_subgroups_bad_degree_is_usage_error(degree, capout):
    cap = capout(["subgroups", "--degree", degree], expect=2)
    assert "argument --degree" in cap.err and not cap.out


def test_subgroups_cap_error(capout):
    cap = capout(["subgroups", "--degree", "9"], expect=1)
    assert "cap" in cap.err


# ---------------------------------------------------------------------------
# catalog-verify

def test_catalog_verify_passes(capout):
    out = capout(["catalog-verify"]).out
    assert "manifest ok" in out


def test_catalog_verify_reports_failures(monkeypatch, capout):
    entries = [e for e in catalog.load_default() if e.id != "8P4"]
    i = next(i for i, e in enumerate(entries) if e.id == "5P2")
    s = entries[i].expected_s
    entries[i] = dataclasses.replace(entries[i], expected_s=s + 1)
    monkeypatch.setattr(catalog, "load_default", lambda: tuple(entries))
    lines = capout(["catalog-verify"], expect=1).out.splitlines()
    want = catalog.MANIFEST["primitive"][8]
    assert f"FAIL 5P2: set-orbits: computed {s}, expected {s + 1}" in lines
    assert (f"FAIL manifest: degree 8: {want - 1} primitive entries, "
            f"expected {want}") in lines
    assert lines[-1] == (f"{len(entries) - 1}/{len(entries)} entries "
                         "verified, manifest INCOMPLETE")


# ---------------------------------------------------------------------------
# classify

def test_classify_r2_tsv_golden(tmp_path, capout):
    golden = resources.files("setorbits").joinpath("data/tables/r2.tsv")
    path = tmp_path / "r2.tsv"
    path.write_bytes(golden.read_bytes())
    cap = capout(["classify", "--r", "2", "--format", "tsv",
                  "--golden", str(path)])
    assert "empty diff" in cap.err
    lines = cap.out.strip().splitlines()
    assert lines[0] == "r\tdegree\tlabel\tname\torder\ts"
    assert len(lines) == 10


def test_classify_golden_with_byte_order_mark(tmp_path, capout):
    """Some editors save a TSV with a UTF-8 byte-order mark; the table
    still parses, header and all."""
    golden = resources.files("setorbits").joinpath("data/tables/r2.tsv")
    path = tmp_path / "r2.tsv"
    path.write_bytes(b"\xef\xbb\xbf" + golden.read_bytes())
    cap = capout(["classify", "--r", "2", "--format", "tsv",
                  "--golden", str(path)])
    assert cap.err == "golden diff: empty diff\n"


def test_classify_golden_mismatch_exit_code(tmp_path, capout):
    bad = "r\tdegree\tlabel\tname\torder\ts\n2\t4\tx\tfake\t99\t6\n"
    path = tmp_path / "bad.tsv"
    path.write_text(bad)
    cap = capout(["classify", "--r", "2", "--golden", str(path)], expect=1)
    assert "missing" in cap.err


def test_classify_golden_of_another_r_is_an_error(tmp_path, capout):
    """The table is read and checked before the run prints anything."""
    golden = resources.files("setorbits").joinpath("data/tables/r2.tsv")
    path = tmp_path / "r2.tsv"
    path.write_bytes(golden.read_bytes())
    for fmt in ("pretty", "tsv"):
        cap = capout(["classify", "--r", "3", "--format", fmt,
                      "--golden", str(path)], expect=1)
        assert cap.out == ""
        assert cap.err.endswith(
            "is for r = 2, not r = 3: a table for another r\n")
        assert cap.err.startswith("error: golden row ")
        assert "missing" not in cap.err and "extra" not in cap.err


@pytest.mark.parametrize("text,error", [
    (None, "error: [Errno 2] No such file or directory: "),
    ("r\tdegree\n2\t4\n", "error: golden line 2: expected 6 columns, got 2\n"),
], ids=["missing", "malformed"])
def test_classify_unreadable_golden_fails_before_output(text, error, tmp_path,
                                                        capout):
    path = tmp_path / "r2.tsv"
    if text is not None:
        path.write_text(text)
    cap = capout(["classify", "--r", "2", "--format", "tsv",
                  "--golden", str(path)], expect=1)
    assert cap.out == ""
    assert cap.err.startswith(error)


def test_classify_pretty(capout):
    out = capout(["classify", "--r", "3"]).out
    assert "M11" in out and "8 group(s)" in out


def test_classify_pretty_reports_sources_and_routes(capout):
    out = capout(["classify", "--r", "3"]).out
    assert "  n= 5  primitive catalog (prime degree): 3 (enumeration 3)" in out
    assert "  n= 4  transitive catalog: 3 (" in out
    assert ("  n= 3  primitive catalog (prime degree) + one-point paddings: "
            "1 (shortcut 1)") in out
    tsv = capout(["classify", "--r", "3", "--format", "tsv"]).out
    assert "candidates" not in tsv and len(tsv.splitlines()) == 9


def test_classify_gap_failure_names_resource(capout):
    cap = capout(["classify", "--r", "8"], expect=1)
    assert "primitive catalog does not cover degree 14" in cap.err


R8_GAPS = ("degree 14: primitive catalog does not cover degree 14",
           "degree 18: primitive catalog does not cover degree 18")


def test_classify_gaps_print_report_and_diff(tmp_path, capout):
    golden = resources.files("setorbits").joinpath("data/tables/r8.tsv")
    path = tmp_path / "r8.tsv"
    path.write_bytes(golden.read_bytes())
    cap = capout(["classify", "--r", "8", "--golden", str(path)], expect=1)
    assert "classification for r=8: 9 group(s)" in cap.out
    assert "  n=14  primitive catalog: data gap" in cap.out.splitlines()
    assert "gaps:" not in cap.out
    # the diff lists nothing missing or extra (only shared signatures)
    assert "golden diff: 2 signature(s) matched as a group\n" in cap.err
    assert "missing" not in cap.err and "extra" not in cap.err
    for reason in R8_GAPS:
        assert cap.err.count(reason) == 1
        assert f"error: data gap: {reason}\n" in cap.err


def test_classify_tsv_reports_gaps_and_exits_1(capout):
    cap = capout(["classify", "--r", "8", "--format", "tsv"], expect=1)
    assert all(cap.err.count(reason) == 1 for reason in R8_GAPS)
    assert len(cap.out.splitlines()) == 10  # header + 9 rows
