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
    assert lines["24"] == "homogeneity\tt*=11,h=5"
    assert lines["18"] == "step1\tp=11"
    assert lines["12"] == "survived\t-"
    assert lines["7"] == "parity\t-"


#: sha256 of the ``setorbits prune --r R --max-degree 81`` output,
#: R = 1..16: every verdict of the window's degrees up to 81
PRUNE_TABLE_SHA256 = {
    1: "8af49c1a13947c630904098e3e39d1addef3d7e86221573e1a8eea221eb659c0",
    2: "126c5fd74bd25bd6cc1cffd4e79c7576cb691becde0b8a01d081a7da0815a82a",
    3: "7b169c8d905008c401bdc43bd05143ad51324f1c7f4a4df5a7389c4fc769141b",
    4: "ad7046363df1b35798eeaa9dccf70e248251ca051f56e75668109946f0f4268f",
    5: "e1569c23584d8853bdd805273cc2bb992a27ef3b81d4c36daa144368295d9200",
    6: "c6512933c96a7adeaecd461511ccd6775f469f0eee9cc7a58adc68a21c67312b",
    7: "ed11db49a680f5aab4085547315a503f6318bca5ae8cc8bee5782f21647ad784",
    8: "cc9b6c0c29382a0e692a902bae584cc5c942f05ee3a2b836cceacb8cde9c262f",
    9: "772b9ea9479eff067e285e265bf9f4fa04a8a33b8decfbadb2df1f2076c63021",
    10: "4ba9a6668f1c0e64fd025bc39557fd6e2d09bf9e40e8ee93bdba8ac9f3d06764",
    11: "586c456c412dc6cf2ace3ad9b5e141629d0604d54b9ac906eb84fa651574e10c",
    12: "f9cc7c29d744dd2169366bbc4834e1cacbb8587bf1d38ea2d6aff74cb2e84a66",
    13: "4c9a9a2eb4203f7e4a111e70aa385b0211cbc0e5b0d79d7ddb1c64464bad0047",
    14: "5256dd6396e3e9a34364779ad20e4d36d5194b1a335dda0cb0dcd4a19ad17652",
    15: "ee49882156d6052e225b745008801fa13ede74f5fae7c504f5f691cf3979d8c2",
    16: "976ad6d20ce4b01e20911547aa1af6551b9939bba3862f492c8cdcd8435d5a04",
}


@pytest.mark.parametrize("r", sorted(PRUNE_TABLE_SHA256))
def test_prune_table_is_frozen(r, capout):
    out = capout(["prune", "--r", str(r), "--max-degree", "81"]).out
    assert hashlib.sha256(out.encode()).hexdigest() == PRUNE_TABLE_SHA256[r]


#: sha256 of the ``setorbits prune --r R`` output, which ends at
#: ``degree_bound(R)``, R = 1..16
PRUNE_DEFAULT_SHA256 = {
    1: "8a8fc8ece0d28dc04ea60687b3076026c0551e04dc8321f326ce45de43f693fd",
    2: "8ba9ab13c28127e9a866be172feed39081b8ea804008f92229c0e57de5945962",
    3: "067587934e7f184f4a4ad51debb430f72102f10605dca626648177136681fc18",
    4: "e1f9d42997e372f48c63868b3c9b2afb94a6bef28524cfaa36c24bbd51e185c5",
    5: "0e7928f4caa2968fb87161008e60e10950ee9c9bcabe2c0c318a43fdc52b3d0b",
    6: "f0a46e048a534d4409335757174fec1ba06dc2d7ac430223529c2f3cee813295",
    7: "3975d8553180c4c0134f1f8e2bec04a76b89ac136b1aada84406ed5c664a583f",
    8: "92de34c378562829106b0d808f5de9d3625a0480448dfaae5ad06293de53c84e",
    9: "6a40b0ebb952d2aa5dd73feb62f664d90e76448edd0def8346dcad7e6c324b8f",
    10: "bc15e13e24c286770cfaad7adfad8506c5257395c81d8edecfe72f2a846eae6a",
    11: "c5873dcaf26058a6ba179f174272353e99da686eb85e8c2893265b1cad256e5a",
    12: "068e0f4e496c00a6db6e66f703d11f1a738058f3bf418f908504e399330badf4",
    13: "a6c442d69293fb837f08dd71e37c6166336221663375956735c31f7b1daba6f1",
    14: "1755560f9e2aa3d3d76db7587894ef63dc0fe13f6bb85f893fd3e498cfb3d8fc",
    15: "cc6085b4f47bee96469fcdd7cc2199a75ba6c1916043ce4c2259145bb3e461bf",
    16: "0aa1ac1871f7e370d2d4d4b6dca6b0cd9d51020cb3369ffd8ccbfd5fcb342274",
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
        "0239bc94655087bddebe51577b79a967b26263bdabc656c35b9f7df545c175c8"),
    (8, "pretty"): (1,
        "17f0c274156e81069266bb464161dec2d9fc64d76f872c6b69ad074c3489fbee",
        "0239bc94655087bddebe51577b79a967b26263bdabc656c35b9f7df545c175c8"),
    (9, "tsv"): (1,
        "4b9cc9cf4f800c7d7989c96efd129d79a7031a7d507dc6e6c4994c8b93b4fc56",
        "fdd822ff8a008c38d8375519f88aaa4f86d7b380726a91df75e53e67d0213cfb"),
    (9, "pretty"): (1,
        "42d39bfefb318bc234844f6e578c84d0877e76153f0e858b0b180abb85156310",
        "fdd822ff8a008c38d8375519f88aaa4f86d7b380726a91df75e53e67d0213cfb"),
    (10, "tsv"): (1,
        "7b60d20d1f37709e3d2b495246193af29922e24866a9c16c6f54da659cc03306",
        "3184c74ef79f0f72ad7abe685ff7b4b11718b45f0bd34d846c1b146430745073"),
    (10, "pretty"): (1,
        "a55f532e775bedb65a8e4f7e8b22b55fddda4aab3975f029a45301f093dc7523",
        "3184c74ef79f0f72ad7abe685ff7b4b11718b45f0bd34d846c1b146430745073"),
    (11, "tsv"): (1,
        "639d0a6b3d310e07e0dc77097defbba509656773807041d4b1660be386ec46aa",
        "e58443988423f494f3e52aaedf33a0edc6573978a4f20f6d6c0014aec69a7f11"),
    (11, "pretty"): (1,
        "68a823ca897a2b418bfea552acb5e190fc8476ad889b63ada31584991022144c",
        "e58443988423f494f3e52aaedf33a0edc6573978a4f20f6d6c0014aec69a7f11"),
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


#: degree 18 is no gap: step 2 eliminates it (t* = 5 > h(18) = 3)
R8_GAPS = ("degree 14: primitive catalog does not cover degree 14",)


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
    assert cap.err.count("error: data gap:") == len(R8_GAPS)


def test_classify_tsv_reports_gaps_and_exits_1(capout):
    cap = capout(["classify", "--r", "8", "--format", "tsv"], expect=1)
    assert all(cap.err.count(reason) == 1 for reason in R8_GAPS)
    assert cap.err.count("error: data gap:") == len(R8_GAPS)
    assert len(cap.out.splitlines()) == 10  # header + 9 rows
