import json

import pytest

from twobridge import cli


def run(capsys, *argv):
    rc = cli.main(list(argv))
    out, err = capsys.readouterr()
    return rc, out, err


class TestPrecision:
    @pytest.mark.parametrize("bits", ["8", "0", "-1", "52"])
    def test_below_53_is_a_usage_error(self, capsys, bits):
        rc, out, err = run(capsys, "--precision", bits, "roots", "2/5")
        assert rc == 2
        assert out == ""
        assert "precision" in err

    def test_53_is_accepted(self, capsys):
        rc, out, _ = run(capsys, "--precision", "53", "roots", "2/5")
        assert rc == 0
        assert "0.5+0.8660254i" in out.split()


class TestRootIndex:
    @pytest.mark.parametrize("spec", ["99", "4", "-1"])
    def test_out_of_range_index(self, capsys, spec):
        # 2/5 has four nonzero roots: valid indices are 0..3
        rc, out, err = run(capsys, "reps", "2/5", "--root", spec)
        assert rc == 2
        assert out == ""
        assert "out of range" in err

    def test_last_index_and_anchor(self, capsys):
        rc, by_index, _ = run(capsys, "reps", "2/5", "--root", "3")
        assert rc == 0
        rc, by_anchor, _ = run(capsys, "reps", "2/5", "--root", "0.5+0.87i")
        assert rc == 0
        assert by_index == by_anchor

    @pytest.mark.parametrize("argv", [
        ("reps", "1/2", "--root", "0"),
        ("volume", "1/2", "--root", "0.5"),
        ("cusp", "1/2", "--root", "1+1i"),
    ])
    def test_no_nonzero_root(self, capsys, argv):
        # the Hopf link has P = u^2: index and anchor have nothing to pick
        rc, out, err = run(capsys, *argv)
        assert rc == 2
        assert out == ""
        assert "no nonzero root" in err


class TestSplit:
    def test_link_is_a_usage_error(self, capsys):
        rc, out, err = run(capsys, "split", "3/8")
        assert rc == 2
        assert out == ""

    def test_knot(self, capsys):
        rc, out, _ = run(capsys, "split", "2/5")
        assert rc == 0
        assert out.splitlines() == ["g    = u^2 + u + 1",
                                    "ghat = u^2 - u + 1"]


class TestComplexText:
    def test_roots(self, capsys):
        rc, out, _ = run(capsys, "roots", "2/5")
        assert rc == 0
        assert out.splitlines() == [
            "0+0i", "-0.5-0.8660254i", "-0.5+0.8660254i",
            "0.5-0.8660254i", "0.5+0.8660254i"]

    def test_reps(self, capsys):
        rc, out, _ = run(capsys, "reps", "2/5", "--root", "0")
        assert rc == 0
        lines = out.splitlines()
        assert lines[0].startswith("root -0.5-0.8660254i ")
        assert lines[1] == "arc 0    (1+0i, 0+0i)"
        assert "arc 5    (-1+0i, -0.5+0.8660254i)" in lines

    def test_cusp(self, capsys):
        rc, out, _ = run(capsys, "cusp", "2/5", "--root", "1")
        assert rc == 0
        assert out == "0+3.46410162i\n"

    def test_volume(self, capsys):
        rc, out, _ = run(capsys, "volume", "2/5", "--root", "1")
        assert rc == 0
        value = out.split()[0]
        assert value.startswith("-2.02988321+") and value.endswith("i")

    @pytest.mark.parametrize("root", ["0", "1"])
    def test_fig8_volume_has_zero_cs_part(self, capsys, root):
        rc, out, _ = run(capsys, "volume", "2/5", "--root", root)
        assert rc == 0
        assert out.split()[0] in ("2.02988321+0i", "-2.02988321+0i")


class TestRepPoly:
    def test_link_fraction_and_word_agree(self, capsys):
        # 3/8 = [2,1,2]: every link prints both orientation variants
        rc, by_fraction, _ = run(capsys, "reppoly", "3/8")
        assert rc == 0
        rc, by_word, _ = run(capsys, "reppoly", "C[2,1,2]")
        assert rc == 0
        assert by_fraction == by_word
        assert by_fraction.splitlines() == ["u^8 - 2*u^6 + 2*u^4",
                                            "u^8 + 2*u^6 + 2*u^4"]

    def test_knot_prints_one_polynomial(self, capsys):
        rc, out, _ = run(capsys, "reppoly", "3/7")
        assert rc == 0
        assert out == "u^7 - u^5 + 2*u^3 - u\n"
        rc, out, _ = run(capsys, "--format", "json", "reppoly", "3/7")
        assert rc == 0
        doc = json.loads(out)
        assert doc["rep_poly"] == "u^7 - u^5 + 2*u^3 - u"
        assert "rep_poly_iu" not in doc


class TestExitCodes:
    @pytest.mark.parametrize("argv", [
        ("ors", "C[2,3]", "--type", "2", "--c", "a"),
        ("ors", "C[2,3]", "--type", "3", "--c", "1,1", "--signs", "1,x,1"),
    ])
    def test_unparsable_ors_list_is_a_usage_error(self, capsys, argv):
        rc, out, err = run(capsys, *argv)
        assert rc == 2
        assert out == ""
        assert err.startswith("error:")

    def test_census_out_in_missing_directory(self, capsys, tmp_path):
        path = tmp_path / "missing" / "f.jsonl"
        rc, out, err = run(capsys, "census", "--max-alpha", "5",
                           "--out", str(path))
        assert rc == 2
        assert out == ""
        assert err.startswith("error:")
        assert not path.parent.exists()

    def test_census_out_naming_a_directory(self, capsys, tmp_path):
        rc, out, err = run(capsys, "census", "--max-alpha", "5",
                           "--out", str(tmp_path))
        assert rc == 2
        assert out == ""
        assert err.startswith("error:")
        assert list(tmp_path.iterdir()) == []

    @pytest.mark.parametrize("jobs", ["0", "-2"])
    def test_census_jobs_below_1(self, capsys, jobs):
        rc, out, err = run(capsys, "census", "--max-alpha", "5",
                           "--jobs", jobs)
        assert rc == 2
        assert out == ""
        assert "jobs" in err

    def test_numeric_failure_exits_3(self, capsys):
        # P/u of 1/51 has 25 root pairs, over the splitting's limit
        rc, out, err = run(capsys, "split", "1/51")
        assert rc == 3
        assert out == ""
        assert err.startswith("numeric failure:")


class TestOrs:
    def test_fault_spec(self, capsys):
        # the expansion has alpha 10,225,150 and orientation (1,1), tried
        # first, is the wrong one
        rc, out, _ = run(capsys, "--format", "json", "ors", "C[-3,-3]",
                         "--type", "5", "--c", "2,2,2,-1")
        assert rc == 0
        doc = json.loads(out)
        assert doc["seed_factor_witness"] == "P_A"
        assert doc["word"] == [-3, -3, 4, -3, -3, 4, -3, -3, 4, -3, -3, -2,
                               -3, -3]


class TestRootsAtDefaultPrecision:
    def test_t2_49_roots_distinct(self, capsys):
        rc, out, _ = run(capsys, "--format", "json", "roots", "1/49")
        assert rc == 0
        roots = [(r["re"], r["im"]) for r in json.loads(out)["roots"]]
        assert len(roots) == 49
        assert len(set(roots)) == 49

    @pytest.mark.parametrize("spec", ["7/24", "17/24"])
    def test_triple_root_clusters_exit_0(self, capsys, spec):
        rc, out, _ = run(capsys, "roots", spec)
        assert rc == 0
        assert len(out.splitlines()) == 24
