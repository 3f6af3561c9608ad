"""Boom-hierarchy tables: golden agreement, emitters, and diff plumbing."""

import pytest

from monadlab.hierarchy import (
    GoldenFileError,
    build_table,
    cell_content,
    diff_table,
    golden_path,
    parse_golden,
    to_csv,
    to_markdown,
    variant_labels,
)


@pytest.fixture(scope="module")
def tables():
    return {v: build_table(v) for v in ("original", "extended", "full")}


class TestBuild:
    def test_variant_labels(self):
        assert variant_labels("original") == ("T", "L", "M", "P")
        assert len(variant_labels("extended")) == 8
        assert len(variant_labels("full")) == 16
        with pytest.raises(GoldenFileError):
            variant_labels("huge")

    def test_mark_counts(self, tables):
        # oracle: counted off the three tables by hand before freezing
        assert tables["original"].counts() == {"N": 10, "Y": 6, "?": 0}
        assert tables["extended"].counts() == {"N": 56, "Y": 8, "?": 0}
        assert tables["full"].counts() == {"N": 80, "Y": 41, "?": 135}

    def test_rows_and_columns_are_independent(self, tables):
        t = tables["original"]
        assert t.cells[("T", "M")].mark == "Y"
        assert t.cells[("M", "T")].mark == "N"

    def test_every_decided_cell_is_justified(self, tables):
        for t in tables.values():
            for v in t.cells.values():
                if v.mark == "N":
                    assert v.theorems
                elif v.mark == "Y":
                    assert v.positive is not None
                    assert v.verified_laws or v.positive.citation_only

    def test_distinctive_cells(self, tables):
        full = tables["full"]

        def content(r, c):
            return set(cell_content(full.cells[(r, c)]))

        assert content("P", "P") == {
            "IdemUnits",
            "Plotkin1",
            "independently refuted by Klin & Salamanca 2018, Thm 3.2",
        }
        assert content("T+", "T+") == {"Manes & Mulry 2008, Ex 3.9"}
        assert content("M+", "T+") == {"Manes & Mulry 2008, Ex 4.9"}
        assert content("L+", "L+") == {
            "Manes & Mulry 2007, Ex 5.1.10; Manes & Mulry 2008, Ex 4.10"
        }
        assert content("I", "CI") == {"LackingAbides", "IdemUnits", "Plotkin1"}
        assert content("I+", "T") == set()


class TestGoldenAgreement:
    @pytest.mark.parametrize("variant", ["original", "extended", "full"])
    def test_diff_is_empty(self, tables, variant):
        assert diff_table(tables[variant], golden_path(variant)) == []

    def test_flipped_cell_is_the_only_mismatch(self, tables, tmp_path):
        text = golden_path("original").read_text()
        broken = tmp_path / "boom_original.csv"
        broken.write_text(
            text.replace("T,N[1],N[1],Y[2],Y[2]", "T,N[1],Y[2],Y[2],Y[2]", 1)
        )
        diffs = diff_table(tables["original"], broken)
        assert len(diffs) == 1
        assert (diffs[0].row, diffs[0].col) == ("T", "L")
        assert diffs[0].expected.startswith("Y")
        assert diffs[0].got.startswith("N")

    def test_wrong_variant_is_a_dimension_error(self, tables):
        with pytest.raises(GoldenFileError, match="dimension"):
            diff_table(tables["original"], golden_path("extended"))

    def test_footnote_numbering_is_per_table(self, tables):
        # the same content may carry different numbers in different tables
        _, orig = tables["original"].footnotes()
        _, full = tables["full"].footnotes()
        assert orig["Plotkin1"] != full["Plotkin1"]
        # and the golden transcription numbers KS before Plotkin1, the
        # emitter the other way round; agreement is content-level only
        assert diff_table(tables["original"], golden_path("original")) == []


class TestParsing:
    def test_round_trip_through_csv(self, tables):
        for t in tables.values():
            variant, labels, cells = parse_golden(to_csv(t))
            assert (variant, labels) == (t.variant, t.labels)
            for (r, c), (mark, contents) in cells.items():
                v = t.cells[(r, c)]
                assert mark == v.mark
                assert contents == frozenset(cell_content(v))

    def test_missing_variant_line(self):
        with pytest.raises(GoldenFileError, match="variant"):
            parse_golden(",T,L\nT,N,Y\nL,Y,N\n")

    def test_undefined_footnote(self):
        text = "variant,original\n,T\nT,N[9]\n"
        with pytest.raises(GoldenFileError, match="undefined footnote"):
            parse_golden(text)

    def test_unknown_cells_cannot_cite(self):
        text = "variant,original\n,T\nT,?[1]\nfootnote,1,LackingAbides\n"
        with pytest.raises(GoldenFileError, match="cannot cite"):
            parse_golden(text)

    def test_unreadable_cell(self):
        with pytest.raises(GoldenFileError, match="unreadable"):
            parse_golden("variant,x\n,T\nT,maybe\n")

    def test_wrong_row_count(self):
        with pytest.raises(GoldenFileError, match="data rows"):
            parse_golden("variant,x\n,T,L\nT,N,N\n")

    def test_row_labels_must_match_columns(self):
        text = "variant,x\n,T,L\nT,N,N\nM,N,N\n"
        with pytest.raises(GoldenFileError, match="row labels"):
            parse_golden(text)


class TestMarkdown:
    def test_unknown_renders_blank(self, tables):
        md = to_markdown(tables["full"])
        assert "| I+ |  |" in md
        assert "?" not in md.split("\n[1]")[0]

    def test_footnotes_listed(self, tables):
        md = to_markdown(tables["original"])
        assert "[1]: LackingAbides" in md
        assert "Manes & Mulry 2007, Thm 4.3.4" in md

    def test_header_names_all_labels(self, tables):
        md = to_markdown(tables["extended"])
        header = md.split("\n")[3]
        for lbl in variant_labels("extended"):
            assert f" {lbl} " in header
