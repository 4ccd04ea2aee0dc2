package main

import (
	"io"
	"strings"
	"testing"
)

func TestRunSingleFigure(t *testing.T) {
	if err := run([]string{"-figure", "3", "-small", "-nodes", "4", "-iters", "3"}, io.Discard); err != nil {
		t.Fatal(err)
	}
}

func TestRunSingleTable(t *testing.T) {
	if err := run([]string{"-table", "1", "-small"}, io.Discard); err != nil {
		t.Fatal(err)
	}
}

func TestRunYoung(t *testing.T) {
	if err := run([]string{"-table", "young", "-small", "-nodes", "4", "-iters", "3"}, io.Discard); err != nil {
		t.Fatal(err)
	}
}

// TestLookupEveryFamily selects one experiment per id family under both
// flags: prefixed ids ("3" -> fig3), ids with no prefix at all (the
// ablations, membership, scale, ftcompare) and ids given verbatim (fig3).
func TestLookupEveryFamily(t *testing.T) {
	for _, c := range []struct{ flag, arg, wantID string }{
		{"-figure", "3", "fig3"},
		{"-table", "1", "table1"},
		{"-table", "fig3", "fig3"},
		{"-figure", "table1", "table1"},
		{"-table", "ablation-mirror", "ablation-mirror"},
		{"-figure", "ablation-mirror", "ablation-mirror"},
		{"-table", "ablation-positional", "ablation-positional"},
		{"-table", "ftcompare", "ftcompare"},
		{"-table", "membership", "membership"},
		{"-figure", "scale", "scale"},
	} {
		t.Run(c.flag+"="+c.arg, func(t *testing.T) {
			var out strings.Builder
			if err := run([]string{c.flag, c.arg, "-small", "-nodes", "4", "-iters", "3"}, &out); err != nil {
				t.Fatal(err)
			}
			if want := "== " + c.wantID + ": "; !strings.HasPrefix(out.String(), want) || strings.Count(out.String(), "\n== ") != 0 {
				t.Errorf("want exactly the %s table, got:\n%s", c.wantID, out.String())
			}
		})
	}
}

func TestNoSelection(t *testing.T) {
	if err := run(nil, io.Discard); err == nil {
		t.Fatal("expected usage error")
	}
}

func TestUnknownExperiment(t *testing.T) {
	err := run([]string{"-figure", "99"}, io.Discard)
	if err == nil {
		t.Fatal("expected unknown-experiment error")
	}
	if !strings.Contains(err.Error(), `"99"`) || !strings.Contains(err.Error(), "ablation-mirror") {
		t.Errorf("error should quote the id and list the known ones: %v", err)
	}
}

// TestDefaultWidthIsOne pins the host-independent default: two runs that
// differ only in leaving -workers out print the same bytes as -workers 1.
func TestDefaultWidthIsOne(t *testing.T) {
	var def, one strings.Builder
	args := []string{"-figure", "2b", "-small", "-nodes", "4"}
	if err := run(args, &def); err != nil {
		t.Fatal(err)
	}
	if err := run(append(args, "-workers", "1"), &one); err != nil {
		t.Fatal(err)
	}
	if def.String() != one.String() {
		t.Errorf("default width is not 1:\n%s\nvs -workers 1:\n%s", def.String(), one.String())
	}
}
