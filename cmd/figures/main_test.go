package main

import (
	"os"
	"strings"
	"testing"
)

func TestFigureTableCoversAllEighteen(t *testing.T) {
	figs := figureTable()
	if len(figs) != 18 {
		t.Fatalf("%d figures registered", len(figs))
	}
	seen := map[int]bool{}
	for _, f := range figs {
		if f.id < 1 || f.id > 18 || seen[f.id] {
			t.Fatalf("bad or duplicate figure id %d", f.id)
		}
		seen[f.id] = true
		if f.title == "" || f.run == nil {
			t.Fatalf("figure %d incomplete", f.id)
		}
	}
}

// TestListFigures pins the -list contract: every registered figure id
// appears with its description, and nothing is simulated.
func TestListFigures(t *testing.T) {
	var out strings.Builder
	if err := run([]string{"-list"}, &out); err != nil {
		t.Fatal(err)
	}
	got := out.String()
	for _, f := range figureTable() {
		if !strings.Contains(got, f.title) {
			t.Fatalf("-list missing figure %d (%q):\n%s", f.id, f.title, got)
		}
	}
}

func TestRunSingleFigureWithTSV(t *testing.T) {
	var out strings.Builder
	if err := run([]string{"-fig", "1", "-scale", "0.02", "-tsv"}, &out); err != nil {
		t.Fatal(err)
	}
	got := out.String()
	if !strings.Contains(got, "Figure 1") || !strings.Contains(got, "t_sec\trt_ms") {
		t.Fatalf("output:\n%s", got)
	}
}

func TestRunUnknownFigure(t *testing.T) {
	var out strings.Builder
	err := run([]string{"-fig", "99"}, &out)
	if err == nil {
		t.Fatal("unknown figure accepted")
	}
	// The error lists the valid ids so a typo is self-correcting.
	if !strings.Contains(err.Error(), "18") || !strings.Contains(err.Error(), "admission control") {
		t.Fatalf("unknown-figure error does not list figures: %v", err)
	}
	if err := run([]string{}, &out); err == nil {
		t.Fatal("no figure selected but no error")
	}
}

func TestRunWritesToOutDir(t *testing.T) {
	tmp := t.TempDir()
	// An existing directory, and one -out has to create, parents included.
	for _, dir := range []string{tmp, tmp + "/new/nested"} {
		var out strings.Builder
		if err := run([]string{"-fig", "1", "-scale", "0.02", "-tsv", "-out", dir}, &out); err != nil {
			t.Fatal(err)
		}
		data, err := os.ReadFile(dir + "/fig01.txt")
		if err != nil {
			t.Fatal(err)
		}
		if !strings.Contains(string(data), "t_sec") {
			t.Fatalf("fig01.txt missing TSV: %.80s", data)
		}
	}
}
