package main

import (
	"os"
	"slices"
	"strconv"
	"strings"
	"testing"
)

func TestFigureTableCoversAllEighteen(t *testing.T) {
	var got, want []string
	for n := 1; n <= 18; n++ {
		want = append(want, strconv.Itoa(n))
	}
	want = append(want, "table1", "ablations")
	for _, f := range figureTable() {
		if f.title == "" || f.run == nil {
			t.Fatalf("entry %s incomplete", f.id)
		}
		got = append(got, f.id)
	}
	if !slices.Equal(got, want) {
		t.Fatalf("entries %v, want %v", got, want)
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
			t.Fatalf("-list missing figure %s (%q):\n%s", f.id, f.title, got)
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
	// An existing directory, and one -out has to create, parents included;
	// a named entry's file is named after it.
	for _, c := range []struct{ dir, fig, file, want string }{
		{tmp, "1", "fig01.txt", "t_sec"},
		{tmp + "/new/nested", "1", "fig01.txt", "t_sec"},
		{tmp, "table1", "table1.txt", "improvement factor"},
	} {
		var out strings.Builder
		if err := run([]string{"-fig", c.fig, "-scale", "0.005", "-tsv", "-out", c.dir}, &out); err != nil {
			t.Fatal(err)
		}
		data, err := os.ReadFile(c.dir + "/" + c.file)
		if err != nil {
			t.Fatal(err)
		}
		if !strings.Contains(string(data), c.want) {
			t.Fatalf("%s missing %q: %.80s", c.file, c.want, data)
		}
	}
}

func TestRunConfigPrintout(t *testing.T) {
	var out strings.Builder
	if err := run([]string{"-config"}, &out); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out.String(), "MaxClients 200") {
		t.Fatalf("config printout:\n%s", out.String())
	}
}

func TestRunRejectsBadFlag(t *testing.T) {
	var out strings.Builder
	if err := run([]string{"-nope"}, &out); err == nil {
		t.Fatal("bad flag accepted")
	}
}
