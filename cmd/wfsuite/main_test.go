package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"io"
	"strings"
	"testing"

	"pmemsched/internal/experiments"
)

// TestRunList checks -list prints every experiment ID, in suite order.
func TestRunList(t *testing.T) {
	var stdout, stderr bytes.Buffer
	if code := run([]string{"-list"}, &stdout, &stderr); code != 0 {
		t.Fatalf("exit code %d, stderr %q", code, stderr.String())
	}
	var got []string
	sc := bufio.NewScanner(&stdout)
	for sc.Scan() {
		got = append(got, strings.Fields(sc.Text())[0])
	}
	all := experiments.All()
	if len(got) != len(all) {
		t.Fatalf("-list printed %d IDs, want %d", len(got), len(all))
	}
	for i, e := range all {
		if got[i] != e.ID {
			t.Errorf("line %d: ID %q, want %q", i, got[i], e.ID)
		}
	}
}

// TestRunOnlyJSON runs two experiments with JSON output: the whole of
// stdout must decode as one document holding both reports in order
// and the claim tally, with nothing after it.
func TestRunOnlyJSON(t *testing.T) {
	var stdout, stderr bytes.Buffer
	if code := run([]string{"-only", "tab1,fig4", "-format", "json"}, &stdout, &stderr); code != 0 {
		t.Fatalf("exit code %d, stderr %q", code, stderr.String())
	}
	dec := json.NewDecoder(&stdout)
	dec.DisallowUnknownFields()
	var doc struct {
		Reports []struct {
			ID       string            `json:"id"`
			Title    string            `json:"title"`
			Findings []json.RawMessage `json:"findings"`
			Tables   []json.RawMessage `json:"tables"`
		} `json:"reports"`
		Matched int `json:"matched"`
		Total   int `json:"total"`
	}
	if err := dec.Decode(&doc); err != nil {
		t.Fatalf("stdout does not decode as one document: %v", err)
	}
	if dec.More() {
		t.Fatal("stdout holds more than one JSON value")
	}
	if rest, err := io.ReadAll(io.MultiReader(dec.Buffered(), &stdout)); err != nil || strings.TrimSpace(string(rest)) != "" {
		t.Fatalf("after the document: %q (err %v)", rest, err)
	}
	if len(doc.Reports) != 2 || doc.Reports[0].ID != "tab1" || doc.Reports[1].ID != "fig4" {
		t.Fatalf("decoded %d reports: %+v", len(doc.Reports), doc.Reports)
	}
	if len(doc.Reports[0].Tables) == 0 {
		t.Error("tab1 has no tables")
	}
	findings := 0
	for _, r := range doc.Reports {
		if len(r.Findings) == 0 {
			t.Errorf("report %s has no findings", r.ID)
		}
		findings += len(r.Findings)
	}
	if doc.Total != findings || doc.Matched < 1 || doc.Matched > doc.Total {
		t.Errorf("tally %d/%d over %d findings", doc.Matched, doc.Total, findings)
	}
}

// TestRunUsageErrors checks bad flags exit 2 before any experiment
// runs, with nothing on stdout.
func TestRunUsageErrors(t *testing.T) {
	cases := []struct {
		name string
		args []string
		want string // stderr substring
	}{
		{"unknown flag", []string{"-bogus"}, "flag provided but not defined"},
		{"positional args", []string{"tab1"}, "unexpected arguments"},
		{"bad format", []string{"-format", "bogus"}, `unknown format "bogus"`},
		{"bad format with list", []string{"-list", "-format", "yaml"}, `unknown format "yaml"`},
		{"unknown experiment", []string{"-only", "tab1,fig99"}, "fig99"},
		{"unknown stack", []string{"-stack", "ext4"}, "ext4"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			var stdout, stderr bytes.Buffer
			if code := run(tc.args, &stdout, &stderr); code != 2 {
				t.Fatalf("exit code %d, want 2 (stderr %q)", code, stderr.String())
			}
			if !strings.Contains(stderr.String(), tc.want) {
				t.Errorf("stderr %q does not mention %q", stderr.String(), tc.want)
			}
			if stdout.Len() != 0 {
				t.Errorf("usage error leaked output to stdout: %q", stdout.String())
			}
		})
	}
}
