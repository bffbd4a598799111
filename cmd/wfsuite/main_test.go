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

// TestRunOnlyJSON runs one experiment with JSON output: the report
// must decode, and only the claim summary may follow it.
func TestRunOnlyJSON(t *testing.T) {
	var stdout, stderr bytes.Buffer
	if code := run([]string{"-only", "tab1", "-format", "json"}, &stdout, &stderr); code != 0 {
		t.Fatalf("exit code %d, stderr %q", code, stderr.String())
	}
	dec := json.NewDecoder(&stdout)
	var rep struct {
		ID       string            `json:"id"`
		Findings []json.RawMessage `json:"findings"`
		Tables   []json.RawMessage `json:"tables"`
	}
	if err := dec.Decode(&rep); err != nil {
		t.Fatalf("report does not decode: %v", err)
	}
	if rep.ID != "tab1" || len(rep.Findings) == 0 || len(rep.Tables) == 0 {
		t.Fatalf("decoded report %+v", rep)
	}
	rest, err := io.ReadAll(io.MultiReader(dec.Buffered(), &stdout))
	if err != nil {
		t.Fatal(err)
	}
	if got := strings.TrimSpace(string(rest)); !strings.HasPrefix(got, "== summary:") {
		t.Fatalf("after the report: %q, want the claim summary", got)
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
