package main

import (
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// TestRunUsageErrors checks invalid flags and flag combinations exit 2
// before any simulation runs, with nothing on stdout.
func TestRunUsageErrors(t *testing.T) {
	cases := []struct {
		name string
		args []string
		want string // stderr substring
	}{
		{"unknown flag", []string{"-bogus"}, "flag provided but not defined"},
		{"positional args", []string{"-workflow", "micro-2k", "extra"}, "unexpected arguments"},
		{"workflow and spec", []string{"-workflow", "micro-2k", "-spec", "x.json"}, "pick one"},
		{"ranks with spec", []string{"-spec", "x.json", "-ranks", "8"}, "-ranks applies to -workflow only"},
		{"default ranks with spec", []string{"-ranks", "16", "-spec", "x.json"}, "-ranks applies to -workflow only"},
		{"unknown workflow", []string{"-workflow", "hpl"}, `unknown workflow "hpl"`},
		{"nothing selected", nil, `unknown workflow ""`},
		{"bad config", []string{"-workflow", "micro-2k", "-config", "X-LocQ"}, "X-LocQ"},
		{"trace needs one config", []string{"-workflow", "micro-2k", "-trace", "t.json"}, "single -config"},
		{"missing spec file", []string{"-spec", "/nonexistent/spec.json"}, "no such file"},
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

// TestRunTrace runs one configuration with -trace: the timeline must
// decode as a Chrome trace, and its transfer events must carry their
// byte counts.
func TestRunTrace(t *testing.T) {
	path := filepath.Join(t.TempDir(), "t.json")
	var stdout, stderr bytes.Buffer
	args := []string{"-workflow", "gtc+readonly", "-ranks", "8", "-config", "S-LocW", "-trace", path}
	if code := run(args, &stdout, &stderr); code != 0 {
		t.Fatalf("exit code %d, stderr %q", code, stderr.String())
	}
	for _, want := range []string{"timeline written to", "S-LocW  total", "writer: compute"} {
		if !strings.Contains(stdout.String(), want) {
			t.Errorf("report missing %q:\n%s", want, stdout.String())
		}
	}
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	var events []struct {
		Cat  string         `json:"cat"`
		Ph   string         `json:"ph"`
		Args map[string]any `json:"args"`
	}
	if err := json.Unmarshal(raw, &events); err != nil {
		t.Fatalf("trace does not decode: %v", err)
	}
	kinds := map[string]int{}
	for _, ev := range events {
		kinds[ev.Cat]++
		if ev.Cat != "transfer" {
			continue
		}
		if b, ok := ev.Args["bytes"].(float64); !ok || b <= 0 {
			t.Fatalf("transfer event without bytes: %+v", ev)
		}
	}
	for _, k := range []string{"compute", "transfer", "wait", "barrier"} {
		if kinds[k] == 0 {
			t.Errorf("no %s events in the trace (kinds %v)", k, kinds)
		}
	}
}
