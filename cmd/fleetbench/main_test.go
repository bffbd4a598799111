package main

import (
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// TestRunTinyStream measures a tiny stream: the document must decode,
// carry the schema marker and count the stream's jobs and events.
func TestRunTinyStream(t *testing.T) {
	out := filepath.Join(t.TempDir(), "bench.json")
	var stderr bytes.Buffer
	args := []string{"-nodes", "4", "-jobs", "40", "-interarrival", "5", "-policy", "pmem-aware", "-parallel", "1", "-out", out}
	if code := run(args, &stderr); code != 0 {
		t.Fatalf("exit code %d, stderr %q", code, stderr.String())
	}
	raw, err := os.ReadFile(out)
	if err != nil {
		t.Fatal(err)
	}
	var doc benchDoc
	if err := json.Unmarshal(raw, &doc); err != nil {
		t.Fatalf("document does not decode: %v", err)
	}
	if doc.Schema != "pmemsched/bench-fleet/v1" {
		t.Errorf("schema %q", doc.Schema)
	}
	if doc.Config.Jobs != 40 || doc.Config.Nodes != 4 || doc.Config.Policy != "pmem-aware" {
		t.Errorf("config %+v", doc.Config)
	}
	if doc.Indexed.Events < 80 || doc.Indexed.Passes == 0 || doc.Indexed.NsPerEvent <= 0 {
		t.Errorf("indexed run %+v: want at least an arrival and a completion per job", doc.Indexed)
	}
	if !strings.Contains(stderr.String(), "indexed: 40 jobs on 4 nodes") {
		t.Errorf("stderr %q does not report the run", stderr.String())
	}
}

// TestRunUsageErrors checks bad flags and flag values exit 2 before
// anything is simulated or written.
func TestRunUsageErrors(t *testing.T) {
	cases := []struct {
		name string
		args []string
		want string // stderr substring
	}{
		{"unknown flag", []string{"-bogus"}, "flag provided but not defined"},
		{"positional args", []string{"extra"}, "unexpected arguments"},
		{"unknown policy", []string{"-policy", "lifo"}, `unknown policy "lifo"`},
		{"unknown config", []string{"-config", "X-LocQ"}, "X-LocQ"},
		{"unknown stack", []string{"-stack", "ext4"}, "ext4"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			out := filepath.Join(t.TempDir(), "bench.json")
			var stderr bytes.Buffer
			if code := run(append(tc.args, "-out", out), &stderr); code != 2 {
				t.Fatalf("exit code %d, want 2 (stderr %q)", code, stderr.String())
			}
			if !strings.Contains(stderr.String(), tc.want) {
				t.Errorf("stderr %q does not mention %q", stderr.String(), tc.want)
			}
			if _, err := os.Stat(out); !os.IsNotExist(err) {
				t.Errorf("usage error wrote %s (stat: %v)", out, err)
			}
		})
	}
}
