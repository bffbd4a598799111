package main

import (
	"bytes"
	"strings"
	"testing"
)

// TestQuickReportsCalibratedDefaults runs the -quick evaluation of the
// committed defaults: 16 of the 18 Table II winners reproduce.
func TestQuickReportsCalibratedDefaults(t *testing.T) {
	var out bytes.Buffer
	if code := run([]string{"-quick"}, &out); code != 0 {
		t.Fatalf("calibrate -quick exited %d:\n%s", code, out.String())
	}
	first, _, _ := strings.Cut(out.String(), "\n")
	if !strings.HasSuffix(first, "correct 16/18") {
		t.Fatalf("first line %q, want it to end in \"correct 16/18\"", first)
	}
}
