package main

import (
	"bytes"
	"io"
	"net/http"
	"regexp"
	"strings"
	"sync"
	"syscall"
	"testing"
	"time"
)

func TestRunFlagErrors(t *testing.T) {
	cases := []struct {
		name string
		args []string
		want string // stderr substring
	}{
		{"unknown flag", []string{"-bogus"}, "flag provided but not defined"},
		{"unknown stack", []string{"-stack", "zfs"}, "unknown stack"},
		{"unknown policy", []string{"-policy", "sjf"}, "unknown policy"},
		{"unknown config", []string{"-config", "X-LocW"}, "configuration"},
		{"negative nodes", []string{"-nodes", "-1"}, "-nodes must be non-negative"},
		{"positional args", []string{"serve"}, "unexpected arguments"},
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
		})
	}
}

// addrWatcher captures stdout and reports the announced listen address.
type addrWatcher struct {
	mu   sync.Mutex
	buf  bytes.Buffer
	addr chan string
	once sync.Once
}

var addrRE = regexp.MustCompile(`listening on http://(\S+)`)

func (w *addrWatcher) Write(p []byte) (int, error) {
	w.mu.Lock()
	defer w.mu.Unlock()
	n, err := w.buf.Write(p)
	if m := addrRE.FindSubmatch(w.buf.Bytes()); m != nil {
		w.once.Do(func() { w.addr <- string(m[1]) })
	}
	return n, err
}

// TestServeAndGracefulShutdown boots the daemon on a free port, drives
// one decision and one placement query over real HTTP, then delivers
// SIGTERM and expects a clean drain with exit code 0 — the same
// sequence CI's smoke job runs against the built binary.
func TestServeAndGracefulShutdown(t *testing.T) {
	w := &addrWatcher{addr: make(chan string, 1)}
	done := make(chan int, 1)
	go func() {
		done <- run([]string{"-addr", "127.0.0.1:0", "-quiet", "-nodes", "2"}, w, io.Discard)
	}()

	var addr string
	select {
	case addr = <-w.addr:
	case code := <-done:
		t.Fatalf("daemon exited early with code %d", code)
	case <-time.After(10 * time.Second):
		t.Fatal("daemon never announced its address")
	}
	base := "http://" + addr

	resp, err := http.Get(base + "/healthz")
	if err != nil {
		t.Fatalf("healthz: %v", err)
	}
	if err := resp.Body.Close(); err != nil {
		t.Errorf("closing healthz body: %v", err)
	}
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("healthz status %d", resp.StatusCode)
	}

	resp, err = http.Post(base+"/v1/recommend", "application/json",
		strings.NewReader(`{"name":"micro-2k","ranks":4}`))
	if err != nil {
		t.Fatalf("recommend: %v", err)
	}
	body, err := io.ReadAll(resp.Body)
	if cerr := resp.Body.Close(); err == nil {
		err = cerr
	}
	if err != nil {
		t.Fatalf("recommend body: %v", err)
	}
	if resp.StatusCode != http.StatusOK || !strings.Contains(string(body), `"config"`) {
		t.Fatalf("recommend status %d body %s", resp.StatusCode, body)
	}

	resp, err = http.Get(base + "/v1/state")
	if err != nil {
		t.Fatalf("state: %v", err)
	}
	body, err = io.ReadAll(resp.Body)
	if cerr := resp.Body.Close(); err == nil {
		err = cerr
	}
	if err != nil {
		t.Fatalf("state body: %v", err)
	}
	if !strings.Contains(string(body), `"cores_per_socket":28`) {
		t.Fatalf("state does not show the pre-registered fleet: %s", body)
	}

	if err := syscall.Kill(syscall.Getpid(), syscall.SIGTERM); err != nil {
		t.Fatalf("sending SIGTERM: %v", err)
	}
	select {
	case code := <-done:
		if code != 0 {
			t.Fatalf("exit code %d after SIGTERM, want 0", code)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("daemon did not drain within 10s of SIGTERM")
	}
	w.mu.Lock()
	out := w.buf.String()
	w.mu.Unlock()
	if !strings.Contains(out, "draining") || !strings.Contains(out, "bye") {
		t.Errorf("shutdown narration missing from stdout: %q", out)
	}
}

// TestPortCollision checks the daemon reports a bind failure instead
// of serving nothing quietly.
func TestPortCollision(t *testing.T) {
	w := &addrWatcher{addr: make(chan string, 1)}
	done := make(chan int, 1)
	go func() {
		done <- run([]string{"-addr", "127.0.0.1:0", "-quiet"}, w, io.Discard)
	}()
	var addr string
	select {
	case addr = <-w.addr:
	case <-time.After(10 * time.Second):
		t.Fatal("first daemon never started")
	}
	defer func() {
		if err := syscall.Kill(syscall.Getpid(), syscall.SIGTERM); err != nil {
			t.Fatalf("sending SIGTERM: %v", err)
		}
		<-done
	}()

	var stderr bytes.Buffer
	if code := run([]string{"-addr", addr, "-quiet"}, io.Discard, &stderr); code != 1 {
		t.Fatalf("second daemon on %s: exit %d, want 1 (stderr %q)", addr, code, stderr.String())
	}
	if !strings.Contains(stderr.String(), "address already in use") {
		t.Errorf("stderr %q does not explain the bind failure", stderr.String())
	}
}

// signalOnAnnounce sends the process SIGTERM from inside the write that
// announces the listen address, before run can take another step.
type signalOnAnnounce struct {
	mu   sync.Mutex
	buf  bytes.Buffer
	sent bool
	err  error
}

func (w *signalOnAnnounce) Write(p []byte) (int, error) {
	w.mu.Lock()
	defer w.mu.Unlock()
	n, err := w.buf.Write(p)
	if !w.sent && addrRE.Match(w.buf.Bytes()) {
		w.sent = true
		w.err = syscall.Kill(syscall.Getpid(), syscall.SIGTERM)
	}
	return n, err
}

// TestSignalRightAfterAnnounce pins the order of startup: the SIGTERM
// handler is installed before the address is announced, so a
// supervisor that signals the moment it reads the address gets a
// graceful drain instead of the default action killing the process.
func TestSignalRightAfterAnnounce(t *testing.T) {
	w := &signalOnAnnounce{}
	done := make(chan int, 1)
	go func() {
		done <- run([]string{"-addr", "127.0.0.1:0", "-quiet"}, w, io.Discard)
	}()
	select {
	case code := <-done:
		if code != 0 {
			t.Fatalf("exit code %d after SIGTERM, want 0", code)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("daemon did not drain within 10s of SIGTERM")
	}
	w.mu.Lock()
	defer w.mu.Unlock()
	if !w.sent || w.err != nil {
		t.Fatalf("SIGTERM sent %v, error %v", w.sent, w.err)
	}
	if !strings.Contains(w.buf.String(), "bye") {
		t.Errorf("shutdown narration missing from stdout: %q", w.buf.String())
	}
}
