package main

import (
	"bytes"
	"os"
	"path/filepath"
	"testing"
)

// TestStartCPUProfile pins the -cpuprofile flag's helper: it writes a
// gzip-compressed pprof profile once stopped, and reports an unwritable
// path as an error before any panel runs.
func TestStartCPUProfile(t *testing.T) {
	path := filepath.Join(t.TempDir(), "cpu.pprof")
	stop, err := startCPUProfile(path)
	if err != nil {
		t.Fatal(err)
	}
	if err := stop(); err != nil {
		t.Fatal(err)
	}
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.HasPrefix(data, []byte{0x1f, 0x8b}) {
		t.Fatalf("profile is not gzip-compressed pprof (%d bytes)", len(data))
	}

	if _, err := startCPUProfile(filepath.Join(t.TempDir(), "missing", "cpu.pprof")); err == nil {
		t.Fatal("profile into a missing directory: want an error")
	}
}
